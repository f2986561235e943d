"""End-to-end acceptance battery.

One test per advertised guarantee, each printing a single PASS/FAIL
line that the terminal summary hook replays after the run.  A failing
guarantee fails its test, so this module gates the whole suite.
"""

from functools import lru_cache

from fockmod.weyl import GridSpec
from fockmod.cli import (
    MODEL_SCENARIOS,
    assemble_report,
    build_scenario,
    builtin_car_config,
    load_config,
    report_json,
    run_config,
)
from fockmod.models import (
    SIGMA_KINDS,
    check_adjointness,
    check_covariance,
    check_nonfock,
    check_norm_recovery,
    check_weyl_exactness,
)

from _support import ACCEPTANCE_LINES, EQUIV_FAMILIES, run_equivalence, tiny_module


def _record(num: int, label: str, ok: bool) -> None:
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@lru_cache(maxsize=1)
def desk_ctx():
    # the built-in delta battery doubles as the canonical desk scenario
    return build_scenario(builtin_car_config("delta"))


def test_acceptance_1_weyl_exactness():
    res = check_weyl_exactness(desk_ctx().gens, seed=202, cases=200, tol=1e-14)
    _record(1, "Weyl exactness", res.passed)


def test_acceptance_2_car_battery():
    ok = True
    free_total = nonfree_total = 0
    for kind in SIGMA_KINDS:
        cfg = builtin_car_config(kind)
        car = cfg["checks"][0]
        assert car["check"] == "car"
        free_total += len(car["free"])
        nonfree_total += len(car["nonfree"])
        cfg["checks"] = [car]
        rec = run_config(cfg)
        entry = rec["checks"][0]
        ok = ok and entry["status"] == "pass"
        ok = ok and float(entry["residuals"]["free_max"]) <= 1e-10
        ok = ok and float(entry["residuals"]["nonfree_min"]) > 0.1
    ok = ok and free_total == 50 and nonfree_total == 10
    _record(2, "CAR battery", ok)


def test_acceptance_3_adjointness_covariance():
    ctx = desk_ctx()
    adj = check_adjointness(ctx, seed=11, cases=100, tol=1e-10)
    cov = check_covariance(ctx, seed=12, cases=100, tol=1e-12)
    _record(3, "adjointness and covariance", adj.passed and cov.passed)


def test_acceptance_4_norm_recovery():
    res = check_norm_recovery(desk_ctx(), seed=13, cases=20, tol=1e-8)
    _record(4, "norm recovery", res.passed)


def test_acceptance_5_oracle_equivalence():
    ok = True
    for family in EQUIV_FAMILIES:
        worst = run_equivalence(tiny_module(family), seed=303, cases_per_op=34)
        ok = ok and all(dev <= 1e-10 for dev in worst.values())
    _record(5, "oracle equivalence", ok)


def test_acceptance_6_nonfock_witness():
    res = check_nonfock(desk_ctx())
    _record(6, "non-Fock witness", res.passed and res.residuals["gap"] > 0.1)


def test_acceptance_7_model_matrix():
    ok = True
    for name in MODEL_SCENARIOS.values():
        rec = run_config(load_config(name))
        ok = ok and rec["summary"]["status"] == "pass"
    _record(7, "model matrix", ok)


def test_acceptance_8_report_determinism():
    grid = GridSpec(dimension=1, points_per_axis=16)
    cfg = load_config("delta_locality")
    first = report_json(assemble_report([run_config(cfg)], grid))
    second = report_json(assemble_report([run_config(load_config("delta_locality"))], grid))
    _record(8, "report determinism", first == second and first.endswith("\n"))
