"""Config loading, scenario validation, report assembly, exit codes."""

import json
import math
import re

import numpy as np
import pytest

from fockmod import models
from fockmod.cli import (
    BUNDLED,
    CHECK_PARAMS,
    MODEL_SCENARIOS,
    SCHEMA,
    ConfigError,
    _parse_profile,
    assemble_report,
    build_scenario,
    builtin_car_config,
    load_config,
    main,
    report_json,
    report_text,
    run_config,
)
from fockmod.weyl import GridSpec
from fockmod.models import SIGMA_KINDS


def tiny_config() -> dict:
    # 3-point delta model: generator 0 acts at point 0, generator 1 at
    # point 1, so wA (point 2) is untouched by every twist and wC
    # (point 0) is moved by generator 0
    return {
        "schema": SCHEMA,
        "name": "tiny",
        "grid": {"dimension": 1, "points": 3, "spacing": 1.0, "components": 1},
        "sigma": {"kind": "delta"},
        "state": "tracial",
        "truncation": 3,
        "seed": 5,
        "generators": [
            {"s0": {"shape": "point", "center": 0}},
            {
                "s0": {"shape": "point", "center": 1},
                "s1": {"shape": "values", "values": [0.0, 0.0, 0.5]},
            },
        ],
        "vectors": {
            "wA": {"profile": {"shape": "point", "center": 2}},
            "wB": {"profile": {"shape": "point", "center": 1}},
            "wC": {"profile": {"shape": "point", "center": 0}},
        },
        "checks": [
            {
                "check": "car",
                "free": [
                    [[["wA", [0, 0]]], [["wB", [0, 0]]]],
                    [[["wA", [0, 1]]], [["wA", [0, 0]]]],
                ],
                "nonfree": [[[["wC", [1, 0]]], [["wC", [0, 0]]]]],
            },
            {"check": "nonfock"},
        ],
    }


# ---------------------------------------------------------------------------
# config loading


def test_load_bundled_names():
    for name in BUNDLED:
        cfg = load_config(name)
        assert cfg["schema"] == SCHEMA
        assert cfg["name"] == name
    assert load_config("delta_locality.json")["name"] == "delta_locality"


def test_load_unknown_name():
    with pytest.raises(ConfigError, match="neither a file nor a bundled"):
        load_config("no_such_scenario")


def test_load_file_and_malformed(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    assert load_config(str(p))["name"] == "tiny"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# scenario validation


def broken(**patch):
    cfg = tiny_config()
    cfg.update(patch)
    return cfg


def test_build_scenario_vectors():
    ctx = build_scenario(tiny_config())
    assert set(ctx.vectors) == {"wA", "wB", "wC"}
    assert set(ctx.vectors["wA"].entries) == {2}
    assert ctx.truncation == 3
    assert ctx.state.kind == "tracial"
    # the delta kernel gives each generator's s0 as its phase profile
    assert [phi.tolist() for phi in ctx.phis] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def test_scenario_rejects_bad_schema():
    with pytest.raises(ConfigError, match="schema"):
        build_scenario(broken(schema="fockmod/0"))
    with pytest.raises(ConfigError, match="schema"):
        build_scenario(broken(schema=None))


def test_scenario_rejects_bad_truncation():
    with pytest.raises(ConfigError, match="truncation"):
        build_scenario(broken(truncation=0))
    with pytest.raises(ConfigError, match="truncation"):
        build_scenario(broken(truncation=5))


def test_scenario_rejects_bad_sigma():
    with pytest.raises(ConfigError, match="sigma.kind"):
        build_scenario(broken(sigma={"kind": "gauss"}))
    for radius in (None, math.inf, True):
        with pytest.raises(ConfigError, match="radius"):
            build_scenario(broken(sigma={"kind": "bump", "radius": radius}))
    with pytest.raises(ConfigError, match="sigma"):
        build_scenario(broken(sigma=None))


def test_scenario_rejects_bad_generators():
    with pytest.raises(ConfigError, match="generators"):
        build_scenario(broken(generators=[]))
    with pytest.raises(ConfigError, match=r"generators\[0\]"):
        build_scenario(broken(generators=[{"s1": {"shape": "zero"}}]))


def test_scenario_rejects_an_unknown_top_level_key():
    # a library caller gets the key rule of run_config
    with pytest.raises(ConfigError, match="config: unknown key 'stat'"):
        build_scenario(load_config("delta_locality") | {"stat": "quasifree"})


def test_scenario_rejects_bad_vectors():
    cfg = tiny_config()
    cfg["vectors"]["wA"]["sector"] = "x"
    with pytest.raises(ConfigError, match="sector"):
        build_scenario(cfg)
    cfg = tiny_config()
    cfg["vectors"]["wA"]["component"] = 3
    with pytest.raises(ConfigError, match="component"):
        build_scenario(cfg)


# ---------------------------------------------------------------------------
# profiles

G3 = GridSpec(dimension=1, points_per_axis=3)


def test_profile_values_and_zero():
    vals = _parse_profile(G3, {"shape": "values", "values": [1.0, 0.0, -2.0]}, "p")
    assert np.array_equal(vals, [1.0, 0.0, -2.0])
    assert np.array_equal(_parse_profile(G3, {"shape": "zero"}, "p"), np.zeros(3))
    with pytest.raises(ConfigError, match=re.escape("p.values: expected a list of numbers, 3 of them")):
        _parse_profile(G3, {"shape": "values", "values": [1.0]}, "p")


def test_profile_point_box_bump():
    g5 = GridSpec(dimension=1, points_per_axis=5)
    pt = _parse_profile(g5, {"shape": "point", "amplitude": 2.0}, "p")
    assert np.array_equal(pt, [0, 0, 2.0, 0, 0])
    box = _parse_profile(g5, {"shape": "box", "center": 2, "width": 2.0}, "p")
    assert np.array_equal(box, [0, 1.0, 1.0, 1.0, 0])
    bump = _parse_profile(g5, {"shape": "bump", "center": 2, "width": 2.0, "amplitude": 3.0}, "p")
    assert bump[2] == 3.0
    assert bump[1] == 0.0 and bump[3] == 0.0


@pytest.mark.parametrize("dimension, points", ((1, 4), (1, 5), (2, 4), (3, 3)))
def test_profile_center_defaults_to_the_middle_index(dimension, points):
    # points_per_axis // 2 on every axis, for every shape with a center
    grid = GridSpec(dimension=dimension, points_per_axis=points)
    middle = grid.index((points // 2,) * dimension)
    for shape in ("point", "box", "bump"):
        prof = _parse_profile(grid, {"shape": shape}, "p")
        assert np.flatnonzero(prof).tolist() == [middle], shape


def test_profile_center_list_and_errors():
    g2 = GridSpec(dimension=2, points_per_axis=3)
    pt = _parse_profile(g2, {"shape": "point", "center": [1, 2]}, "p")
    assert pt[g2.index((1, 2))] == 1.0
    assert np.count_nonzero(pt) == 1
    for grid, spec, message in (
        (G3, {"shape": "spiral"}, "p.shape: unknown shape 'spiral'"),
        (G3, {"shape": 3}, "p.shape: unknown shape 3"),
        (G3, {"shape": "box", "width": 0.0}, "p.width: expected a positive number"),
        # non-finite input is refused, not turned into an empty or NaN profile
        (G3, {"shape": "box", "width": math.nan}, "p.width: expected a finite number"),
        (G3, {"shape": "point", "amplitude": math.nan}, "p.amplitude: expected a finite number"),
        (G3, {"shape": "values", "values": [1.0, math.inf, 0.0]}, "p.values[1]: expected a finite number"),
        (G3, {"shape": "point", "center": 3}, "p.center: 3 is no point of the grid"),
        (G3, {"shape": "point", "center": -1}, "p.center: -1 is no point of the grid"),
        (g2, {"shape": "point", "center": [1]}, "p.center: [1] is no point of the grid"),
        (G3, ["point"], "p: expected a JSON object"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            _parse_profile(grid, spec, "p")


def test_run_config_rejects_bad_checks():
    with pytest.raises(ConfigError, match="checks"):
        run_config(broken(checks=[]))
    with pytest.raises(ConfigError, match="unknown check"):
        run_config(broken(checks=[{"check": "entropy"}]))
    with pytest.raises(ConfigError, match="car: nothing to test"):
        run_config(broken(checks=[{"check": "car"}]))
    with pytest.raises(ConfigError, match="unknown vector"):
        run_config(
            broken(checks=[{"check": "car", "free": [[[["zz", [0, 0]]], [["wA", [0, 0]]]]]}])
        )
    with pytest.raises(ConfigError, match="exponents"):
        run_config(
            broken(checks=[{"check": "car", "free": [[[["wA", [0]]], [["wB", [0, 0]]]]]}])
        )
    # every error names its field path
    for check, path in (
        ({"local": [["wA", 5]]}, "relative_locality.local[0][1]: expected a generator index"),
        ({"witness": [["zz", 0]]}, "relative_locality.witness[0][0]: unknown vector"),
        ({"local": "wA"}, "relative_locality.local: expected a list"),
        ({"local": [["wA"]]}, "relative_locality.local[0]: expected [vector, generator]"),
        # JSON booleans are no integers
        ({"local": [["wA", True]]}, "relative_locality.local[0][1]: expected a generator index"),
    ):
        with pytest.raises(ConfigError, match=re.escape(path)):
            run_config(broken(checks=[{"check": "relative_locality", **check}]))
    for check, path in (
        ({"check": "adjointness", "cases": True}, "adjointness.cases: expected an integer"),
        ({"check": "weyl_exactness", "cases": False}, "weyl_exactness.cases: expected an integer"),
        (
            {
                "check": "observable_net",
                "observables": [{"generator": True, "w1": "wA", "w2": "wB"}],
            },
            "observable_net.observables[0].generator: expected a generator index",
        ),
        (
            {
                "check": "observable_net",
                "observables": [{"w1": "wA", "w2": "wB"}] * 2,
                "disjoint": [[0, True]],
            },
            "observable_net.disjoint[0]: expected a valid index pair",
        ),
        (
            {"check": "car", "free": [[[["wA", [0, True]]], [["wB", [0, 0]]]]]},
            "car.free[0][0][0]: exponents must be 2 integers",
        ),
        ({"check": "gauge_invariance", "angles": [True]}, "gauge_invariance.angles[0]: expected"),
        # a count of zero or less would test nothing
        ({"check": "adjointness", "cases": 0}, "adjointness.cases: expected a count of at least 1"),
        ({"check": "adjointness", "cases": -3}, "adjointness.cases: expected a count of at least"),
        ({"check": "weyl_exactness", "cases": -1}, "weyl_exactness.cases: expected a count"),
        ({"check": "norm_recovery", "cases": 0}, "norm_recovery.cases: expected a count"),
        ({"check": "gram_positivity", "size": 0}, "gram_positivity.size: expected a count"),
    ):
        with pytest.raises(ConfigError, match=re.escape(path)):
            run_config(broken(checks=[check]))
    with pytest.raises(ConfigError, match=re.escape("seed: expected an integer")):
        run_config(broken(seed=True))
    # a bool tolerance would run with tolerance 1.0
    with pytest.raises(ConfigError, match=re.escape("tolerance: expected a number, got True")):
        run_config(tiny_config(), tolerance=True)


def test_run_config_overrides_are_validated(tmp_path):
    # overrides go through the readers of the config fields they replace
    with pytest.raises(ConfigError, match=re.escape("seed: expected an integer, got True")):
        run_config(tiny_config(), seed=True)
    with pytest.raises(ConfigError, match=re.escape("truncation: expected an integer, got 2.7")):
        run_config(tiny_config(), truncation=2.7)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    out = tmp_path / "r.json"
    assert main(["model", "--config", str(p), "--seed", "3", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["runs"][0]["config"]["seed"] == 3


def test_check_table_matches_configs_and_models():
    named = {c["check"] for name in BUNDLED for c in load_config(name)["checks"]}
    named |= {c["check"] for kind in SIGMA_KINDS for c in builtin_car_config(kind)["checks"]}
    assert named <= set(CHECK_PARAMS)
    checks = {a[len("check_"):] for a in vars(models) if a.startswith("check_")}
    assert set(CHECK_PARAMS) == checks


# ---------------------------------------------------------------------------
# records and determinism


def test_run_config_record():
    rec = run_config(tiny_config())
    assert rec["name"] == "tiny"
    assert rec["summary"] == {"failed": 0, "passed": 2, "status": "pass", "total": 2}
    digest = rec["config"]["digest"]
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert rec["config"]["seed"] == 5
    car = rec["checks"][0]
    assert car["name"] == "car"
    assert car["status"] == "pass"
    # residuals round-trip through repr to the exact double
    assert float(car["residuals"]["free_max"]) == 0.0
    assert float(car["residuals"]["nonfree_min"]) > 0.1
    assert float(rec["checks"][1]["residuals"]["gap"]) == 1.0


def test_run_config_overrides_enter_digest():
    base = run_config(tiny_config())
    seeded = run_config(tiny_config(), seed=9)
    assert seeded["config"]["seed"] == 9
    assert seeded["config"]["digest"] != base["config"]["digest"]
    trunc = run_config(tiny_config(), truncation=2)
    assert trunc["config"]["truncation"] == 2
    assert trunc["config"]["digest"] != base["config"]["digest"]


def test_report_json_deterministic():
    grid = GridSpec(dimension=1, points_per_axis=3)
    a = report_json(assemble_report([run_config(tiny_config())], grid))
    b = report_json(assemble_report([run_config(tiny_config())], grid))
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema"] == SCHEMA
    assert parsed["summary"]["status"] == "pass"
    assert "conventions" in parsed


def test_report_text_shape():
    grid = GridSpec(dimension=1, points_per_axis=3)
    report = assemble_report([run_config(tiny_config())], grid)
    text = report_text(report, 0.25)
    assert "[PASS] car" in text
    assert "summary: 2 checks, 2 passed, 0 failed  [PASS]" in text
    assert "elapsed: 0.25 s" in text


# ---------------------------------------------------------------------------
# built-in batteries


@pytest.mark.parametrize("kind", SIGMA_KINDS)
def test_builtin_car_config_runs_on_its_bundled_model(kind):
    # the battery states no model of its own: it reads the scenario's
    model = load_config(MODEL_SCENARIOS[kind])
    cfg = builtin_car_config(kind)
    for key in ("schema", "grid", "sigma", "generators"):
        assert json.dumps(cfg[key], sort_keys=True) == json.dumps(model[key], sort_keys=True), key
    assert list(MODEL_SCENARIOS) == list(SIGMA_KINDS)


def test_builtin_car_configs():
    free = nonfree = 0
    for kind in SIGMA_KINDS:
        cfg = builtin_car_config(kind)
        assert cfg["schema"] == SCHEMA
        assert cfg["sigma"]["kind"] == kind
        car = cfg["checks"][0]
        assert car["check"] == "car"
        free += len(car["free"])
        nonfree += len(car["nonfree"])
        assert builtin_car_config(kind) == cfg
        assert builtin_car_config(kind, seed=8) != cfg
    assert free == 50
    assert nonfree == 10
    with pytest.raises(ConfigError, match="no built-in"):
        builtin_car_config("gauss")


# ---------------------------------------------------------------------------
# entry point


def test_main_model_run(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config()))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code = main(["model", "--config", str(cfg), "--format", "json", "--out", str(out1)])
    assert code == 0
    assert main(["model", "--config", str(cfg), "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["summary"]["status"] == "pass"
    assert report["runs"][0]["name"] == "tiny"


def test_main_reports_failure(tmp_path):
    # the designed violation listed as free must fail the run, exit 1
    cfg = tiny_config()
    car = cfg["checks"][0]
    car["free"].append(car.pop("nonfree")[0])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["model", "--config", str(p), "--format", "json", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["summary"]["status"] == "fail"
    assert report["runs"][0]["checks"][0]["witness"] is not None


def test_main_truncation_sets_only_the_random_case_depth(capsys):
    # every witness lives in the whole Fock space of h, so the truncation
    # moves only the three checks whose random cases it sizes
    random_cases = {"adjointness", "covariance", "norm_recovery"}
    records = {}
    for t in (1, 2, 3, 4):
        assert main(["all", "--seed", "1", "--truncation", str(t), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        records[t] = [
            [c for c in run["checks"] if c["name"] not in random_cases] for run in report["runs"]
        ]
    for t in (1, 2, 4):
        assert records[t] == records[3], t


def test_main_config_errors(tmp_path, capsys):
    assert main(["model", "--config", "missing_file.json"]) == 2
    err = capsys.readouterr().err
    assert "fockmod:" in err
    bad = tmp_path / "bad_schema.json"
    bad.write_text(json.dumps({"schema": "wrong"}))
    assert main(["model", "--config", str(bad)]) == 2
    capsys.readouterr()
    # a directory, or a file that is not UTF-8, is no readable config
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    for spec in (tmp_path, latin):
        assert main(["model", "--config", str(spec)]) == 2
        assert f"fockmod: {spec}: cannot read a UTF-8 file" in capsys.readouterr().err


def _main_exit(tmp_path, cfg) -> int:
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    return main(["model", "--config", str(p), "--format", "json", "--out", str(tmp_path / "r.json")])


@pytest.mark.parametrize(
    "check, label",
    (
        # wC sits where generator 0 acts, so it is no local vector
        ({"local": [["wC", 0]]}, ["local", 0]),
        # generator 1 leaves wA alone, so it witnesses nothing
        ({"local": [["wA", 0]], "witness": [["wA", 1]]}, ["witness", 1]),
    ),
)
def test_main_reports_relative_locality_failure(tmp_path, check, label):
    cfg = broken(checks=[{"check": "relative_locality", **check}])
    assert _main_exit(tmp_path, cfg) == 1
    record = json.loads((tmp_path / "r.json").read_text())["runs"][0]["checks"][0]
    assert record["status"] == "fail"
    witness = record["witness"]
    assert witness["pair"] == label and "residual" in witness
    # the commutator with wC is worst on the wedge of its charge-conjugate
    # partner, e_3; wA's residual 0 is reached first on the vacuum
    assert witness["witness_slots"] == {"local": [3], "witness": []}[label[0]]


@pytest.mark.parametrize(
    "patch, field",
    (
        ({"truncation": "abc"}, "truncation"),
        ({"seed": "x"}, "seed"),
        ({"checks": [{"check": "adjointness", "cases": "many"}]}, "adjointness.cases"),
        ({"checks": [{"check": "adjointness", "cases": True}]}, "adjointness.cases"),
        ({"truncation": True}, "truncation"),
        ({"grid": {"dimension": 1, "points": 3, "components": True}}, "grid.components"),
        ({"grid": {"dimension": 1, "points": "x"}}, "grid.points"),
        # int() would truncate these
        ({"seed": 1.5}, "seed"),
        ({"truncation": 2.7}, "truncation"),
        # int() would parse these strings
        ({"seed": "3"}, "seed"),
        ({"truncation": "3"}, "truncation"),
        ({"grid": {"dimension": 1, "points": "3"}}, "grid.points"),
        (
            {"vectors": {"wA": {"component": "0", "profile": {"shape": "point", "center": 2}}}},
            "vectors.wA.component",
        ),
    ),
)
def test_main_config_type_errors_exit_2(tmp_path, capsys, patch, field):
    assert _main_exit(tmp_path, broken(**patch)) == 2
    assert f"fockmod: {field}: expected an integer" in capsys.readouterr().err


def _set(path: tuple, value) -> dict:
    """tiny_config with the entry at path, a tuple of keys, set to value."""
    cfg = tiny_config()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


WA_CENTER = ("vectors", "wA", "profile", "center")
G1_AMPLITUDE = ("generators", 1, "s0", "amplitude")
G1_VALUES = ("generators", 1, "s1", "values")


@pytest.mark.parametrize(
    "cfg, message",
    (
        (_set(("generators", 0, "s0", "center"), None), "generators[0].s0.center: expected"),
        (
            _set(("vectors", "wA", "profile"), {"shape": "box", "center": 2, "width": None}),
            "vectors.wA.profile.width: expected",
        ),
        (_set(("generators", 1, "s0", "amplitude"), None), "generators[1].s0.amplitude: expected"),
        ([tiny_config()], "config: expected a JSON object"),
        ("tiny", "config: expected a JSON object"),
        (_set(("vectors",), [1]), "vectors: expected an object"),
        (_set(("vectors", "wA", "sector"), ["+"]), "vectors.wA.sector: use '+' or '-'"),
        # profile fields obey the integer and number rules of the other fields
        (_set(WA_CENTER, 2.7), "vectors.wA.profile.center: expected an integer"),
        (_set(WA_CENTER, "2"), "vectors.wA.profile.center: expected an integer"),
        (_set(("generators", 0, "s0", "center"), ["0"]), "generators[0].s0.center: expected"),
        (_set(G1_AMPLITUDE, "1.5"), "generators[1].s0.amplitude: expected a number"),
        (_set(G1_AMPLITUDE, True), "generators[1].s0.amplitude: expected a number"),
        (
            _set(("vectors", "wA", "profile"), {"shape": "box", "center": 2, "width": "2"}),
            "vectors.wA.profile.width: expected a number",
        ),
        # spacing and profile values obey the number rule too
        (_set(("grid", "spacing"), "2"), "grid.spacing: expected a number"),
        (_set(G1_VALUES, ["0", "0", "1.5"]), "generators[1].s1.values[0]: expected a number"),
        (_set(G1_VALUES, [True, False, True]), "generators[1].s1.values[0]: expected a number"),
        (_set(G1_VALUES, [[0.0], [0.0], [1.0]]), "generators[1].s1.values[0]: expected a number"),
        (_set(G1_VALUES, None), "generators[1].s1.values: expected a list of numbers"),
    ),
    ids=(
        "null_center",
        "null_width",
        "null_amplitude",
        "list_config",
        "string_config",
        "vectors_list",
        "sector_list",
        "fractional_center",
        "string_center",
        "string_center_entry",
        "string_amplitude",
        "bool_amplitude",
        "string_width",
        "string_spacing",
        "string_values",
        "bool_values",
        "nested_values",
        "null_values",
    ),
)
def test_main_malformed_config_exits_2(tmp_path, capsys, cfg, message):
    assert _main_exit(tmp_path, cfg) == 2
    assert f"fockmod: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "angle", (float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="huge_int"))
)
def test_main_nonfinite_angle_exits_2(tmp_path, capsys, angle):
    cfg = broken(checks=[{"check": "gauge_invariance", "angles": [0.7, angle]}])
    assert _main_exit(tmp_path, cfg) == 2
    assert "gauge_invariance.angles[1]: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("spacing", (float("nan"), float("inf"), True))
def test_main_nonfinite_spacing_exits_2(tmp_path, capsys, spacing):
    cfg = tiny_config()
    cfg["grid"]["spacing"] = spacing
    assert _main_exit(tmp_path, cfg) == 2
    assert "spacing" in capsys.readouterr().err


def test_main_nonfinite_profile_exits_2(tmp_path, capsys):
    cfg = tiny_config()
    cfg["generators"][0]["s0"]["amplitude"] = float("nan")
    assert _main_exit(tmp_path, cfg) == 2
    assert "generators[0].s0.amplitude: expected a finite number" in capsys.readouterr().err
    cfg = tiny_config()
    cfg["vectors"]["wA"]["profile"] = {"shape": "values", "values": [0.0, 0.0, float("inf")]}
    assert _main_exit(tmp_path, cfg) == 2
    assert "vectors.wA.profile.values[2]: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ("0", "-1", "nan", "inf"))
def test_main_rejects_bad_tolerance(tmp_path, capsys, tolerance):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    assert main(["model", "--config", str(p), f"--tolerance={tolerance}"]) == 2
    assert "tolerance" in capsys.readouterr().err


_OBSERVABLES = [{"generator": 0, "w1": "wFar", "w2": "wFar"}]


@pytest.mark.parametrize(
    "check",
    [
        {"check": "car", "free": [], "nonfree": []},
        {"check": "relative_locality", "local": [], "witness": []},
        {"check": "bilinear_locality"},
        {"check": "anticommutator_model", "pairs": []},
        {"check": "observable_net"},
        {"check": "observable_net", "observables": _OBSERVABLES, "disjoint": []},
        {"check": "gauge_invariance"},
        {"check": "gauge_invariance", "observables": _OBSERVABLES, "angles": []},
        {"check": "covariance_phase", "pairs": []},
        {"check": "neutral_commutant"},
        {"check": "mutual_freeness", "free": [], "nonfree": []},
    ],
    ids=lambda check: "-".join([check["check"], *sorted(k for k in check if k != "check")]),
)
def test_main_check_with_nothing_to_test_exits_2(tmp_path, capsys, check):
    # a check whose config gives it no case would report a vacuous pass
    cfg = load_config("delta_locality")
    cfg["checks"] = [check]
    assert _main_exit(tmp_path, cfg) == 2
    assert f"fockmod: {check['check']}: nothing to test" in capsys.readouterr().err


def test_main_observable_net_self_pair_exits_2(tmp_path, capsys):
    # an observable commutes with itself, so the pair [0, 0] would pass
    # with max 0.0 on an operator that vanishes
    cfg = load_config("lebesgue_gauge")
    net = next(c for c in cfg["checks"] if c["check"] == "observable_net")
    cfg["checks"] = [dict(net, disjoint=[[0, 0]])]
    assert _main_exit(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "fockmod: observable_net.disjoint[0]: expected a valid index pair of two different" in err


MINUS = [["wM", [0, 0]]]


@pytest.mark.parametrize(
    "check, field",
    (
        ({"check": "relative_locality", "local": [["wM", 1]]}, "relative_locality.local[0][0]"),
        ({"check": "bilinear_locality", "commuting": [[1, "wA", "wM"]]}, "bilinear_locality.commuting[0][2]"),
        (
            {"check": "anticommutator_model", "pairs": [[[["wA", [0, 0]]], MINUS]]},
            "anticommutator_model.pairs[0][1][0]",
        ),
        (
            {
                "check": "observable_net",
                "observables": [{"w1": "wM", "w2": "wM"}, {"generator": 0, "w1": "wB", "w2": "wB"}],
                "disjoint": [[0, 1]],
            },
            "observable_net.observables[0].w1",
        ),
        ({"check": "gauge_invariance", "observables": [{"w1": "wA", "w2": "wM"}]}, "gauge_invariance.observables[0].w2"),
        ({"check": "covariance_phase", "pairs": [["wM", 1]]}, "covariance_phase.pairs[0][0]"),
        ({"check": "neutral_commutant", "pairs": [["wM", 0]]}, "neutral_commutant.pairs[0][0]"),
    ),
    ids=(
        "relative_locality",
        "bilinear_locality",
        "anticommutator_model",
        "observable_net",
        "gauge_invariance",
        "covariance_phase",
        "neutral_commutant",
    ),
)
def test_main_minus_sector_matter_field_exits_2(tmp_path, capsys, check, field):
    # the matter field psi(w) takes + sector vectors alone; a - sector one
    # is refused before the first check runs, naming the field
    cfg = load_config("lebesgue_gauge")
    cfg["vectors"]["wM"] = {"sector": "-", "component": 0, "profile": {"shape": "point", "center": 7}}
    cfg["checks"] = [cfg["checks"][0], check]
    assert _main_exit(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert f"fockmod: {field}: vector 'wM' has a '-' sector entry" in err
    assert not (tmp_path / "r.json").exists()


def test_main_car_and_mutual_freeness_take_both_sectors(tmp_path):
    cfg = load_config("lebesgue_gauge")
    cfg["vectors"]["wM"] = {"sector": "-", "component": 0, "profile": {"shape": "point", "center": 7}}
    pair = [[["wA", [0, 0]]], MINUS]
    cfg["checks"] = [{"check": "car", "free": [pair]}, {"check": "mutual_freeness", "free": [pair]}]
    assert _main_exit(tmp_path, cfg) == 0


@pytest.mark.parametrize(
    "profile",
    (
        {"shape": "zero"},
        {"shape": "point", "center": 2, "amplitude": 0.0},
        {"shape": "values", "values": [0.0, 0.0, 0.0]},
    ),
    ids=("zero", "amplitude-0", "values-0"),
)
def test_main_zero_vector_exits_2(tmp_path, capsys, profile):
    # a zero vector is local to every generator and free with every
    # vector, so relative_locality and car would pass with 0.0 on it
    cfg = tiny_config()
    cfg["vectors"]["wA"]["profile"] = profile
    cfg["checks"] = [{"check": "relative_locality", "local": [["wA", 0]]}]
    assert _main_exit(tmp_path, cfg) == 2
    assert "fockmod: vectors.wA.profile: no nonzero entry" in capsys.readouterr().err


def test_main_zero_term_sum_exits_2(tmp_path, capsys):
    # wA - wA as a car free partner of wB: the free pair would pass with 0.0
    cfg = tiny_config()
    cfg["vectors"]["wN"] = {"profile": {"shape": "point", "center": 2, "amplitude": -1.0}}
    zero = [["wA", [0, 0]], ["wN", [0, 0]]]
    cfg["checks"] = [{"check": "car", "free": [[zero, [["wB", [0, 0]]]]]}]
    assert _main_exit(tmp_path, cfg) == 2
    assert "fockmod: car.free[0][0]: the terms sum to the zero vector" in capsys.readouterr().err


def _count_checks(monkeypatch) -> list:
    """Wrap every models.check_* so that each call is recorded."""
    calls = []
    for name in [n for n in vars(models) if n.startswith("check_")]:
        fn = getattr(models, name)
        monkeypatch.setattr(models, name, lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
    return calls


def test_main_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config()))
    calls = _count_checks(monkeypatch)
    missing = tmp_path / "missing" / "x.json"
    for argv in (["model", "--config", str(cfg)], ["verify-car"]):
        assert main(argv + ["--out", str(missing)]) == 2
        assert f"fockmod: cannot write {missing}: " in capsys.readouterr().err
    # a directory that cannot be made, or a path naming a directory, is
    # seen before any check runs
    assert main(["model", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"fockmod: cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
    assert calls == []
    # no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.json"]
    # a report replaces an existing file only whole, and leaves no other
    out = tmp_path / "r.json"
    out.write_text("old")
    assert main(["model", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["status"] == "pass"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "tiny.json"]
    assert calls


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"check": "gauge_invariance", "angles": []}, "gauge_invariance: nothing to test"),
        ({"check": "no_such_check"}, "unknown check 'no_such_check'"),
    ],
)
def test_main_parses_every_check_before_any_runs(tmp_path, capsys, monkeypatch, extra, message):
    cfg = load_config("delta_locality")
    cfg["checks"] = cfg["checks"] + [extra]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    calls = _count_checks(monkeypatch)
    assert main(["model", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "patch, message",
    (
        # read as written, the misspelt key would drop the failing local
        # pair, and the check would pass on its witness alone
        (
            {"checks": [{"check": "relative_locality", "locals": [["wIn", 0]], "witness": [["wIn", 0]]}]},
            "checks[0] (relative_locality): unknown key 'locals' (known: check, local, witness)",
        ),
        ({"checks": [{"check": "adjointness", "case": 5}]}, "checks[0] (adjointness): unknown key 'case'"),
        (
            {
                "checks": [
                    {"check": "bilinear_locality", "commutng": [[0, "wIn", "wIn"]], "witness": [[0, "wIn", "wFar"]]}
                ]
            },
            "checks[0] (bilinear_locality): unknown key 'commutng'",
        ),
        ({"stat": "quasifree"}, "config: unknown key 'stat'"),
        ({"name": 3}, "name: expected a string, got 3"),
    ),
    ids=("locals", "case", "commutng", "stat", "name"),
)
def test_main_unknown_key_exits_2(tmp_path, capsys, patch, message):
    cfg = load_config("delta_locality")
    cfg.update(patch)
    assert _main_exit(tmp_path, cfg) == 2
    assert f"fockmod: {message}" in capsys.readouterr().err


def _misspell(path: tuple, key: str, value, drop: str | None = None):
    """Patch of a config: the object at path, a tuple of keys, gains key
    with value, and loses drop (the key it misspells) if given."""

    def patch(cfg):
        node = cfg
        for step in path:
            node = node[step]
        node.pop(drop, None)
        node[key] = value

    return patch


_VALUES_7 = {"shape": "values", "values": [0.0] * 7 + [1.0] + [0.0] * 8}


@pytest.mark.parametrize(
    "patch, message",
    (
        # each would run as if the key were absent, and the run would pass
        (_misspell(("grid",), "pionts", 8), "grid: unknown key 'pionts'"),
        (
            _misspell(("checks", 4, "observables", 0), "generatr", 0, drop="generator"),
            "observable_net.observables[0]: unknown key 'generatr'",
        ),
        (_misspell(("vectors", "wIn12"), "sectr", "-", drop="sector"), "vectors.wIn12: unknown key 'sectr'"),
        (_misspell(("sigma",), "radius", 2.0), "sigma: unknown key 'radius' (known: kind)"),
        (
            _misspell(("generators", 1), "s2", {"shape": "point", "center": 12}),
            "generators[1]: unknown key 's2' (known: s0, s1)",
        ),
        (_misspell(("vectors", "wFar", "profile"), "width", 3.0), "vectors.wFar.profile: unknown key 'width'"),
        (
            _misspell(("vectors", "wFar"), "profile", dict(_VALUES_7, amplitude=2.0)),
            "vectors.wFar.profile: unknown key 'amplitude' (known: shape, values)",
        ),
    ),
    ids=("grid", "observable", "vector", "sigma", "generator", "point_profile", "values_profile"),
)
def test_main_unknown_nested_key_exits_2(tmp_path, capsys, patch, message):
    cfg = load_config("delta_locality")
    patch(cfg)
    assert _main_exit(tmp_path, cfg) == 2
    assert f"fockmod: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    (
        # 2^63 points: numpy cannot index the array
        {"dimension": 3, "points": 2**21},
        # 2^62 points: the byte count overflows
        {"dimension": 2, "points": 2**31},
        {"dimension": 100000, "points": 2},
    ),
    ids=("index", "bytes", "dimension"),
)
def test_main_grid_too_large_exits_2(tmp_path, capsys, grid):
    # sizes numpy refuses before it allocates anything
    cfg = load_config("delta_locality") | {"grid": grid}
    assert _main_exit(tmp_path, cfg) == 2
    assert "fockmod: grid: " in capsys.readouterr().err


def test_main_reports_state_and_truncation_as_read(tmp_path):
    # the report echoes the values the run used, defaults included
    cfg = tiny_config()
    del cfg["state"], cfg["truncation"]
    assert _main_exit(tmp_path, cfg) == 0
    echoed = json.loads((tmp_path / "r.json").read_text())["runs"][0]["config"]
    assert (echoed["state"], echoed["truncation"]) == ("tracial", 3)
    # an integral float is read as the integer it is
    cfg["truncation"] = 2.0
    assert _main_exit(tmp_path, cfg) == 0
    assert '"truncation": 2\n' in (tmp_path / "r.json").read_text()


@pytest.mark.parametrize("truncation", ["3", "4"])
def test_main_one_point_grid_random_checks(tmp_path, capsys, truncation):
    # dim 2 holds no wedge above level 2 and no three distinct sites
    cfg = {
        "schema": SCHEMA,
        "grid": {"points": 1},
        "sigma": {"kind": "delta"},
        "generators": [{"s0": {"shape": "values", "values": [0.5]}}],
        "checks": [{"check": "adjointness"}, {"check": "norm_recovery"}, {"check": "covariance"}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg))
    assert main(["model", "--config", str(path), "--truncation", truncation, "--format", "json"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    checks = json.loads(out.out)["runs"][0]["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("adjointness", "pass"),
        ("norm_recovery", "pass"),
        ("covariance", "pass"),
    ]


def test_main_usage_errors():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["model"])
    with pytest.raises(SystemExit):
        main(["model", "--config", "x", "--format", "yaml"])


def test_main_text_output(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config()))
    assert main(["model", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "schema fockmod/1" in out


def test_main_bundled_scenario(tmp_path):
    out = tmp_path / "leb.json"
    code = main(
        ["model", "--config", "lebesgue_gauge", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["status"] == "pass"
    names = [c["name"] for c in report["runs"][0]["checks"]]
    assert "covariance_phase" in names and "neutral_commutant" in names
