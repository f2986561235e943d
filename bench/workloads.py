"""Benchmark workloads: seeded input generators and the timed runs.

Each workload has two halves.  ``inputs(seed)`` builds plain data (argv
lists, scenario config dicts, numpy arrays) and is part of set-up time.
``run(inputs)`` is the timed region: it drives fockmod only through its
public entry points and returns a ``Outcome`` holding every check
status it saw.  The timed half calls fockmod through module attributes
(``models.check_car``, ``cli.run_config``), never through names bound
at import time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from fockmod import bimodule, cli, models, weyl


@dataclass
class Outcome:
    """Check statuses of one workload run plus the digest of its report."""

    statuses: list[tuple[str, str]]
    digest: str

    @property
    def attempted(self) -> int:
        return len(self.statuses)

    @property
    def failed(self) -> int:
        return sum(1 for _, status in self.statuses if status != "pass")


def _report_outcome(text: str) -> Outcome:
    report = json.loads(text)
    statuses = [(c["name"], c["status"]) for r in report["runs"] for c in r["checks"]]
    if report["summary"]["total"] != len(statuses):
        raise ValueError("report summary does not match its check records")
    return Outcome(statuses, hashlib.sha256(text.encode()).hexdigest())


# ---------------------------------------------------------------------------
# battery: the full `fockmod all` run


def battery_inputs(seed: int) -> list[str]:
    return ["all", "--seed", str(seed), "--format", "json"]


def battery_run(argv: list[str]) -> Outcome:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = _report_outcome(buf.getvalue())
    if code != (1 if out.failed else 0):
        raise RuntimeError(f"fockmod exited with {code} for {out.failed} failed checks")
    return out


# ---------------------------------------------------------------------------
# grid_scale: generated 2D and 3D scenarios with bounded witness sets

# (name, dimension, points per axis, spinor components, sigma kind)
GRID_SCENARIOS = (
    ("poisson_2d", 2, 16, 2, "poisson"),
    ("bump_3d", 3, 8, 1, "bump"),
)
BUMP_RADIUS = 2.0
# The pauli check looks for two sites whose phases differ by more than 0.5
# and needs the resulting twisted wedge to keep a norm above 0.1, so the
# phase at a source site is drawn from this band, well below pi.
PHASE_BAND = (1.0, 1.4)


def _kernel(kind: str, dimension: int, rho: float) -> float:
    """The library's kernel at distance rho (spacing 1), for amplitude design.

    A copy rather than a call into fockmod, so that a seed gives the same
    inputs on every commit being compared.
    """
    if kind == "bump":
        if rho >= BUMP_RADIUS:
            return 0.0
        x = rho / BUMP_RADIUS
        return math.exp(1.0 - 1.0 / (1.0 - x * x))
    if dimension == 2:
        return (math.log(0.5) - 0.5) / (2 * math.pi) if rho == 0 else math.log(rho) / (2 * math.pi)
    return 3.0 / (4 * math.pi) if rho == 0 else 1.0 / (4 * math.pi * rho)


def _point(coords) -> dict:
    return {"shape": "point", "center": list(coords), "amplitude": 1.0}


def _zero_set(kind: str, points: int, dimension: int, gen: dict) -> list[tuple]:
    """Grid points where the generator's phase is exactly zero.

    poisson: a dipole +A at p, -A at p + 2 e_axis; every point of the
    mid-plane is equidistant from both charges, so the two kernel values
    are the same double and cancel exactly, however long-range the kernel.
    bump: every point at distance >= radius from the single source.
    """
    out = []
    for x in np.ndindex(*(points,) * dimension):
        if kind == "poisson":
            if x[gen["axis"]] == gen["at"][gen["axis"]] + 1:
                out.append(x)
        elif math.dist(x, gen["at"]) >= BUMP_RADIUS:
            out.append(x)
    return out


def _grid_generator(rng: random.Random, kind: str, dimension: int, points: int, axis: int, region: range) -> dict:
    at = [rng.choice(region) for _ in range(dimension)]
    phase = rng.uniform(*PHASE_BAND)
    if kind == "poisson":
        # phase at the + charge: A (k(0) - k(2))
        amp = phase / abs(_kernel(kind, dimension, 0.0) - _kernel(kind, dimension, 2.0))
    else:
        amp = phase / _kernel(kind, dimension, 0.0)
    return {"at": tuple(at), "axis": axis, "amp": amp}


def _grid_scenario(seed: int, name: str, dimension: int, points: int, components: int, kind: str) -> dict:
    rng = random.Random(f"{seed}:grid_scale:{name}")
    n_points = points**dimension
    # The two sources sit in opposite corners of the grid, so each one's
    # zero set holds sites next to the other source.
    lo, hi = range(1, points // 2 - 1), range(points // 2, points - 3)
    gens = [
        _grid_generator(rng, kind, dimension, points, 0, lo),
        _grid_generator(rng, kind, dimension, points, dimension - 1, hi),
    ]
    profiles = []
    sources = set()
    for g in gens:
        vals = [0.0] * n_points
        vals[int(np.ravel_multi_index(g["at"], (points,) * dimension))] = g["amp"]
        sources.add(g["at"])
        if kind == "poisson":
            minus = list(g["at"])
            minus[g["axis"]] += 2
            vals[int(np.ravel_multi_index(minus, (points,) * dimension))] = -g["amp"]
            sources.add(tuple(minus))
        profiles.append({"s0": {"shape": "values", "values": vals}})
    zeros = [
        [x for x in _zero_set(kind, points, dimension, g) if x not in sources] for g in gens
    ]
    # calm is left alone by both generators (in 2D poisson the two
    # mid-lines cross in a single point), quiet0 by generator 0, quiet1
    # by generator 1
    calm = rng.choice(sorted(set(zeros[0]) & set(zeros[1])))
    quiet1 = rng.choice([x for x in zeros[1] if x != calm])
    quiet0, quiet0b = rng.sample([x for x in zeros[0] if x not in (calm, quiet1)], 2)

    def vec(at) -> dict:
        return {"sector": "+", "component": rng.randrange(components), "profile": _point(at)}

    vectors = {
        "wQ1": vec(quiet1),
        "wQ0": vec(quiet0),
        "wQ0b": vec(quiet0b),
        "wCalm": vec(calm),
        "wIn0": vec(gens[0]["at"]),
        "wIn1": vec(gens[1]["at"]),
    }
    observables = [
        {"generator": 0, "w1": "wQ1", "w2": "wQ1"},
        {"generator": 1, "w1": "wQ0", "w2": "wQ0"},
        {"generator": None, "w1": "wCalm", "w2": "wCalm"},
    ]
    sigma = {"kind": kind}
    if kind == "bump":
        sigma["radius"] = BUMP_RADIUS
    return {
        "schema": cli.SCHEMA,
        "name": f"grid_scale_{name}",
        "grid": {"dimension": dimension, "points": points, "spacing": 1.0, "components": components},
        "sigma": sigma,
        "state": "tracial",
        "truncation": 3,
        "seed": seed,
        "generators": profiles,
        "vectors": vectors,
        "checks": [
            {
                "check": "mutual_freeness",
                "free": [
                    [[["wQ1", [1, 0]]], [["wQ0", [0, 1]]]],
                    [[["wQ1", [1, 0]]], [["wQ0b", [0, 0]]]],
                    [[["wCalm", [1, 1]]], [["wCalm", [0, 1]]]],
                ],
                "nonfree": [
                    [[["wIn0", [1, 0]]], [["wIn0", [0, 0]]]],
                    [[["wIn1", [0, 1]]], [["wIn1", [0, 0]]]],
                ],
            },
            {
                "check": "relative_locality",
                "local": [["wQ0", 0], ["wQ0b", 0], ["wQ1", 1], ["wCalm", 0]],
                "witness": [["wIn0", 0], ["wIn1", 1]],
            },
            {"check": "observable_net", "observables": observables, "disjoint": [[0, 1], [0, 2], [1, 2]]},
            {
                "check": "gauge_invariance",
                "observables": observables,
                "angles": [round(rng.uniform(0.1, 6.2), 6) for _ in range(2)],
            },
            {"check": "nonfock"},
            {"check": "pauli"},
        ],
    }


def grid_scale_inputs(seed: int) -> list[dict]:
    return [_grid_scenario(seed, *spec) for spec in GRID_SCENARIOS]


def grid_scale_run(configs: list[dict]) -> Outcome:
    runs = [cli.run_config(c) for c in configs]
    g = configs[0]["grid"]
    grid = weyl.GridSpec(g["dimension"], g["points"], g["spacing"], g["components"])
    report = cli.assemble_report(runs, grid)
    return _report_outcome(cli.report_json(report))


# ---------------------------------------------------------------------------
# dense_twist: a rotated, non-diagonal twist on a small 1D grid

DENSE_POINTS = 8
DENSE_TRUNCATION = 3
DENSE_CASES = {"adjointness": 60, "covariance": 12, "norm_recovery": 20}
# the W(n) labels of the CAR pairs are fixed, so that the seed draws the
# vectors and the twist but not the amount of work
DENSE_FREE_LABEL = (1, 1)
DENSE_NONFREE_LABEL = (1, 0)
# seeds of the library's own case draws in check_adjointness,
# check_covariance and check_norm_recovery; the cases differ in size
# (covariance took 1.2-1.9 s over seeds 1-6 when they were drawn from
# the workload's seed), so they are fixed and the seed draws the data
# the cases run on: the generators, the twist and the CAR vectors
DENSE_CASE_SEEDS = (11, 12, 13)


def dense_twist_inputs(seed: int) -> dict:
    """Generators, a rotation V and CAR pair vectors, drawn from the seed.

    The delta model gives phases exp(-i s0); s0 vanishes on three quiet
    sites, so V e_q is left fixed by every u(n) once the twist is rotated
    to V diag V* on the + block (conj(V) on the - block, which keeps it
    commuting with charge conjugation).  Free CAR pairs are built from
    those fixed vectors, non-free pairs from V e_i on an active site.
    """
    rng = np.random.default_rng(random.Random(f"{seed}:dense_twist").getrandbits(128))
    p = DENSE_POINTS
    quiet = sorted(int(q) for q in rng.choice(p, 3, replace=False))
    active = [i for i in range(p) if i not in quiet]
    s0 = np.zeros((2, p))
    for k in range(2):
        s0[k, active] = rng.uniform(0.6, 1.8, len(active)) * rng.choice([-1.0, 1.0], len(active))
    s1 = np.zeros((2, p))
    s1[0, rng.choice(active)] = rng.uniform(0.2, 0.5)
    s1[1, rng.choice(active)] = -rng.uniform(0.2, 0.5)
    z = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    v, r = np.linalg.qr(z)
    v = v * (np.diag(r) / np.abs(np.diag(r)))
    free = []
    for left in (True, False):
        # one side of each free pair carries W(0): with W(n) on both sides
        # a single pair costs four times the rest of the workload
        q1, q2 = (int(q) for q in rng.choice(quiet, 2, replace=False))
        n = DENSE_FREE_LABEL
        free.append(((q1, n), (q2, (0, 0))) if left else ((q1, (0, 0)), (q2, n)))
    i = int(rng.choice(active))
    nonfree = [((i, DENSE_NONFREE_LABEL), (i, (0, 0)))]
    return {
        "s0": s0,
        "s1": s1,
        "rotation": v,
        "free": free,
        "nonfree": nonfree,
    }


def dense_twist_context(inputs: dict) -> models.ModelContext:
    """Delta-model context whose twist is rotated by the input's V."""
    grid = weyl.GridSpec(1, DENSE_POINTS, 1.0, 1)
    pairs = [weyl.TestFunctionPair(grid, a, b) for a, b in zip(inputs["s0"], inputs["s1"])]
    ctx = models.build_context("delta", grid, pairs, "tracial", DENSE_TRUNCATION)
    v = inputs["rotation"]
    rot = np.zeros((2 * DENSE_POINTS, 2 * DENSE_POINTS), dtype=complex)
    rot[:DENSE_POINTS, :DENSE_POINTS] = v
    rot[DENSE_POINTS:, DENSE_POINTS:] = v.conj()
    basis, gens = ctx.module.basis, ctx.gens
    twist = bimodule.Twist(basis, gens, [rot @ u @ rot.conj().T for u in ctx.module.twist.unitaries])
    return dataclasses.replace(ctx, module=bimodule.FreeBimodule(basis, gens, twist))


def dense_twist_run(inputs: dict) -> Outcome:
    ctx = dense_twist_context(inputs)
    rot = inputs["rotation"]

    def vector(site: int, n) -> bimodule.ModuleVector:
        vec = bimodule.OneParticleVector(ctx.module.basis, dict(enumerate(rot[:, site])))
        return ctx.module.embed(vec, weyl.WeylElement.monomial(ctx.gens, n))

    pairs = [(vector(*f), vector(*g), True) for f, g in inputs["free"]]
    pairs += [(vector(*f), vector(*g), False) for f, g in inputs["nonfree"]]
    seed_adj, seed_cov, seed_norm = DENSE_CASE_SEEDS
    results = [
        models.check_adjointness(ctx, seed_adj, DENSE_CASES["adjointness"]),
        models.check_covariance(ctx, seed_cov, DENSE_CASES["covariance"]),
        models.check_norm_recovery(ctx, seed_norm, DENSE_CASES["norm_recovery"]),
        models.check_car(ctx, pairs),
    ]
    blob = json.dumps(
        [[r.name, r.status, {k: repr(float(x)) for k, x in sorted(r.residuals.items())}] for r in results]
    )
    return Outcome([(r.name, r.status) for r in results], hashlib.sha256(blob.encode()).hexdigest())


WORKLOADS = {
    "battery": (battery_inputs, battery_run),
    "grid_scale": (grid_scale_inputs, grid_scale_run),
    "dense_twist": (dense_twist_inputs, dense_twist_run),
}
