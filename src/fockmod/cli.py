"""Verification runner behind the fockmod console script.

Reads a scenario config (JSON, schema fockmod/1), builds the model
context it describes, runs the named checks and emits a report.  One
table, CHECK_PARAMS, maps each check name to the parsers of its
parameters.  Every check of a config is parsed before the first one
runs; models.check_<name> is looked up by name when it runs.  JSON
reports are byte-identical for identical config and seed: keys are
sorted, residuals are serialized through repr so they round-trip to the
exact double, and no timing data enters the payload (the text format
prints the wall time instead).

Exit codes: 0 all checks passed, 1 at least one check failed (the
report is still written), 2 configuration or usage error, or a report
that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import sys
import tempfile
import time
import zlib
from importlib import resources

import numpy as np

from . import __version__
from .weyl import GridSpec, State, TestFunctionPair, WeylElement
from .bimodule import SECTOR_MINUS, SECTOR_PLUS, ModuleVector
from . import models
from .models import (
    CheckResult,
    ModelContext,
    SIGMA_KINDS,
    build_context,
)

SCHEMA = "fockmod/1"
# sigma kind -> its bundled scenario, whose grid, sigma and generators the
# built-in CAR battery of that kind runs on
MODEL_SCENARIOS = {
    "delta": "delta_locality",
    "bump": "bump_freeness",
    "poisson": "poisson_nonlocal",
    "lebesgue": "lebesgue_gauge",
}
BUNDLED = (*MODEL_SCENARIOS.values(), "car_suite")


class ConfigError(Exception):
    """Anything wrong with a scenario config or its use."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value, where: str) -> int:
    """value as an int, or a ConfigError naming the field; a float must be
    integral, since int() would truncate it, and a string is refused."""
    if not (_is_int(value) or (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _real(value, where: str, positive: bool = False) -> float:
    """value as a finite float, or a ConfigError naming the field; a bool,
    a string or a list is refused, and with positive so is a value <= 0."""
    # each message is built only on failure: a profile holds thousands of values
    if not (_is_int(value) or isinstance(value, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    # the bound fails for NaN and inf, and for an int no float can hold
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{where}: expected a positive number, got {value!r}")
    return float(value)


def _object(value, where: str, keys) -> dict:
    """value, which must be a JSON object with no key outside keys: a key
    that nothing reads is refused, so that a misspelt one cannot pass."""
    _require(isinstance(value, dict), f"{where}: expected a JSON object")
    unknown = [repr(k) for k in value if k not in keys]
    if unknown:
        raise ConfigError(
            f"{where}: unknown key{'s' * (len(unknown) > 1)} {', '.join(unknown)} "
            f"(known: {', '.join(sorted(keys))})"
        )
    return value


# ---------------------------------------------------------------------------
# config loading and scenario assembly


def load_config(spec: str) -> dict:
    """Load a config from a path or a bundled scenario name."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{spec}: invalid JSON ({e})") from e
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"{spec}: cannot read a UTF-8 file ({e})") from e
    name = spec[:-5] if spec.endswith(".json") else spec
    if name in BUNDLED:
        data = resources.files("fockmod.configs").joinpath(name + ".json").read_text()
        return json.loads(data)
    raise ConfigError(
        f"config {spec!r} is neither a file nor a bundled scenario "
        f"(bundled: {', '.join(BUNDLED)})"
    )


def _parse_grid(d: dict) -> GridSpec:
    _object(d, "grid", ("dimension", "points", "spacing", "components"))
    dimension = _int(d.get("dimension", 1), "grid.dimension")
    points = _int(d.get("points", 16), "grid.points")
    components = _int(d.get("components", 1), "grid.components")
    spacing = _real(d.get("spacing", 1.0), "grid.spacing", positive=True)
    try:
        return GridSpec(
            dimension=dimension,
            points_per_axis=points,
            spacing=spacing,
            components=components,
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"grid: {e}") from e


# profile shape -> the keys of a profile of that shape
_PROFILE_KEYS = {
    "zero": ("shape",),
    "values": ("shape", "values"),
    "point": ("shape", "center", "amplitude"),
    "box": ("shape", "center", "amplitude", "width"),
    "bump": ("shape", "center", "amplitude", "width"),
}


def _parse_profile(grid: GridSpec, spec, what: str) -> np.ndarray:
    """Real grid profile from a named shape or raw values.  A point, box
    or bump sits at center, a point index or one coordinate per axis
    (default: the middle index on every axis)."""
    _require(isinstance(spec, dict), f"{what}: expected a JSON object")
    shape = spec.get("shape", "values")
    _require(
        isinstance(shape, str) and shape in _PROFILE_KEYS,
        f"{what}.shape: unknown shape {shape!r} (known: {', '.join(_PROFILE_KEYS)})",
    )
    _object(spec, what, _PROFILE_KEYS[shape])
    try:  # the grid's first array: numpy refuses a size it cannot index or allocate
        out = np.zeros(grid.n_points)
    except (MemoryError, ValueError) as e:
        raise ConfigError(f"grid: {grid.points_per_axis}^{grid.dimension} points are too many: {e}") from e
    if shape == "zero":
        return out
    if shape == "values":
        values = spec.get("values")
        _require(
            isinstance(values, list) and len(values) == grid.n_points,
            f"{what}.values: expected a list of numbers, {grid.n_points} of them",
        )
        return np.array([_real(x, f"{what}.values[{i}]") for i, x in enumerate(values)])
    amp = _real(spec.get("amplitude", 1.0), f"{what}.amplitude")
    center = spec.get("center", grid.points_per_axis // 2)
    axes = center if isinstance(center, list) else [center] * grid.dimension
    coords = tuple(_int(c, f"{what}.center") for c in axes)
    _require(
        len(coords) == grid.dimension and all(0 <= c < grid.points_per_axis for c in coords),
        f"{what}.center: {center!r} is no point of the grid",
    )
    if shape == "point":
        out[grid.index(coords)] = amp
        return out
    width = _real(spec.get("width", 1.0), f"{what}.width", positive=True)
    for i in range(grid.n_points):
        dist = grid.spacing * math.sqrt(sum((a - b) ** 2 for a, b in zip(grid.coords(i), coords)))
        if shape == "box":
            if dist <= width / 2.0 + 1e-12:
                out[i] = amp
        else:
            x = dist / (width / 2.0)
            if x < 1.0:
                out[i] = amp * math.exp(1.0 - 1.0 / (1.0 - x * x))
    return out


def _parse_generators(grid: GridSpec, lst) -> list[TestFunctionPair]:
    _require(isinstance(lst, list) and lst, "generators: need a nonempty list")
    out = []
    for i, g in enumerate(lst):
        _object(g, f"generators[{i}]", ("s0", "s1"))
        _require("s0" in g, f"generators[{i}]: need s0")
        s0 = _parse_profile(grid, g["s0"], f"generators[{i}].s0")
        s1 = _parse_profile(grid, g.get("s1", {"shape": "zero"}), f"generators[{i}].s1")
        out.append(TestFunctionPair(grid, s0, s1))
    return out


_SECTORS = {"+": SECTOR_PLUS, "-": SECTOR_MINUS}

# the top-level keys of a config; any other is refused
_CONFIG_KEYS = frozenset(
    {"schema", "name", "grid", "sigma", "state", "truncation", "seed", "generators", "vectors", "checks"}
)


def build_scenario(config: dict):
    """Context plus named plain module vectors from a validated config."""
    _object(config, "config", _CONFIG_KEYS)
    _require(
        config.get("schema") == SCHEMA,
        f"config: schema must be {SCHEMA!r}, got {config.get('schema')!r}",
    )
    grid = _parse_grid(config.get("grid", {}))
    sigma = config.get("sigma")
    # the bump kernel alone reads a radius
    bump = isinstance(sigma, dict) and sigma.get("kind") == "bump"
    kind = _object(sigma, "sigma", ("kind", "radius") if bump else ("kind",)).get("kind")
    _require(kind in SIGMA_KINDS, f"sigma.kind: {kind!r} not in {SIGMA_KINDS}")
    radius = _real(sigma.get("radius"), "sigma.radius", positive=True) if bump else None
    state = config.get("state", "tracial")
    _require(state in State.KINDS, f"state: {state!r} not in {State.KINDS}")
    truncation = _int(config.get("truncation", 3), "truncation")
    _require(1 <= truncation <= 4, "truncation: expected 1..4 at desk scale")
    gen_pairs = _parse_generators(grid, config.get("generators"))
    try:
        ctx = build_context(kind, grid, gen_pairs, state, truncation, radius)
    except ValueError as e:
        raise ConfigError(f"model construction failed: {e}") from e
    specs = config.get("vectors") or {}
    _require(isinstance(specs, dict), "vectors: expected an object")
    vectors: dict[str, ModuleVector] = {}
    for name, vs in specs.items():
        _object(vs, f"vectors.{name}", ("sector", "component", "profile"))
        sign = vs.get("sector", "+")
        _require(
            isinstance(sign, str) and sign in _SECTORS, f"vectors.{name}.sector: use '+' or '-'"
        )
        comp = _int(vs.get("component", 0), f"vectors.{name}.component")
        _require(0 <= comp < grid.components, f"vectors.{name}.component out of range")
        prof = _parse_profile(grid, vs.get("profile", {}), f"vectors.{name}.profile")
        vectors[name] = models.plus_vector(ctx.module, prof, comp, _SECTORS[sign])
        # a zero vector makes every relation it enters vanish vacuously
        _require(not vectors[name].is_zero(), f"vectors.{name}.profile: no nonzero entry")
    ctx.vectors = vectors
    return ctx


def _vector(ctx: ModelContext, name, where: str, plus: bool = False) -> ModuleVector:
    """The named vector; with ``plus``, one a matter field psi(w) takes,
    which must lie in the + sector."""
    _require(isinstance(name, str) and name in ctx.vectors, f"{where}: unknown vector {name!r}")
    vec = ctx.vectors[name]
    basis = ctx.module.basis
    _require(
        not plus or all(basis.sector_of(b) == SECTOR_PLUS for b in vec.entries),
        f"{where}: vector {name!r} has a '-' sector entry; a matter field takes '+' sector vectors",
    )
    return vec


def _fspec(ctx: ModelContext, spec, where: str, plus: bool = False) -> ModuleVector:
    """Module vector from [[vector, exponents], ...] term lists; with
    ``plus``, every term's vector must lie in the + sector."""
    _require(isinstance(spec, list) and spec, f"{where}: expected a nonempty term list")
    m = len(ctx.gens)
    total = None
    for j, term in enumerate(spec):
        _require(
            isinstance(term, list) and len(term) == 2,
            f"{where}[{j}]: expected [vector, exponents]",
        )
        vec = _vector(ctx, term[0], f"{where}[{j}]", plus)
        exps = term[1]
        _require(
            isinstance(exps, list) and len(exps) == m and all(_is_int(e) for e in exps),
            f"{where}[{j}]: exponents must be {m} integers",
        )
        coeff = WeylElement.monomial(ctx.gens, tuple(exps))
        part = ModuleVector(ctx.module, {b: coeff * a for b, a in vec.entries.items()})
        total = part if total is None else total + part
    _require(not total.is_zero(), f"{where}: the terms sum to the zero vector")
    return total


def _check_seed(seed: int, name: str, ordinal: int) -> int:
    return zlib.crc32(f"{seed}:{name}:{ordinal}".encode())


# ---------------------------------------------------------------------------
# check dispatch: one parameter schema per check
#
# A parser takes (ctx, params, check name) and returns one positional
# argument of models.check_<name>; "ctx", "gens" and "seed" stand for the
# context, its generators and the check's seed.  Each parser declares the
# keys of the check item it reads (``_reads``), and an item with any other
# key but "check" is refused, so that a misspelt key cannot drop a case.
# An item parser takes (ctx, item, field path) and returns one entry of a
# list parameter.


def _reads(*keys: str):
    """Declare the check item keys a parser reads, as its ``keys``."""

    def declare(parse):
        parse.keys = keys
        return parse

    return declare


def _count(key: str, default: int):
    """Parser of a count, which must be at least 1: no cases tests nothing."""

    @_reads(key)
    def parse(ctx, params, name):
        n = _int(params.get(key, default), f"{name}.{key}")
        _require(n >= 1, f"{name}.{key}: expected a count of at least 1, got {n}")
        return n

    return parse


def _each(key: str, parse_item):
    """Parser of the list params[key], item by item."""

    @_reads(key)
    def parse(ctx, params, name):
        items = params.get(key, [])
        _require(isinstance(items, list), f"{name}.{key}: expected a list")
        return [parse_item(ctx, item, f"{name}.{key}[{i}]") for i, item in enumerate(items)]

    return parse


def _generator(ctx, k, where: str) -> int:
    _require(
        _is_int(k) and 0 <= k < len(ctx.gens),
        f"{where}: expected a generator index below {len(ctx.gens)}",
    )
    return k


def _pair(ctx, item, where: str, plus: bool = False):
    _require(isinstance(item, list) and len(item) == 2, f"{where}: expected [f, g]")
    return _fspec(ctx, item[0], f"{where}[0]", plus), _fspec(ctx, item[1], f"{where}[1]", plus)


def _vector_generator(ctx, item, where: str):
    _require(isinstance(item, list) and len(item) == 2, f"{where}: expected [vector, generator]")
    return _vector(ctx, item[0], f"{where}[0]", plus=True), _generator(ctx, item[1], f"{where}[1]")


def _triple(ctx, item, where: str):
    _require(isinstance(item, list) and len(item) == 3, f"{where}: expected [generator, w1, w2]")
    k = _generator(ctx, item[0], f"{where}[0]")
    return k, _vector(ctx, item[1], f"{where}[1]", plus=True), _vector(ctx, item[2], f"{where}[2]", plus=True)


def _observable(ctx, item, where: str):
    _object(item, where, ("generator", "w1", "w2"))
    k = item.get("generator")
    if k is None:
        s = WeylElement.unit(ctx.gens)
    else:
        s = WeylElement.monomial(ctx.gens, ctx.gens.unit(_generator(ctx, k, f"{where}.generator")))
    w1 = _vector(ctx, item.get("w1"), f"{where}.w1", plus=True)
    return s, w1, _vector(ctx, item.get("w2"), f"{where}.w2", plus=True)


@_reads("free", "nonfree")
def _car_pairs(ctx, params, name):
    pairs = [(f, g, True) for f, g in _each("free", _pair)(ctx, params, name)]
    pairs += [(f, g, False) for f, g in _each("nonfree", _pair)(ctx, params, name)]
    return pairs


@_reads("disjoint")
def _disjoint(ctx, params, name):
    # runs after the observables parser, which has checked that list
    n = len(params.get("observables", []))

    def index_pair(ctx, item, where):
        _require(
            isinstance(item, list)
            and len(item) == 2
            and all(_is_int(x) and 0 <= x < n for x in item)
            and item[0] != item[1],
            f"{where}: expected a valid index pair of two different observables",
        )
        return item[0], item[1]

    return _each("disjoint", index_pair)(ctx, params, name)


@_reads("angles")
def _angles(ctx, params, name):
    angles = params.get("angles", [0.7, 2.4])
    _require(isinstance(angles, list), f"{name}.angles: expected a list")
    return [_real(a, f"{name}.angles[{i}]") for i, a in enumerate(angles)]


# check name -> parsers of the positional arguments of models.check_<name>
CHECK_PARAMS = {
    "weyl_exactness": ("gens", "seed", _count("cases", 200)),
    "gram_positivity": ("gens", "seed", _count("size", 8)),
    "car": ("ctx", _car_pairs),
    "adjointness": ("ctx", "seed", _count("cases", 100)),
    "covariance": ("ctx", "seed", _count("cases", 100)),
    "norm_recovery": ("ctx", "seed", _count("cases", 20)),
    "nonfock": ("ctx",),
    "pauli": ("ctx",),
    "dirac_adjoint": ("ctx", "seed", _count("cases", 10)),
    "relative_locality": (
        "ctx",
        _each("local", _vector_generator),
        _each("witness", _vector_generator),
    ),
    "bilinear_locality": ("ctx", _each("commuting", _triple), _each("witness", _triple)),
    "anticommutator_model": ("ctx", _each("pairs", functools.partial(_pair, plus=True))),
    "observable_net": ("ctx", _each("observables", _observable), _disjoint),
    "gauge_invariance": ("ctx", _each("observables", _observable), _angles),
    "covariance_phase": ("ctx", _each("pairs", _vector_generator)),
    "neutral_commutant": ("ctx", _each("pairs", _vector_generator)),
    "mutual_freeness": ("ctx", _each("free", _pair), _each("nonfree", _pair)),
}
# checks without a residual tolerance for --tolerance to override
_NO_TOLERANCE = frozenset({"nonfock", "gauge_invariance", "mutual_freeness"})
# a check with nothing to test would pass vacuously: it needs an entry in
# one of its list parameters, these checks in each (their cases pair them)
_EVERY_LIST = frozenset({"observable_net", "gauge_invariance"})


def _bind_checks(ctx, items, base_seed: int, tolerance: float | None) -> list[tuple[str, list, dict]]:
    """(name, positional arguments, keyword arguments) of every check in
    items, each validated and parsed before the first one runs."""
    _require(isinstance(items, list) and items, "checks: need a nonempty list")
    bound = []
    for ordinal, item in enumerate(items):
        _require(isinstance(item, dict) and "check" in item, f"checks[{ordinal}]: need a check name")
        name = item["check"]
        _require(
            isinstance(name, str) and name in CHECK_PARAMS,
            f"checks[{ordinal}]: unknown check {name!r}",
        )
        read = {"check"}.union(*(p.keys for p in CHECK_PARAMS[name] if not isinstance(p, str)))
        _object(item, f"checks[{ordinal}] ({name})", read)
        fixed = {"ctx": ctx, "gens": ctx.gens, "seed": _check_seed(base_seed, name, ordinal)}
        args = [fixed[p] if isinstance(p, str) else p(ctx, item, name) for p in CHECK_PARAMS[name]]
        lists = [a for a in args if isinstance(a, list)]
        _require(all(lists) if name in _EVERY_LIST else not lists or any(lists), f"{name}: nothing to test")
        kwargs = {} if tolerance is None or name in _NO_TOLERANCE else {"tol": tolerance}
        bound.append((name, args, kwargs))
    return bound


# ---------------------------------------------------------------------------
# report assembly


def _sanitize(obj):
    """JSON-safe copy; floats stay floats, complex becomes repr text."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_sanitize(v) for v in obj)
    return repr(obj)


def _json_check(cr: CheckResult) -> dict:
    return {
        "name": cr.name,
        "status": cr.status,
        "residuals": {k: repr(float(v)) for k, v in cr.residuals.items()},
        "tolerances": {k: repr(float(v)) for k, v in cr.tolerance.items()},
        "witness": _sanitize(cr.witness),
        "details": _sanitize(cr.details),
    }


def _config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_config(
    config: dict,
    seed: int | None = None,
    truncation: int | None = None,
    tolerance: float | None = None,
) -> dict:
    """Run one scenario and return its serialized record."""
    if tolerance is not None:
        tolerance = _real(tolerance, "tolerance", positive=True)
    _require(isinstance(config, dict), "config: expected a JSON object")
    run_name = config.get("name", "scenario")
    _require(isinstance(run_name, str), f"name: expected a string, got {run_name!r}")
    config = dict(config)
    if seed is not None:
        config["seed"] = _int(seed, "seed")
    if truncation is not None:
        config["truncation"] = _int(truncation, "truncation")
    base_seed = _int(config.get("seed", 0), "seed")
    ctx = build_scenario(config)
    records = []
    failed = 0
    for name, args, kwargs in _bind_checks(ctx, config.get("checks"), base_seed, tolerance):
        # looked up by name at call time, so that a wrapper installed on
        # the models module (the benchmark's tracer) sees every check
        cr = getattr(models, f"check_{name}")(*args, **kwargs)
        records.append(_json_check(cr))
        failed += 0 if cr.passed else 1
    return {
        "name": run_name,
        "config": {
            "digest": _config_digest(config),
            "grid": config.get("grid", {}),
            "seed": base_seed,
            "sigma": config.get("sigma"),
            "state": ctx.state.kind,
            "truncation": ctx.truncation,
        },
        "checks": records,
        "summary": {
            "failed": failed,
            "passed": len(records) - failed,
            "status": "pass" if failed == 0 else "fail",
            "total": len(records),
        },
    }


def assemble_report(runs: list[dict], grid: GridSpec) -> dict:
    failed = sum(r["summary"]["failed"] for r in runs)
    total = sum(r["summary"]["total"] for r in runs)
    return {
        "schema": SCHEMA,
        "tool": {"name": "fockmod", "version": __version__},
        "conventions": _sanitize(models.conventions(grid)),
        "runs": runs,
        "summary": {
            "failed": failed,
            "passed": total - failed,
            "status": "pass" if failed == 0 else "fail",
            "total": total,
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_text(report: dict, elapsed: float) -> str:
    lines = []
    tool = report["tool"]
    lines.append(f"{tool['name']} {tool['version']}  schema {report['schema']}")
    for run in report["runs"]:
        cfg = run["config"]
        sigma = cfg.get("sigma") or {}
        lines.append("")
        lines.append(
            f"run {run['name']}  (sigma={sigma.get('kind')}, state={cfg['state']}, "
            f"truncation={cfg['truncation']}, seed={cfg['seed']})"
        )
        for c in run["checks"]:
            tag = "PASS" if c["status"] == "pass" else "FAIL"
            parts = []
            for k in sorted(c["residuals"]):
                val = float(c["residuals"][k])
                tol = c["tolerances"].get(k)
                parts.append(f"{k}={val:.3g}" + (f" (tol {float(tol):g})" if tol else ""))
            lines.append(f"  [{tag}] {c['name']:<22} {'; '.join(parts)}".rstrip())
            if c["status"] != "pass" and c.get("witness"):
                lines.append(f"         witness: {c['witness']}")
    s = report["summary"]
    lines.append("")
    lines.append(
        f"summary: {s['total']} checks, {s['passed']} passed, {s['failed']} failed"
        f"  [{s['status'].upper()}]"
    )
    lines.append(f"elapsed: {elapsed:.2f} s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in seeded CAR batteries


def _point(center: int) -> dict:
    return {"shape": "point", "center": center, "amplitude": 1.0}


def _values(points: int, entries: dict[int, float]) -> dict:
    vals = [0.0] * points
    for i, v in entries.items():
        vals[i] = v
    return {"shape": "values", "values": vals}


# sigma kind -> its battery, run on the model of MODEL_SCENARIOS[kind]
_CAR_TABLE = {
    "delta": {
        "safe": (5, 6, 7, 8, 15),
        "groups": ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (-1, 1)),
        "count": 13,
        "nonfree_vectors": {"nfA": _point(2), "nfB": _point(3), "nfC": _point(12)},
        "nonfree": [
            [[["nfA", [1, 0]]], [["nfA", [0, 0]]]],
            [[["nfC", [0, 1]]], [["nfC", [0, 0]]]],
            [[["nfA", [1, 0]]], [["nfB", [0, 0]]]],
        ],
        "pauli": True,
    },
    "bump": {
        "safe": (6, 7, 8),
        "groups": ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (-1, 1)),
        "count": 13,
        "nonfree_vectors": {"nfA": _point(2), "nfB": _point(4), "nfC": _point(12)},
        "nonfree": [
            [[["nfA", [1, 0]]], [["nfA", [0, 0]]]],
            [[["nfB", [1, 0]]], [["nfB", [0, 0]]]],
            [[["nfC", [0, 1]]], [["nfC", [0, 0]]]],
        ],
        "pauli": True,
    },
    "poisson": {
        "safe": (0, 6, 7, 8, 15),
        "groups": (
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (2, 0, 0),
            (0, 2, 0),
            (-1, 1, 0),
        ),
        "count": 12,
        "nonfree_vectors": {"nfA": _point(3), "nfB": _point(0), "nfM": _point(7)},
        "nonfree": [
            [[["nfA", [1, 0, 0]]], [["nfA", [0, 0, 0]]]],
            [[["nfM", [0, 0, 1]]], [["nfB", [0, 0, 0]]]],
        ],
        "pauli": True,
    },
    "lebesgue": {
        "safe": (4, 5, 6, 9),
        "groups": ((0, 0), (1, 0), (2, 0), (-1, 0), (3, 0)),
        "count": 12,
        "nonfree_vectors": {"nfA": _point(5), "nfB": _point(9)},
        "nonfree": [
            [[["nfA", [0, 1]]], [["nfB", [0, 0]]]],
            [[["nfB", [0, 1]]], [["nfA", [1, 0]]]],
        ],
        "pauli": False,
    },
}


def _rand_fspec(rng: random.Random, table: dict, vectors: dict, n_points: int) -> list:
    terms = []
    n_terms = 2 if rng.random() < 0.2 else 1
    for _ in range(n_terms):
        if rng.random() < 0.25 and len(table["safe"]) >= 2:
            sites = rng.sample(table["safe"], 2)
            prof = _values(n_points, {sites[0]: 0.6, sites[1]: 0.8})
        else:
            prof = _point(rng.choice(table["safe"]))
        name = f"v{len(vectors)}"
        vectors[name] = {"sector": "+", "component": 0, "profile": prof}
        terms.append([name, list(rng.choice(table["groups"]))])
    return terms


def builtin_car_config(kind: str, seed: int = 7) -> dict:
    """Deterministic per-model CAR battery derived from the seed."""
    if kind not in _CAR_TABLE:
        raise ConfigError(f"no built-in CAR battery for sigma kind {kind!r}")
    table = _CAR_TABLE[kind]
    model = load_config(MODEL_SCENARIOS[kind])
    n_points = _parse_grid(model["grid"]).n_points
    rng = random.Random(zlib.crc32(f"{seed}:carpairs:{kind}".encode()))
    vectors = {
        name: {"sector": "+", "component": 0, "profile": prof}
        for name, prof in table["nonfree_vectors"].items()
    }
    # a pair's f is drawn before its g
    free = [[_rand_fspec(rng, table, vectors, n_points) for _ in range(2)] for _ in range(table["count"])]
    checks = [
        {"check": "car", "free": free, "nonfree": table["nonfree"]},
        {"check": "nonfock"},
        {"check": "dirac_adjoint", "cases": 6},
    ]
    if table["pauli"]:
        checks.append({"check": "pauli"})
    if kind == "delta":
        checks.extend(
            [
                {"check": "weyl_exactness", "cases": 100},
                {"check": "gram_positivity", "size": 8},
                {"check": "adjointness", "cases": 100},
                {"check": "covariance", "cases": 100},
                {"check": "norm_recovery", "cases": 20},
            ]
        )
    return {
        "schema": model["schema"],
        "name": f"{kind}_car",
        "grid": model["grid"],
        "sigma": model["sigma"],
        "state": "tracial",
        "truncation": 3,
        "seed": seed,
        "generators": model["generators"],
        "vectors": vectors,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# entry point


def _add_common(p: argparse.ArgumentParser, config_required: bool) -> None:
    p.add_argument(
        "--config",
        required=config_required,
        metavar="PATH",
        help="scenario config: a JSON file path or a bundled name "
        f"({', '.join(BUNDLED)})",
    )
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--truncation",
        type=int,
        default=None,
        help="override the Fock depth of the random adjointness, covariance and norm_recovery cases",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every residual tolerance, finite and > 0 "
        "(thresholds for designed violations are not affected)",
    )
    p.add_argument("--out", metavar="PATH", help="write the report to a file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockmod",
        description="Exact verification runner for twisted fermionic Fock bimodules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "verify-car",
        help="anticommutation battery; without --config runs the built-in "
        "four-model suite",
    )
    _add_common(p, config_required=False)
    p = sub.add_parser("model", help="run the checks of one scenario config")
    _add_common(p, config_required=True)
    p = sub.add_parser(
        "all", help="built-in CAR suite plus every bundled model scenario"
    )
    _add_common(p, config_required=False)
    return parser


def _configs_for(args) -> list[dict]:
    if args.config is not None:
        return [load_config(args.config)]
    out = [builtin_car_config(kind, 7 if args.seed is None else args.seed) for kind in SIGMA_KINDS]
    if args.command == "all":
        out.extend(load_config(MODEL_SCENARIOS[kind]) for kind in SIGMA_KINDS)
    return out


def _reserve(path: str) -> str:
    """A new file beside path, renamed onto it once the report is whole, so
    a path that cannot be written fails before any check runs."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    try:
        fd, tmp = tempfile.mkstemp(prefix=".fockmod-", dir=os.path.dirname(os.path.abspath(path)))
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e
    os.close(fd)
    mask = os.umask(0)
    os.umask(mask)
    os.chmod(tmp, 0o666 & ~mask)
    return tmp


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    tmp = None
    try:
        tmp = _reserve(args.out) if args.out else None
        configs = _configs_for(args)
        runs = [
            run_config(c, args.seed, args.truncation, args.tolerance) for c in configs
        ]
        grid = _parse_grid(configs[0].get("grid", {}))
        report = assemble_report(runs, grid)
        elapsed = time.perf_counter() - t0
        text = report_json(report) if args.format == "json" else report_text(report, elapsed)
        if tmp is None:
            sys.stdout.write(text)
        else:
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, args.out)
            except OSError as e:
                raise ConfigError(f"cannot write {args.out}: {e.strerror or e}") from e
    except ConfigError as e:
        print(f"fockmod: {e}", file=sys.stderr)
        return 2
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return 0 if report["summary"]["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
