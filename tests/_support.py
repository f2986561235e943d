"""Shared builders for the test suite.

Small bimodule contexts on a 3-point grid (dense reference size limit),
conversions between the canonical engine representation and the dense
reference tensors, seeded random element factories, and the equivalence
driver that pits every Fock-level operation against its brute-force
counterpart.
"""

import itertools
import math
import random

import numpy as np

from fockmod.weyl import GeneratorSet, GridSpec, TestFunctionPair, WeylElement
from fockmod.bimodule import (
    FreeBimodule,
    ModuleVector,
    OneParticleBasis,
    Twist,
    trivial_twist,
)
from fockmod.fock import (
    FockElement,
    annihilate,
    create,
    fock_inner,
    fock_left_action,
    fock_right_mul,
)
from fockmod.models import kernel_value, make_twist
from fockmod.oracle import (
    DenseTensor,
    _parity,
    oracle_fermi_annihilate,
    oracle_fermi_create,
    oracle_left_mult,
    oracle_nested_inner,
    oracle_right_mul,
)

# filled by the acceptance tests, replayed by the terminal summary hook
ACCEPTANCE_LINES: list[str] = []


# ---------------------------------------------------------------------------
# small contexts


def tiny_grid() -> GridSpec:
    return GridSpec(dimension=1, points_per_axis=3, spacing=1.0, components=1)


def desk_grid() -> GridSpec:
    return GridSpec(dimension=1, points_per_axis=16, spacing=1.0, components=1)


def tiny_pairs(grid: GridSpec) -> list[TestFunctionPair]:
    # eta(g0, g1) = 0.5 - (-0.25) = 0.75, so cocycle phases are nontrivial
    g0 = TestFunctionPair(grid, [1.0, 0.0, 0.0], [0.0, 0.5, 0.0])
    g1 = TestFunctionPair(grid, [0.0, 1.0, 0.0], [-0.25, 0.0, 0.0])
    return [g0, g1]


def tiny_gens() -> GeneratorSet:
    grid = tiny_grid()
    return GeneratorSet(grid, tiny_pairs(grid))


def mixing_twist(basis: OneParticleBasis, gens: GeneratorSet, seed: int = 5) -> Twist:
    """Non-diagonal commuting family: conjugated phase matrices repeated
    on the - sector, so charge conjugation is respected exactly."""
    rng = np.random.default_rng(seed)
    block = basis.dim // 2
    z = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
    v, _ = np.linalg.qr(z)
    mats = []
    for _ in range(len(gens)):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=block))
        a = v @ np.diag(phases) @ v.conj().T
        u = np.zeros((basis.dim, basis.dim), dtype=complex)
        u[:block, :block] = a
        u[block:, block:] = a.conj()
        mats.append(u)
    return Twist(basis, gens, mats)


EQUIV_FAMILIES = ("trivial", "delta", "bump", "poisson", "lebesgue", "mixed")


def tiny_module(family: str = "trivial", seed: int = 0) -> FreeBimodule:
    grid = tiny_grid()
    gens = GeneratorSet(grid, tiny_pairs(grid))
    basis = OneParticleBasis(grid)
    if family == "trivial":
        twist = trivial_twist(basis, gens)
    elif family == "mixed":
        twist = mixing_twist(basis, gens, seed + 5)
    else:
        twist = make_twist(family, basis, gens, 1.5 if family == "bump" else None)
    return FreeBimodule(basis, gens, twist)


def ref_sigma_convolve(kind: str, grid: GridSpec, s0, radius=None) -> np.ndarray:
    """Independent route to sigma * s0: the plain double sum over grid
    points, one kernel_value call per (x, y) pair with s0(y) != 0."""
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if kind == "delta":
        return s0.copy()
    out = np.zeros(grid.n_points)
    coords = [grid.coords(i) for i in range(grid.n_points)]
    vol = grid.cell_volume
    for xi in range(grid.n_points):
        cx = coords[xi]
        acc = 0.0
        for yi in range(grid.n_points):
            sy = s0[yi]
            if sy == 0.0:
                continue
            cy = coords[yi]
            disp = tuple(a - b for a, b in zip(cx, cy))
            acc += kernel_value(kind, grid, disp, radius) * sy
        out[xi] = acc * vol
    return out


# ---------------------------------------------------------------------------
# dense conversions


def raw_u_of(twist: Twist):
    """Independent route to u(n): plain matrix powers of the stored
    generators, bypassing the engine's cache and column logic."""
    mats = twist.unitaries
    dim = twist.basis.dim

    def u_of(n: tuple[int, ...]) -> np.ndarray:
        out = np.eye(dim, dtype=complex)
        for k, p in enumerate(n):
            if p:
                out = np.linalg.matrix_power(mats[k], int(p)) @ out
        return out

    return u_of


def dense_from_level(v: FockElement, level: int) -> DenseTensor:
    """Full signed expansion of one canonical level: every permutation
    of a stored tuple carries the stored coefficient times its parity."""
    gens = v.space.gens
    out = DenseTensor(gens, v.space.basis.dim, level)
    for t, x in v.parts.get(level, {}).items():
        a = WeylElement(gens, x)
        for perm in itertools.permutations(range(level)):
            out.add_into(tuple(t[i] for i in perm), _parity(perm) * a)
    return out


def weyl_dev(a: WeylElement, b: WeylElement) -> float:
    keys = a.terms.keys() | b.terms.keys()
    return max((abs(a.terms.get(n, 0.0) - b.terms.get(n, 0.0)) for n in keys), default=0.0)


# ---------------------------------------------------------------------------
# seeded random elements


def rand_weyl(rng: random.Random, gens: GeneratorSet, max_terms: int = 2, max_exp: int = 1) -> WeylElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = tuple(rng.randint(-max_exp, max_exp) for _ in range(len(gens)))
        terms[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return WeylElement(gens, terms)


def rand_vector(rng: random.Random, module: FreeBimodule, max_entries: int = 2) -> ModuleVector:
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        entries[rng.randrange(module.basis.dim)] = rand_weyl(rng, module.gens)
    return ModuleVector(module, entries)


def rand_wedge(rng: random.Random, module: FreeBimodule, level: int, truncation: int = 3) -> FockElement:
    dim = module.basis.dim
    terms = {}
    for _ in range(rng.randint(1, 2)):
        t = tuple(sorted(rng.sample(range(dim), level)))
        terms[t] = rand_weyl(rng, module.gens)
    return FockElement(module, truncation, {level: terms})


# ---------------------------------------------------------------------------
# equivalence driver

EQUIV_OPS = ("left_mult", "right_mul", "create", "annihilate", "inner")


def run_equivalence(module: FreeBimodule, seed: int, cases_per_op: int) -> dict[str, float]:
    """Worst deviation per operation between the canonical engine and
    the dense reference, on random single-level elements."""
    rng = random.Random(seed)
    gens = module.gens
    u_of = raw_u_of(module.twist)
    worst = dict.fromkeys(EQUIV_OPS, 0.0)
    for _ in range(cases_per_op):
        # twisted left multiplication, level 1..3
        l = rng.randint(1, 3)
        v = rand_wedge(rng, module, l)
        a = rand_weyl(rng, gens)
        got = dense_from_level(fock_left_action(a, v), l)
        want = oracle_left_mult(a, dense_from_level(v, l), u_of)
        worst["left_mult"] = max(worst["left_mult"], got.max_deviation(want))

        # right module action
        l = rng.randint(1, 3)
        v = rand_wedge(rng, module, l)
        a = rand_weyl(rng, gens)
        got = dense_from_level(fock_right_mul(v, a), l)
        want = oracle_right_mul(dense_from_level(v, l), a)
        worst["right_mul"] = max(worst["right_mul"], got.max_deviation(want))

        # fermionic creation; input level capped so the output fits
        l = rng.randint(1, 2)
        v = rand_wedge(rng, module, l)
        f = rand_vector(rng, module)
        got = dense_from_level(create(f, v), l + 1)
        want = oracle_fermi_create(f.entries, dense_from_level(v, l), u_of)
        worst["create"] = max(worst["create"], got.max_deviation(want))

        # fermionic annihilation; level 1 contracts to the algebra
        l = rng.randint(1, 3)
        v = rand_wedge(rng, module, l)
        f = rand_vector(rng, module)
        out = annihilate(f, v)
        ref = oracle_fermi_annihilate(f.entries, dense_from_level(v, l), u_of)
        if l == 1:
            worst["annihilate"] = max(worst["annihilate"], weyl_dev(out.scalar, ref))
        else:
            got = dense_from_level(out, l - 1)
            worst["annihilate"] = max(worst["annihilate"], got.max_deviation(ref))

        # nested algebra-valued scalar product; w shares v's tuples, or
        # most pairs would share none and compare zero with zero
        l = rng.randint(1, 3)
        v = rand_wedge(rng, module, l)
        w = v + rand_wedge(rng, module, l)
        lhs = fock_inner(v, w)
        rhs = oracle_nested_inner(dense_from_level(v, l), dense_from_level(w, l), u_of)
        worst["inner"] = max(worst["inner"], weyl_dev(lhs, rhs))
    return worst
