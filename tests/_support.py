"""Shared builders for the test suite.

Small bimodule contexts on a 3-point grid (dense reference size limit),
conversions between the canonical engine representation and the dense
reference tensors, seeded random element factories, and the equivalence
driver that pits every Fock-level operation against its brute-force
counterpart.
"""

import dataclasses
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
    module_inner,
    mutually_free,
)
from fockmod.cli import SCHEMA
from fockmod.fock import (
    FockElement,
    annihilate,
    annihilation,
    anticommutator,
    create,
    creation,
    fock_inner,
    fock_left_action,
    gns_inner,
    gns_norm,
    wedge,
    weyl_mult,
)
from fockmod.models import THRESHOLD, build_context, kernel_value, level_basis, make_twist, sigma_convolve
from fockmod.oracle import (
    DenseTensor,
    _parity,
    oracle_fermi_annihilate,
    oracle_fermi_create,
    oracle_left_mult,
    oracle_nested_inner,
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


def uneven_twist(basis: OneParticleBasis, gens: GeneratorSet, seed: int = 7) -> Twist:
    """Coupling blocks of two sizes: on the + sector slots 0 and 1 are
    mixed by V diag(phases) V*, every other + slot keeps a phase of its
    own, and the - sector carries the conjugate.  One V serves every
    generator, so they commute."""
    rng = np.random.default_rng(seed)
    block = basis.dim // 2
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    mats = []
    for _ in range(len(gens)):
        a = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=block)))
        a[:2, :2] = v @ a[:2, :2] @ v.conj().T
        u = np.zeros((basis.dim, basis.dim), dtype=complex)
        u[:block, :block] = a
        u[block:, block:] = a.conj()
        mats.append(u)
    return Twist(basis, gens, mats)


def spinor_twist(points: int = 16, seed: int = 3) -> tuple[Twist, list[np.ndarray]]:
    """The spinor-mixing twist on a 2D grid with ``points`` per axis and
    two components, passed as dense d x d matrices: exp(-i phi_k(x)
    sigma_x) on the two components of each point x of the + sector, its
    conjugate on the - sector.  phi_k is the Poisson convolution of a
    random s0_k; every U_k is a function of sigma_x, so they commute.
    Returns the twist and the profiles phi_k."""
    grid = GridSpec(dimension=2, points_per_axis=points, spacing=1.0, components=2)
    rng = np.random.default_rng(seed)
    zero = np.zeros(grid.n_points)
    gens = GeneratorSet(grid, [TestFunctionPair(grid, rng.normal(size=grid.n_points), zero) for _ in range(2)])
    basis = OneParticleBasis(grid)
    phis = [sigma_convolve("poisson", grid, pair.s0) for pair in gens.pairs]
    # component c of point x sits at 2x + c in the + sector, and its
    # partner half a basis further on
    first, half = 2 * np.arange(grid.n_points), basis.dim // 2
    mats = []
    for phi in phis:
        cos, sin = np.cos(phi), -1j * np.sin(phi)
        u = np.zeros((basis.dim, basis.dim), dtype=complex)
        for shift, conj in ((0, False), (half, True)):
            a, b = first + shift, first + 1 + shift
            u[a, a] = u[b, b] = cos
            u[a, b] = u[b, a] = sin.conj() if conj else sin
        mats.append(u)
    return Twist(basis, gens, mats), phis


EQUIV_FAMILIES = ("trivial", "delta", "bump", "poisson", "lebesgue", "mixed", "uneven")


def tiny_module(family: str = "trivial", seed: int = 0) -> FreeBimodule:
    grid = tiny_grid()
    gens = GeneratorSet(grid, tiny_pairs(grid))
    basis = OneParticleBasis(grid)
    if family == "trivial":
        twist = Twist(basis, gens, [np.ones(basis.dim)] * len(gens))
    elif family == "mixed":
        twist = mixing_twist(basis, gens, seed + 5)
    elif family == "uneven":
        twist = uneven_twist(basis, gens, seed + 7)
    else:
        twist = make_twist(family, basis, gens, 1.5 if family == "bump" else None)
    return FreeBimodule(basis, gens, twist)


def mixed_car_case(seed: int = 3):
    """A tracial delta context on the tiny grid whose twist is
    ``mixing_twist``, rotated as the dense_twist benchmark rotates its
    twist, with CAR pairs of dense rotated vectors: two free pairs at
    W(0) (u(0) fixes every vector), one inside the + block and one across
    both blocks, and a non-free pair W(1, 0) against W(0) in the + block.
    """
    grid = tiny_grid()
    ctx = build_context("delta", grid, tiny_pairs(grid))
    basis, gens = ctx.module.basis, ctx.gens
    module = FreeBimodule(basis, gens, mixing_twist(basis, gens, seed))
    rng = np.random.default_rng(seed)

    def vector(slots, n=(0, 0)):
        z = rng.normal(size=len(slots)) + 1j * rng.normal(size=len(slots))
        coeff = WeylElement.monomial(gens, n)
        return ModuleVector(module, {b: complex(c) * coeff for b, c in zip(slots, z)})

    plus, both = (0, 1, 2), range(basis.dim)
    pairs = [
        (vector(plus), vector(plus), True),
        (vector(plus), vector(both), True),
        (vector(plus, (1, 0)), vector(plus), False),
    ]
    return dataclasses.replace(ctx, module=module), pairs


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


def ref_car_sweep(ctx, pairs, tol: float = 1e-10) -> dict:
    """Independent route to check_car's verdict: every pair swept on the
    vacuum and every wedge of level <= 2, <= 1 for {a*(f), a*(g)}, over the
    whole one-particle basis.  Returns the status, the
    problem of the last broken case (None on a pass), free_max and
    nonfree_min."""
    module = ctx.module
    sweep = [wedge(module, t) for t in level_basis(module, 2)]
    sweep_cre = [wedge(module, t) for t in level_basis(module, 1)]
    free_max, nonfree_min, problem = 0.0, None, None
    for f, g, expect_free in pairs:
        if mutually_free(f, g).free != expect_free:
            problem = "freeness_decision"
        ops = [(anticommutator(annihilation(f), creation(g)) - weyl_mult(module, module_inner(f, g)), sweep)]
        if expect_free:
            ops.append((anticommutator(annihilation(f), annihilation(g)), sweep))
            ops.append((anticommutator(creation(f), creation(g)), sweep_cre))
        worst = 0.0
        for op, probes in ops:
            for v in probes:
                worst = max(worst, gns_norm(op.apply(v), ctx.state))
        if expect_free:
            free_max = max(free_max, worst)
            if worst > tol:
                problem = "free_residual"
        else:
            nonfree_min = worst if nonfree_min is None else min(nonfree_min, worst)
            if worst <= THRESHOLD:
                problem = "nonfree_too_small"
    return {
        "status": "pass" if problem is None else "fail",
        "problem": problem,
        "free_max": free_max,
        "nonfree_min": nonfree_min,
    }


def poisson_2d_config(points: int, components: int = 2) -> dict:
    """2D Poisson scenario with a 13-free, 2-non-free CAR battery.

    Generator 0 is a dipole +4 at (0, 1), -4 at (2, 1), generator 1 one
    +4 at (3, 0), -4 at (3, 2).  Every point of the line x = 1 is equally
    far from generator 0's two charges, and every point of y = 1 from
    generator 1's, so that generator's phase there is exactly zero.  The
    free pairs sit on those lines, the non-free ones on a charge, where the
    phase is about 1.2.
    """
    n_points = points * points

    def dipole(plus, minus):
        vals = [0.0] * n_points
        vals[plus[0] * points + plus[1]] = 4.0
        vals[minus[0] * points + minus[1]] = -4.0
        return {"s0": {"shape": "values", "values": vals}}

    def vec(at, component=0):
        return {"sector": "+", "component": component, "profile": {"shape": "point", "center": list(at)}}

    vectors = {
        "calm": vec((1, 1)),
        "calm1": vec((1, 1), components - 1),
        "q0a": vec((1, 0)),
        "q0b": vec((1, 3), components - 1),
        "q0c": vec((1, 2)),
        "q1a": vec((0, 1), components - 1),
        "q1b": vec((3, 1)),
        "in0": vec((0, 1)),
        "in1": vec((3, 0), components - 1),
    }
    free = [
        [[["calm", [1, 1]]], [["calm1", [0, 1]]]],
        [[["calm", [1, 0]]], [["q0a", [1, 0]]]],
        [[["q0a", [1, 0]]], [["q0b", [1, 0]]]],
        [[["q0a", [1, 0]]], [["q0c", [0, 0]]]],
        [[["q0b", [2, 0]]], [["q0c", [1, 0]]]],
        [[["q1a", [0, 1]]], [["q1b", [0, 1]]]],
        [[["q1b", [0, 1]]], [["calm1", [0, 2]]]],
        [[["q1a", [0, 1]]], [["q1b", [0, 0]]]],
        [[["q0a", [1, 0]], ["q0c", [1, 0]]], [["q0b", [0, 0]]]],
        [[["calm", [1, 1]], ["calm1", [1, 1]]], [["calm", [0, 0]]]],
        [[["in0", [0, 0]]], [["in1", [0, 0]]]],
        [[["q1a", [0, 1]], ["q1b", [0, 1]]], [["calm", [0, 1]]]],
        [[["q0c", [1, 0]]], [["calm1", [1, 0]]]],
    ]
    nonfree = [
        [[["in0", [1, 0]]], [["in0", [0, 0]]]],
        [[["in1", [0, 1]]], [["in1", [0, 0]]]],
    ]
    return {
        "schema": SCHEMA,
        "name": f"poisson_2d_{points}",
        "grid": {"dimension": 2, "points": points, "spacing": 1.0, "components": components},
        "sigma": {"kind": "poisson"},
        "state": "tracial",
        "truncation": 3,
        "seed": 1,
        "generators": [dipole((0, 1), (2, 1)), dipole((3, 0), (3, 2))],
        "vectors": vectors,
        "checks": [{"check": "car", "free": free, "nonfree": nonfree}],
    }


def apply_word_by_word(op, v: FockElement) -> FockElement:
    """Reference for FieldOperator.apply: every word from scratch, right
    to left, stopping once its image is empty, then the words' images
    added in term order."""
    parts: dict = {}
    for scalar, prims in op.terms:
        acc = v
        for prim in reversed(prims):
            acc = prim.apply(acc)
            if not acc.parts:
                break
        for l, labels in acc.parts.items():
            level = parts.setdefault(l, {})
            for n, ts in labels.items():
                target = level.setdefault(n, {})
                for t, c in ts.items():
                    target[t] = target.get(t, 0.0) + scalar * c
    return FockElement._of(op.space, parts)


# relative Gram eigenvalue at or below which ref_operator_matrix drops a
# direction
REF_RANK_TOL = 1e-10


def ref_operator_matrix(op, basis: list[FockElement], state) -> float:
    """Reference for ``fock.compression_norm``: the norm of the compression
    of op to the span of basis under state, every Gram and compressed entry
    paired by ``gns_inner``, zero or not, in a k x k double loop, and the
    Gram matrix orthonormalized by ``eigh``, any direction of relative
    eigenvalue at or below REF_RANK_TOL dropped."""
    k = len(basis)
    gram = np.zeros((k, k), dtype=complex)
    images = [op.apply(b) for b in basis]
    tmat = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            gram[i, j] = gns_inner(basis[i], basis[j], state)
            tmat[i, j] = gns_inner(basis[i], images[j], state)
    eigvals, eigvecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    keep = eigvals > REF_RANK_TOL * max(1.0, float(eigvals.max(initial=0.0)))
    if not keep.any():
        return 0.0
    basis_mat = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    compressed = basis_mat.conj().T @ tmat @ basis_mat
    return float(np.linalg.norm(compressed, 2))


def word_suffixes(op) -> set[tuple[int, ...]]:
    """The distinct nonempty suffixes of op's words, by primitive identity."""
    return {tuple(map(id, prims[k:])) for _, prims in op.terms for k in range(len(prims))}


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


def right_normal(v: FockElement, level: int) -> dict[tuple[int, ...], dict[tuple[int, ...], complex]]:
    """One level of v as {label m: {increasing tuple s: c}}, the element
    sum c e_s . W(m), Weyl factors on the right, in the oracle's
    convention: e_s is the full signed expansion, of norm sqrt(level!).  A
    bucket (m, o) holding x stands for Lambda u(m + o) x at label m on the
    unit wedges e_s / sqrt(level!), so c_s adds det u(m + o)[s, t] x_t over
    its tuples t, divided by sqrt(level!); the minors are taken from plain
    matrix powers (``raw_u_of``), not from the engine."""
    u_of = raw_u_of(v.space.twist)
    rows = list(itertools.combinations(range(v.space.basis.dim), level))
    unit = 1.0 / math.sqrt(math.factorial(level))
    out: dict = {}
    for (m, o), terms in v.parts.get(level, {}).items():
        u = u_of(tuple(a + b for a, b in zip(m, o)))
        # every minor det u[s, t] at once: rows s, the bucket's tuples t
        s_idx, t_idx = np.array(rows, dtype=int), np.array(list(terms), dtype=int)
        minors = np.linalg.det(u[s_idx[:, None, :, None], t_idx[None, :, None, :]])
        target = out.setdefault(m, {})
        for s, c in zip(rows, minors @ np.array(list(terms.values()))):
            target[s] = target.get(s, 0.0) + unit * complex(c)
    return out


def dense_from_level(v: FockElement, level: int) -> DenseTensor:
    """Full signed expansion of one level (see ``right_normal``): every
    permutation of a tuple carries its coefficient times its parity."""
    gens = v.space.gens
    out = DenseTensor(gens, v.space.basis.dim, level)
    for n, terms in right_normal(v, level).items():
        for t, c in terms.items():
            a = WeylElement.monomial(gens, n, c)
            for perm in itertools.permutations(range(level)):
                out.add_into(tuple(t[i] for i in perm), _parity(perm) * a)
    return out


def level_tuples(v: FockElement, level: int) -> set[tuple[int, ...]]:
    """The basis tuples one level of v carries in e_t . W(m) form, under
    any label, coefficients at or below 1e-14 dropped."""
    return {t for terms in right_normal(v, level).values() for t, c in terms.items() if abs(c) > 1e-14}


def weyl_at(v: FockElement, level: int, t: tuple[int, ...]) -> WeylElement:
    """The Weyl coefficient of e_t on one level: c_{n,t} W(n) summed over
    the labels n."""
    labels = right_normal(v, level)
    return WeylElement(v.space.gens, {n: terms[t] for n, terms in labels.items() if t in terms})


def fock_close(v: FockElement, w: FockElement, tol: float = 1e-12) -> bool:
    """v and w agree on every level in e_t . W(m) form (``right_normal``)
    within tol, coefficient by coefficient, whatever frames they hold."""
    v._require_same(w)
    for l in v.parts.keys() | w.parts.keys():
        a, b = right_normal(v, l), right_normal(w, l)
        for m in a.keys() | b.keys():
            x, y = a.get(m, {}), b.get(m, {})
            if any(abs(x.get(t, 0.0) - y.get(t, 0.0)) > tol for t in x.keys() | y.keys()):
                return False
    return True


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


def rand_wedge(rng: random.Random, module: FreeBimodule, level: int) -> FockElement:
    dim = module.basis.dim
    terms = {}
    for _ in range(rng.randint(1, 2)):
        t = tuple(sorted(rng.sample(range(dim), level)))
        terms[t] = rand_weyl(rng, module.gens)
    return FockElement(module, {level: terms})


# ---------------------------------------------------------------------------
# equivalence driver

EQUIV_OPS = ("left_mult", "create", "annihilate", "inner")


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
