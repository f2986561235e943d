"""Free bimodule layer: index layout, twist admissibility, twisted left
action, algebra-valued inner product, charge conjugation, freeness."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockmod import bimodule
from fockmod.weyl import GridSpec, State, WeylElement
from fockmod.bimodule import (
    FreeBimodule,
    ModuleVector,
    OneParticleBasis,
    OneParticleVector,
    Twist,
    SECTOR_MINUS,
    SECTOR_PLUS,
    conjugate_vector,
    left_action,
    module_inner,
    mutually_free,
)

from _support import (
    EQUIV_FAMILIES,
    desk_grid,
    mixing_twist,
    rand_vector,
    rand_weyl,
    raw_u_of,
    tiny_gens,
    tiny_grid,
    tiny_module,
)


# ---------------------------------------------------------------------------
# index bookkeeping


def test_basis_layout_tiny():
    basis = OneParticleBasis(tiny_grid())
    assert basis.dim == 6
    # + block first
    assert [basis.index(p, 0, SECTOR_PLUS) for p in range(3)] == [0, 1, 2]
    assert [basis.index(p, 0, SECTOR_MINUS) for p in range(3)] == [3, 4, 5]
    assert basis.sector_of(2) == SECTOR_PLUS
    assert basis.sector_of(3) == SECTOR_MINUS
    assert basis.conj_index(0) == 3 and basis.conj_index(5) == 2
    with pytest.raises(IndexError):
        basis.index(3, 0, SECTOR_PLUS)
    with pytest.raises(ValueError):
        basis.index(0, 0, 0)


def test_basis_layout_desk():
    basis = OneParticleBasis(desk_grid())
    assert basis.dim == 32
    assert basis.index(5, 0, SECTOR_PLUS) == 5
    assert basis.index(5, 0, SECTOR_MINUS) == 21
    for i in range(basis.dim):
        assert basis.conj_index(basis.conj_index(i)) == i
        # same point, other sector
        assert basis.conj_index(i) % 16 == i % 16
        assert basis.sector_of(basis.conj_index(i)) != basis.sector_of(i)


def test_one_particle_vector_arithmetic():
    basis = OneParticleBasis(tiny_grid())
    v = OneParticleVector(basis, {0: 1.0, 2: -2.0j})
    w = OneParticleVector(basis, {2: 1.0})
    assert (v + w).coeffs[2] == 1.0 - 2.0j
    assert (v - v).coeffs == {}
    assert (2.0 * v).coeffs[2] == -4.0j
    assert abs(v.norm() - math.sqrt(5.0)) <= 1e-15
    with pytest.raises(IndexError):
        OneParticleVector(basis, {6: 1.0})
    # out of range even when the coefficient is small enough to prune
    with pytest.raises(IndexError):
        OneParticleVector(basis, {99: 1e-20})


# ---------------------------------------------------------------------------
# twist admissibility


def test_twist_rejects_nonunitary():
    basis = OneParticleBasis(tiny_grid())
    gens = tiny_gens()
    bad = [np.eye(6), 2.0 * np.eye(6)]
    with pytest.raises(ValueError, match="not unitary"):
        Twist(basis, gens, bad)
    with pytest.raises(ValueError, match="generator 1 is not unitary"):
        Twist(basis, gens, [np.ones(6), 2.0 * np.ones(6)])
    # non-finite entries, in a diagonal family (as matrix and as phase
    # vector) and in a dense one
    for bad in (math.nan, math.inf):
        phases = np.exp(1j * np.array([0.3, 1.1, 2.0, -0.3, -1.1, -2.0]))
        phases[1] = phases[4] = bad
        with pytest.raises(ValueError, match="not unitary"):
            Twist(basis, gens, [np.eye(6), np.diag(phases)])
        with pytest.raises(ValueError, match="generator 1 is not unitary"):
            Twist(basis, gens, [np.ones(6), phases])
        u = mixing_twist(basis, gens).unitaries[0].copy()
        u[0, 1] = bad
        with pytest.raises(ValueError, match="not unitary"):
            Twist(basis, gens, [u, np.eye(6)])


def test_twist_rejects_noncommuting():
    basis = OneParticleBasis(tiny_grid())
    gens = tiny_gens()
    # each block-repeated unitary respects kappa, but the pair clashes
    perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    a = np.zeros((6, 6), dtype=complex)
    a[:3, :3] = perm
    a[3:, 3:] = perm.conj()
    d = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    b = np.zeros((6, 6), dtype=complex)
    b[:3, :3] = d
    b[3:, 3:] = d.conj()
    with pytest.raises(ValueError, match="do not commute"):
        Twist(basis, gens, [a, b])


def test_twist_rejects_kappa_violation():
    basis = OneParticleBasis(tiny_grid())
    gens = tiny_gens()
    # same phase on both sectors instead of the conjugate one
    u = np.diag(np.exp(1j * 0.7 * np.ones(6)))
    with pytest.raises(ValueError, match="charge conjugation"):
        Twist(basis, gens, [u, np.eye(6)])
    with pytest.raises(ValueError, match="generator 0 breaks charge conjugation"):
        Twist(basis, gens, [np.diagonal(u), np.ones(6)])


def test_dense_twist_rejects_kappa_violation():
    basis = OneParticleBasis(tiny_grid())
    gens = tiny_gens()
    mats = [u.copy() for u in mixing_twist(basis, gens).unitaries]
    # the + block repeated on the - sector instead of its conjugate: still
    # a commuting unitary family, and not diagonal, so the dense check runs
    for u in mats:
        u[3:, 3:] = u[:3, :3]
    assert np.count_nonzero(mats[0] - np.diag(np.diagonal(mats[0])))
    with pytest.raises(ValueError, match="generator 0 breaks charge conjugation"):
        Twist(basis, gens, mats)


def test_twist_takes_phase_vectors():
    basis = OneParticleBasis(tiny_grid())
    gens = tiny_gens()
    phases = np.exp(1j * np.array([0.3, 1.1, 2.0, -0.3, -1.1, -2.0]))
    as_vectors = Twist(basis, gens, [phases, np.ones(6)])
    as_matrices = Twist(basis, gens, [np.diag(phases), np.eye(6)])
    for n in [(1, 0), (-2, 1)]:
        assert np.array_equal(as_vectors.matrix(n), as_matrices.matrix(n))
    assert all(np.array_equal(u, v) for u, v in zip(as_vectors.unitaries, as_matrices.unitaries))
    # the twist keeps its own copy
    phases[0] = 1.0
    assert as_vectors.column((1, 0), 0) == as_matrices.column((1, 0), 0)
    # a phase vector beside a non-diagonal generator joins the dense family
    rot = mixing_twist(basis, gens).unitaries[0]
    dense = Twist(basis, gens, [rot, np.ones(6)])
    assert np.array_equal(dense.unitaries[1], np.eye(6))
    assert as_vectors.diagonal and as_matrices.diagonal and not dense.diagonal
    for bad in (np.ones(5), np.ones((6, 1))):
        with pytest.raises(ValueError, match="wrong shape"):
            Twist(basis, gens, [bad, np.ones(6)])


def test_twist_needs_one_unitary_per_generator():
    basis = OneParticleBasis(tiny_grid())
    with pytest.raises(ValueError):
        Twist(basis, tiny_gens(), [np.eye(6)])


@pytest.mark.parametrize("family", ("mixed", "poisson"))
def test_twist_powers_match_matrix_powers(family):
    module = tiny_module(family, seed=2)
    twist = module.twist
    u_of = raw_u_of(twist)
    for n in [(0, 0), (1, 0), (0, -1), (2, 1), (-1, 3), (-2, -2)]:
        assert np.allclose(twist.matrix(n), u_of(n), atol=1e-12)
        if family == "poisson":
            # diagonal: each column is the one phase u(n)_bb
            for b in range(6):
                col = twist.column(n, b)
                assert col.keys() == {b}
                assert abs(col[b] - u_of(n)[b, b]) <= 1e-12
    assert np.array_equal(twist.matrix((0, 0)), np.eye(6))
    assert twist.column((0, 0), 4) == {4: 1.0 + 0.0j}
    with pytest.raises(ValueError):
        twist.matrix((1,))


@pytest.mark.parametrize("family", EQUIV_FAMILIES)
def test_twist_pair_matches_minors(family, monkeypatch):
    twist = tiny_module(family).twist
    u_of = raw_u_of(twist)
    rng = np.random.default_rng(17)
    # a few minors per determinant call, so the blocks are exercised too
    monkeypatch.setattr(bimodule, "PAIR_BLOCK", 7)
    for n in [(0, 0), (1, 0), (0, -1), (2, -1), (-1, 3)]:
        u = u_of(n)
        assert twist.pair(n, {(): 2.0j}, {(): 0.5}) == -1.0j
        for k in range(1, 5):
            tuples = list(itertools.combinations(range(6), k))
            for s in tuples:
                for t in tuples:
                    # |t| = 4: one 4 x 4 determinant per pair of tuples
                    minor = np.linalg.det(u[np.ix_(s, t)])
                    assert abs(twist.pair(n, {s: 1.0}, {t: 1.0}) - minor) <= 1e-12, (n, s, t)
            # whole vectors: conj(x_s) y_t summed against every minor
            x = dict(zip(tuples, rng.normal(size=len(tuples)) + 1j * rng.normal(size=len(tuples))))
            y = {t: complex(c) for t, c in x.items() if rng.random() < 0.5}
            want = sum(x[s].conjugate() * c * np.linalg.det(u[np.ix_(s, t)]) for s in x for t, c in y.items())
            assert abs(twist.pair(n, x, y) - want) <= 1e-12 * len(tuples), (n, k)


def test_twist_takes_list_labels():
    twist = tiny_module("delta").twist
    for n in ([1, 0], [0, 0], [-1, 2]):
        label = tuple(n)
        assert np.array_equal(twist.matrix(n), twist.matrix(label))
        for b in range(6):
            assert twist.column(n, b) == twist.column(label, b)
        for t in itertools.combinations(range(6), 2):
            assert twist.pair(n, {t: 1.0}, {t: 2.0}) == twist.pair(label, {t: 1.0}, {t: 2.0})
    # the cache holds tuple keys only
    assert all(type(n) is tuple for n in twist._cache)


@pytest.mark.parametrize("family", ("delta", "poisson"))
def test_diagonal_pair_is_the_phase_product(family):
    # a diagonal u(n) has no minor off its diagonal: two tuples pair only
    # with themselves, by the product of their phases, and others give 0
    twist = tiny_module(family).twist
    assert twist.diagonal
    for n in [(1, 0), (0, -1), (2, -1), (-1, 3)]:
        p = [complex(c) for c in np.diagonal(twist.matrix(n))]
        for k in (1, 2, 3):
            tuples = list(itertools.combinations(range(6), k))
            for t in tuples:
                want = math.prod((p[b] for b in t), start=0.5 - 1.0j)
                assert twist.pair(n, {t: 0.5 + 1.0j}, dict.fromkeys(tuples, 1.0)) == want
                assert twist.pair(n, {t: 1.0}, {s: 1.0 for s in tuples if s != t}) == 0


def test_trivial_twist_identity():
    module = tiny_module("trivial")
    v = OneParticleVector(module.basis, {1: 2.0, 4: -1.0j})
    out = module.twist.apply((3, -2), v)
    assert out.coeffs == v.coeffs


# ---------------------------------------------------------------------------
# left action and inner product


@pytest.mark.parametrize("family", ["delta", "mixed"])
def test_left_action_is_morphism(family):
    module = tiny_module(family)
    rng = random.Random(23)
    for _ in range(15):
        a = rand_weyl(rng, module.gens)
        b = rand_weyl(rng, module.gens)
        f = rand_vector(rng, module)
        lhs = left_action(a, left_action(b, f))
        rhs = left_action(a * b, f)
        assert lhs.close_to(rhs, 1e-12)


def test_left_action_unit_and_linearity():
    module = tiny_module("delta")
    rng = random.Random(31)
    one = WeylElement.unit(module.gens)
    for _ in range(8):
        f = rand_vector(rng, module)
        g = rand_vector(rng, module)
        a = rand_weyl(rng, module.gens)
        assert left_action(one, f).close_to(f)
        assert left_action(a, f + g).close_to(left_action(a, f) + left_action(a, g), 1e-12)


@pytest.mark.parametrize("family", ["delta", "mixed"])
def test_left_action_adjointable(family):
    # <a f, g> = <f, a* g>, the Hilbert-module adjoint of the twisted action
    module = tiny_module(family)
    rng = random.Random(41)
    for _ in range(15):
        a = rand_weyl(rng, module.gens)
        f = rand_vector(rng, module)
        g = rand_vector(rng, module)
        lhs = module_inner(left_action(a, f), g)
        rhs = module_inner(f, left_action(a.adjoint(), g))
        assert lhs.close_to(rhs, 1e-12)


def test_module_inner_laws():
    module = tiny_module("delta")
    rng = random.Random(43)
    for kind in State.KINDS:
        om = State(kind)
        for _ in range(10):
            f = rand_vector(rng, module)
            g = rand_vector(rng, module)
            a = rand_weyl(rng, module.gens)
            # right linearity and hermiticity
            ga = ModuleVector(module, {b: x * a for b, x in g.entries.items()})
            assert module_inner(f, ga).close_to(module_inner(f, g) * a, 1e-12)
            assert module_inner(f, g).adjoint().close_to(module_inner(g, f), 1e-12)
            # positivity through the states
            val = om(module_inner(f, f))
            assert val.real >= -1e-12
            assert abs(val.imag) <= 1e-12


def test_module_inner_diagonal():
    module = tiny_module("trivial")
    a = rand_weyl(random.Random(1), module.gens)
    b = rand_weyl(random.Random(2), module.gens)
    f = module.basis_element(2, a)
    g = module.basis_element(2, b)
    assert module_inner(f, g).close_to(a.adjoint() * b, 1e-14)
    h = module.basis_element(3, b)
    assert module_inner(f, h).is_zero()


def test_module_vector_validation():
    module = tiny_module("trivial")
    with pytest.raises(IndexError):
        ModuleVector(module, {9: WeylElement.unit(module.gens)})
    other = tiny_gens()
    with pytest.raises(ValueError):
        ModuleVector(module, {0: WeylElement.unit(other)})


def test_by_group_and_support():
    module = tiny_module("trivial")
    gens = module.gens
    a = WeylElement.monomial(gens, (1, 0), 2.0) + WeylElement.monomial(gens, (0, 0), 1.0)
    f = ModuleVector(module, {0: a, 4: WeylElement.monomial(gens, (1, 0), -1.0j)})
    split = f.by_group()
    assert set(split) == {(1, 0), (0, 0)}
    assert split[(1, 0)].coeffs == {0: 2.0, 4: -1.0j}
    assert split[(0, 0)].coeffs == {0: 1.0}


# ---------------------------------------------------------------------------
# charge conjugation


def kappa(module, v: OneParticleVector) -> OneParticleVector:
    """Charge conjugation of v in h, through conjugate_vector on v . 1."""
    return conjugate_vector(module.embed(v)).by_group()[module.gens.zero()]


def test_conjugation_matrix_and_involution():
    module = tiny_module("trivial")
    basis = module.basis
    # the index map kappa squares to the identity, so K K = 1
    perm = np.array([basis.conj_index(i) for i in range(6)])
    assert np.array_equal(perm, np.roll(np.arange(6), 3))
    assert np.array_equal(perm[perm], np.arange(6))
    v = OneParticleVector(basis, {0: 1.0 + 2.0j, 4: -1.0})
    w = kappa(module, v)
    assert w.coeffs == {3: 1.0 - 2.0j, 1: -1.0}
    assert kappa(module, w).coeffs == v.coeffs


@pytest.mark.parametrize("family", ["delta", "poisson", "mixed"])
def test_twist_commutes_with_conjugation(family):
    module = tiny_module(family)
    rng = random.Random(53)
    for _ in range(10):
        n = (rng.randint(-2, 2), rng.randint(-2, 2))
        v = OneParticleVector(
            module.basis,
            {rng.randrange(6): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)},
        )
        lhs = module.twist.apply(n, kappa(module, v))
        rhs = kappa(module, module.twist.apply(n, v))
        assert (lhs - rhs).norm() <= 1e-12


def test_conjugate_vector_involution():
    module = tiny_module("delta")
    rng = random.Random(59)
    for _ in range(10):
        f = rand_vector(rng, module)
        assert conjugate_vector(conjugate_vector(f)).close_to(f, 1e-14)


def test_conjugate_vector_entry_map():
    module = tiny_module("trivial")
    a = WeylElement.monomial(module.gens, (1, 0), 1.0 + 1.0j)
    f = module.basis_element(1, a)
    kf = conjugate_vector(f)
    assert set(kf.entries) == {4}
    assert kf.entries[4].close_to(a.adjoint())


# ---------------------------------------------------------------------------
# mutual freeness


def test_free_pair_trivial_twist():
    module = tiny_module("trivial")
    # same group element: eta(n, n) = 0 and the twist is inert
    n = (1, 0)
    f = module.basis_element(0, WeylElement.monomial(module.gens, n))
    g = module.basis_element(2, WeylElement.monomial(module.gens, n))
    rep = mutually_free(f, g)
    assert rep.free
    assert rep.failures == ()


def test_nonfree_weyl_commutator():
    module = tiny_module("trivial")
    f = module.basis_element(0, WeylElement.monomial(module.gens, (1, 0)))
    g = module.basis_element(2, WeylElement.monomial(module.gens, (0, 1)))
    rep = mutually_free(f, g)
    assert not rep.free
    reasons = {r[2] for r in rep.failures}
    assert reasons == {"weyl_commutator"}
    # eta((1,0),(0,1)) = 0.75 is the recorded residual
    assert any(abs(r[3] - 0.75) <= 1e-12 for r in rep.failures)


def test_nonfree_twist_reasons():
    module = tiny_module("delta")
    gens = module.gens
    # generator 0 smears s0 = delta at point 0; the twist phase there is e^{-i}
    moved = module.basis_element(0)  # point 0, + sector
    f = module.basis_element(0, WeylElement.monomial(gens, (1, 0)))
    rep = mutually_free(f, moved)
    assert not rep.free
    reasons = {r[2] for r in rep.failures}
    assert "twist_moves_partner" in reasons
    expected = abs(cmath.exp(-1.0j) - 1.0)  # = 2 sin(1/2)
    res = [r[3] for r in rep.failures if r[2] == "twist_moves_partner"]
    assert any(abs(v - expected) <= 1e-12 for v in res)
    # swapping the roles flips the reported side
    rep2 = mutually_free(moved, f)
    assert "twist_moves_self" in {r[2] for r in rep2.failures}


def test_free_pair_under_delta_twist():
    module = tiny_module("delta")
    gens = module.gens
    # generator 1 smears point 1; a vector at point 2 never feels it
    f = module.basis_element(2, WeylElement.monomial(gens, (0, 1)))
    g = module.basis_element(2)
    # eta((0,1),(0,0)) = 0 and neither twist moves point 2
    assert mutually_free(f, g).free


@given(st.integers(0, 10**6))
def test_embed_roundtrip(seed):
    module = tiny_module("trivial")
    rng = random.Random(seed)
    coeffs = {rng.randrange(6): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))}
    v = OneParticleVector(module.basis, coeffs)
    f = module.embed(v)
    assert set(f.entries) == set(coeffs)
    for b, c in coeffs.items():
        assert f.entries[b].close_to(WeylElement.monomial(module.gens, (0, 0), c))
