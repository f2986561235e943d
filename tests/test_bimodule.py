"""Free bimodule layer: index layout, twist admissibility, twisted left
action, algebra-valued inner product, charge conjugation, freeness."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockmod.weyl import GridSpec, State, WeylElement
from fockmod.bimodule import (
    Conjugation,
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
    trivial_twist,
)

from _support import (
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
    assert basis.point_of(4) == 1
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
        assert basis.point_of(basis.conj_index(i)) == basis.point_of(i)


def test_one_particle_vector_arithmetic():
    basis = OneParticleBasis(tiny_grid())
    v = OneParticleVector(basis, {0: 1.0, 2: -2.0j})
    w = OneParticleVector.basis_vector(basis, 2)
    assert (v + w).coeffs[2] == 1.0 - 2.0j
    assert (v - v).coeffs == {}
    assert (2.0 * v).coeffs[2] == -4.0j
    assert v.inner(w) == 2.0j  # antilinear in the first slot
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
    # non-finite entries, in a diagonal family and in a dense one
    for bad in (math.nan, math.inf):
        phases = np.exp(1j * np.array([0.3, 1.1, 2.0, -0.3, -1.1, -2.0]))
        phases[1] = phases[4] = bad
        with pytest.raises(ValueError, match="not unitary"):
            Twist(basis, gens, [np.eye(6), np.diag(phases)])
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
            assert module_inner(f, g.right_mul(a)).close_to(module_inner(f, g) * a, 1e-12)
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


def test_right_action_associative():
    module = tiny_module("mixed")
    rng = random.Random(47)
    for _ in range(10):
        f = rand_vector(rng, module)
        a = rand_weyl(rng, module.gens)
        b = rand_weyl(rng, module.gens)
        assert f.right_mul(a).right_mul(b).close_to(f.right_mul(a * b), 1e-12)


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


def test_conjugation_matrix_and_involution():
    basis = OneParticleBasis(tiny_grid())
    conj = Conjugation(basis)
    k = conj.matrix()
    assert np.array_equal(k @ k, np.eye(6))
    v = OneParticleVector(basis, {0: 1.0 + 2.0j, 4: -1.0})
    w = conj.apply(v)
    assert w.coeffs == {3: 1.0 - 2.0j, 1: -1.0}
    assert conj.apply(w).coeffs == v.coeffs


@pytest.mark.parametrize("family", ["delta", "poisson", "mixed"])
def test_twist_commutes_with_conjugation(family):
    module = tiny_module(family)
    conj = module.conj
    rng = random.Random(53)
    for _ in range(10):
        n = (rng.randint(-2, 2), rng.randint(-2, 2))
        v = OneParticleVector(
            module.basis,
            {rng.randrange(6): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)},
        )
        lhs = module.twist.apply(n, conj.apply(v))
        rhs = conj.apply(module.twist.apply(n, v))
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
    assert rep.free and bool(rep)
    assert rep.failures == ()


def test_nonfree_weyl_commutator():
    module = tiny_module("trivial")
    f = module.basis_element(0, WeylElement.monomial(module.gens, (1, 0)))
    g = module.basis_element(2, WeylElement.monomial(module.gens, (0, 1)))
    rep = mutually_free(f, g)
    assert not rep.free and not bool(rep)
    reasons = {r[2] for r in rep.failures}
    assert reasons == {"weyl_commutator"}
    # eta((1,0),(0,1)) = 0.75 is the recorded residual
    assert any(abs(r[3] - 0.75) <= 1e-12 for r in rep.failures)


def test_nonfree_twist_reasons():
    module = tiny_module("delta")
    gens = module.gens
    # generator 0 smears s0 = delta at point 0; the twist phase there is e^{-i}
    moved = module.basis_element(0)  # point 0, + sector
    f = moved.right_mul(WeylElement.monomial(gens, (1, 0)))
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
