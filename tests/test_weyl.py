"""Weyl layer: symplectic pairing, exact group product, states."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockmod.weyl import (
    GeneratorSet,
    GridSpec,
    State,
    TestFunctionPair,
    WeylElement,
    gram_matrix,
    symplectic_form,
)

from _support import tiny_gens, tiny_grid, tiny_pairs, rand_weyl

GENS = tiny_gens()


def wmono(n, c=1.0):
    return WeylElement.monomial(GENS, n, c)


# ---------------------------------------------------------------------------
# grid and symplectic form


def test_grid_coords_roundtrip():
    grid = GridSpec(dimension=2, points_per_axis=4, spacing=0.5)
    assert grid.n_points == 16
    assert grid.cell_volume == 0.25
    for i in range(grid.n_points):
        assert grid.index(grid.coords(i)) == i
    assert grid.coords(0) == (0, 0)
    assert grid.coords(5) == (1, 1)
    with pytest.raises(IndexError):
        grid.coords(16)
    with pytest.raises(IndexError):
        grid.index((4, 0))
    with pytest.raises(ValueError):
        grid.index((1,))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(dimension=0)
    with pytest.raises(ValueError):
        GridSpec(spacing=0.0)
    with pytest.raises(ValueError):
        GridSpec(components=0)
    for spacing in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(spacing=spacing)


def test_symplectic_point_masses():
    # eta((d2, 0), (0, d2)) = sum (s1 t0 - s0 t1) h = -1 at unit spacing
    grid = GridSpec(dimension=1, points_per_axis=3, spacing=1.0)
    s = TestFunctionPair(grid, [0, 0, 1.0], [0, 0, 0])
    t = TestFunctionPair(grid, [0, 0, 0], [0, 0, 1.0])
    assert symplectic_form(s, t) == -1.0
    assert symplectic_form(t, s) == 1.0
    # quadrature weight scales with the cell volume
    grid2 = GridSpec(dimension=1, points_per_axis=3, spacing=0.5)
    s2 = TestFunctionPair(grid2, [0, 0, 1.0], [0, 0, 0])
    t2 = TestFunctionPair(grid2, [0, 0, 0], [0, 0, 1.0])
    assert symplectic_form(s2, t2) == -0.5


def test_symplectic_antisymmetry():
    grid = tiny_grid()
    rng = np.random.RandomState(3)
    for _ in range(10):
        s = TestFunctionPair(grid, rng.randn(3), rng.randn(3))
        t = TestFunctionPair(grid, rng.randn(3), rng.randn(3))
        assert symplectic_form(s, s) == 0.0
        assert abs(symplectic_form(s, t) + symplectic_form(t, s)) <= 1e-15
        s2 = TestFunctionPair(grid, 2.0 * s.s0, 2.0 * s.s1)
        assert abs(symplectic_form(s2, t) - 2.0 * symplectic_form(s, t)) <= 1e-12


def test_generator_gram_and_eta():
    g = GENS.gram
    assert g.shape == (2, 2)
    assert g[0, 0] == 0.0 and g[1, 1] == 0.0
    assert g[0, 1] == 0.75 and g[1, 0] == -0.75
    # bilinear extension agrees with the form on combined pairs
    for n in [(1, 0), (0, 1), (2, -1), (-1, 2)]:
        for m in [(1, 1), (0, -2), (1, -1)]:
            direct = symplectic_form(GENS.combine(n), GENS.combine(m))
            assert abs(GENS.eta(n, m) - direct) <= 1e-12


def test_generator_validation():
    grid = tiny_grid()
    a = TestFunctionPair(grid, [1.0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        GeneratorSet(grid, [])
    with pytest.raises(ValueError):
        GeneratorSet(grid, [a, TestFunctionPair(grid, [2.0, 0, 0], [0, 0, 0])])  # dependent
    other = GridSpec(dimension=1, points_per_axis=4)
    with pytest.raises(ValueError):
        GeneratorSet(other, [a])
    with pytest.raises(ValueError):
        TestFunctionPair(grid, [1.0, 0], [0, 0, 0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="test function values must be finite"):
            TestFunctionPair(grid, [bad, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="test function values must be finite"):
            TestFunctionPair(grid, [1.0, 0, 0], [0, bad, 0])


# ---------------------------------------------------------------------------
# exact algebra


def test_product_single_exact_key():
    prod = wmono((1, 0)) * wmono((0, 1))
    assert set(prod.terms) == {(1, 1)}
    # frozen: eta((1,0),(0,1)) = 0.75, phase exp(i 0.375)
    assert abs(prod.terms[(1, 1)] - cmath.exp(0.375j)) <= 1e-15
    rev = wmono((0, 1)) * wmono((1, 0))
    assert abs(rev.terms[(1, 1)] - cmath.exp(-0.375j)) <= 1e-15


def test_product_associative():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_weyl(rng, GENS)
        b = rand_weyl(rng, GENS)
        c = rand_weyl(rng, GENS)
        assert ((a * b) * c).close_to(a * (b * c), 1e-13)


def test_monomials_unitary():
    for n in [(1, 0), (0, 1), (2, -1), (-3, 2)]:
        w = wmono(n)
        assert (w.adjoint() * w).close_to(WeylElement.unit(GENS), 1e-14)
        assert (w * w.adjoint()).close_to(WeylElement.unit(GENS), 1e-14)


def test_adjoint_laws():
    a = wmono((1, -1), 0.5 - 0.25j)
    assert set(a.adjoint().terms) == {(-1, 1)}
    assert a.adjoint().terms[(-1, 1)] == (0.5 + 0.25j)
    rng = random.Random(7)
    for _ in range(20):
        x = rand_weyl(rng, GENS)
        y = rand_weyl(rng, GENS)
        assert x.adjoint().adjoint().close_to(x, 1e-14)
        assert (x * y).adjoint().close_to(y.adjoint() * x.adjoint(), 1e-13)
        assert (x + y).adjoint().close_to(x.adjoint() + y.adjoint(), 1e-14)


def test_unit_zero_scalar():
    one = WeylElement.unit(GENS)
    zero = WeylElement.zero(GENS)
    a = wmono((1, 0), 2.0) + wmono((0, 1), -1.0j)
    assert (one * a).close_to(a) and (a * one).close_to(a)
    assert (zero * a).is_zero() and (a * zero).is_zero()
    assert (2.0 * a).close_to(a * 2.0)
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert a.terms == {(1, 0): 2.0, (0, 1): -1.0j}


def test_mismatched_generators_rejected():
    other = GeneratorSet(tiny_grid(), [TestFunctionPair(tiny_grid(), [1.0, 0, 0], [0, 0, 0])])
    with pytest.raises(ValueError):
        wmono((1, 0)) * WeylElement.monomial(other, (1,))
    with pytest.raises(ValueError):
        WeylElement(GENS, {(1,): 1.0})  # wrong exponent length


# ---------------------------------------------------------------------------
# states


def test_tracial_state():
    om = State("tracial")
    assert om(WeylElement.unit(GENS)) == 1.0
    assert om(wmono((1, 0))) == 0.0
    a = wmono((1, 0), 0.5) + wmono((0, 1), -2.0j) + wmono((0, 0), 1.0)
    # omega(a* a) picks out the diagonal, sum |c|^2
    val = om(a.adjoint() * a)
    assert abs(val - (0.25 + 4.0 + 1.0)) <= 1e-13
    assert abs(val.imag) <= 1e-13


def test_quasifree_value_frozen():
    # one generator (point mass, amplitude 1): q(s_n) = n^2, value e^{-n^2/4}
    grid = tiny_grid()
    gens = GeneratorSet(grid, [TestFunctionPair(grid, [0, 0, 1.0], [0, 0, 0])])
    om = State("quasifree")
    assert om.value(gens, (0,)) == 1.0
    assert abs(om.value(gens, (1,)) - math.exp(-0.25)) <= 1e-15
    assert abs(om.value(gens, (-1,)) - math.exp(-0.25)) <= 1e-15
    assert abs(om.value(gens, (2,)) - math.exp(-1.0)) <= 1e-15


def test_quasifree_value_cached_per_label(monkeypatch):
    grid = tiny_grid()
    gens = GeneratorSet(grid, tiny_pairs(grid))
    fresh = GeneratorSet(grid, tiny_pairs(grid))
    om = State("quasifree")
    labels = [(1, 0), (0, 1), (1, 1), (2, -1)]
    want = [om.value(fresh, n) for n in labels]
    combined = []
    combine = GeneratorSet.combine

    def counted(self, n):
        combined.append(n)
        return combine(self, n)

    monkeypatch.setattr(GeneratorSet, "combine", counted)
    for _ in range(3):
        assert [om.value(gens, n) for n in labels] == want
    assert combined == labels


def test_quasifree_bounded_by_one():
    om = State("quasifree")
    for n in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        v = om.value(GENS, n)
        assert abs(v) < 1.0
        assert v.imag == 0.0


def test_state_validation():
    with pytest.raises(ValueError):
        State("thermal")


def test_gram_psd_both_states():
    rng = random.Random(19)
    elems = [rand_weyl(rng, GENS, max_terms=3) for _ in range(6)]
    for kind in State.KINDS:
        g = gram_matrix(State(kind), elems)
        eig = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
        assert eig.min() >= -1e-10


# ---------------------------------------------------------------------------
# property tests

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(exponents, exponents)
def test_product_is_group_law(n, m):
    prod = wmono(n) * wmono(m)
    key = (n[0] + m[0], n[1] + m[1])
    assert set(prod.terms) == {key}
    assert abs(abs(prod.terms[key]) - 1.0) <= 1e-14


@given(exponents)
def test_adjoint_negates_exponent(n):
    w = wmono(n, 0.3 + 0.4j)
    adj = w.adjoint()
    assert set(adj.terms) == {(-n[0], -n[1])}
    assert adj.adjoint().close_to(w, 1e-15)


@given(st.integers(0, 10**6))
def test_close_to_is_tolerant_equality(seed):
    rng = random.Random(seed)
    a = rand_weyl(rng, GENS, max_terms=3)
    assert a.close_to(a)
    b = a + wmono((0, 0), 1e-15)
    assert a.close_to(b) and b.close_to(a)
    c = a + wmono((1, 1), 1.0)
    assert not a.close_to(c)
