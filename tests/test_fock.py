"""Fock layer: canonical antisymmetric calculus, creation and
annihilation, GNS evaluation, symbolic field operators."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from fockmod.weyl import State, WeylElement
from fockmod.bimodule import OneParticleVector, conjugate_vector, module_inner
from fockmod.fock import (
    AntisymmetricElement,
    FockElement,
    TensorElement,
    annihilate,
    annihilation,
    anticommutator,
    antisym_inner,
    antisymmetrize,
    commutator,
    create,
    creation,
    dirac,
    fock_from_antisymmetric,
    fock_left_action,
    fock_right_mul,
    gns_inner,
    gns_norm,
    operator_matrix,
    project_antisymmetric,
    tensor_inner,
    tensor_of,
    vacuum,
    weyl_mult,
)

from _support import rand_vector, rand_weyl, rand_wedge, tiny_module

SQ2 = math.sqrt(2.0)


def unit_of(module):
    return WeylElement.unit(module.gens)


def basis_fock(module, t, truncation=3, coeff=None):
    coeff = coeff if coeff is not None else unit_of(module)
    return FockElement(module, truncation, {len(t): {tuple(t): coeff}})


# ---------------------------------------------------------------------------
# antisymmetric calculus


def test_antisymmetrize_worked():
    module = tiny_module("trivial")
    one = unit_of(module)
    t = TensorElement(module, 2, {(0, 1): one})
    p = antisymmetrize(t)
    assert p.terms[(0, 1)].close_to(0.5 * one)
    assert p.terms[(1, 0)].close_to(-0.5 * one)
    # projecting stores only the increasing representative
    a = project_antisymmetric(t)
    assert set(a.terms) == {(0, 1)}
    assert a.terms[(0, 1)].close_to(0.5 * one)


def test_repeated_slots_die():
    module = tiny_module("trivial")
    t = TensorElement(module, 2, {(2, 2): unit_of(module)})
    assert project_antisymmetric(t).terms == {}


def test_projection_idempotent():
    module = tiny_module("mixed")
    rng = random.Random(5)
    for _ in range(10):
        l = rng.randint(1, 3)
        terms = {
            tuple(rng.randrange(6) for _ in range(l)): rand_weyl(rng, module.gens)
            for _ in range(3)
        }
        t = TensorElement(module, l, terms)
        once = antisymmetrize(t)
        twice = antisymmetrize(once)
        assert twice.close_to(once, 1e-12)


@given(st.integers(0, 10**6))
def test_expand_project_roundtrip(seed):
    module = tiny_module("trivial")
    rng = random.Random(seed)
    l = rng.randint(1, 3)
    v = rand_wedge(rng, module, l).level(l)
    back = project_antisymmetric(v.expand())
    assert back.close_to(v, 1e-12)


def test_antisym_inner_factorial():
    module = tiny_module("trivial")
    one = unit_of(module)
    v = AntisymmetricElement(module, 2, {(0, 1): one})
    val = antisym_inner(v, v)
    assert val.close_to(2.0 * one)  # level! on equal tuples


# ---------------------------------------------------------------------------
# creation and annihilation, worked cases


def test_create_on_vacuum():
    module = tiny_module("trivial")
    out = create(module.basis_element(0), vacuum(module, 3))
    assert sorted(out.parts) == [1]
    assert out.level(1).terms[(0,)].close_to(unit_of(module))


def test_create_twice_is_wedge():
    module = tiny_module("trivial")
    om = vacuum(module, 3)
    e0 = module.basis_element(0)
    e1 = module.basis_element(1)
    w01 = create(e0, create(e1, om))
    assert set(w01.level(2).terms) == {(0, 1)}
    assert w01.level(2).terms[(0, 1)].close_to((1.0 / SQ2) * unit_of(module))
    # reversed order flips the sign
    w10 = create(e1, create(e0, om))
    assert w10.level(2).terms[(0, 1)].close_to((-1.0 / SQ2) * unit_of(module))
    assert (w01 + w10).is_zero()
    # unit vectors wedge to a unit GNS vector
    assert abs(gns_norm(w01, State("tracial")) - 1.0) <= 1e-15


def test_pauli_exclusion_plain():
    module = tiny_module("trivial")
    e0 = module.basis_element(0)
    assert create(e0, create(e0, vacuum(module, 3))).is_zero()


def test_create_carries_group_coefficient():
    module = tiny_module("delta")
    gens = module.gens
    n = (1, 0)
    f = module.basis_element(0, WeylElement.monomial(gens, n))
    out = create(f, vacuum(module, 3))
    assert out.level(1).terms[(0,)].close_to(WeylElement.monomial(gens, n))
    # the standing slot is rotated by u(n): point 0 picks up e^{-i}
    out2 = create(f, basis_fock(module, (1,)))
    (key,) = set(out2.level(2).terms)
    assert key == (0, 1)
    phase = module.twist.matrix(n)[1, 1]
    expect = (phase / SQ2) * WeylElement.monomial(gens, n)
    assert out2.level(2).terms[key].close_to(expect, 1e-14)


def test_annihilate_inverts_on_wedge():
    # w01 = a*(e0) a*(e1) vac; contracting e1 walks past the first
    # creator and picks up the fermionic sign, contracting e0 does not
    module = tiny_module("trivial")
    om = vacuum(module, 3)
    e0 = module.basis_element(0)
    e1 = module.basis_element(1)
    w01 = create(e0, create(e1, om))
    back = annihilate(e1, w01)
    assert back.close_to(-1.0 * create(e0, om), 1e-14)
    swapped = annihilate(e0, w01)
    assert swapped.close_to(create(e1, om), 1e-14)


def test_annihilate_vacuum_is_zero():
    module = tiny_module("trivial")
    assert annihilate(module.basis_element(0), vacuum(module, 3)).is_zero()


def test_car_residuals_exact_zero():
    # trivial twist, plain vectors: the relations close with residual 0
    module = tiny_module("trivial")
    state = State("tracial")
    f = module.basis_element(0)
    g = module.basis_element(0) + module.basis_element(2)
    mixed = anticommutator(annihilation(f), creation(g)) - weyl_mult(
        module, module_inner(f, g)
    )
    probes = [vacuum(module, 3), basis_fock(module, (1,)), basis_fock(module, (0, 2))]
    for v in probes:
        assert gns_norm(mixed.apply(v), state) == 0.0
        assert gns_norm(anticommutator(creation(f), creation(g)).apply(v), state) == 0.0


def test_adjoint_check_random():
    rng = random.Random(61)
    for family in ("delta", "mixed"):
        module = tiny_module(family)
        for kind in State.KINDS:
            st_ = State(kind)
            for _ in range(8):
                f = rand_vector(rng, module)
                v = rand_wedge(rng, module, rng.randint(1, 2))
                w = rand_wedge(rng, module, rng.randint(1, 3))
                lhs = gns_inner(v, annihilate(f, w), st_)
                assert abs(lhs - gns_inner(create(f, v), w, st_)) <= 1e-12


# ---------------------------------------------------------------------------
# left/right actions on Fock elements


def test_fock_left_action_morphism():
    module = tiny_module("poisson")
    rng = random.Random(67)
    for _ in range(10):
        a = rand_weyl(rng, module.gens)
        b = rand_weyl(rng, module.gens)
        v = rand_wedge(rng, module, rng.randint(1, 3))
        lhs = fock_left_action(a, fock_left_action(b, v))
        rhs = fock_left_action(a * b, v)
        assert lhs.close_to(rhs, 1e-12)


def test_left_action_level_zero_is_product():
    module = tiny_module("delta")
    a = rand_weyl(random.Random(3), module.gens)
    c = rand_weyl(random.Random(4), module.gens)
    out = fock_left_action(a, vacuum(module, 3, c))
    assert out.scalar.close_to(a * c, 1e-13)


def test_actions_commute():
    # left and right multiplications act on opposite sides
    module = tiny_module("delta")
    rng = random.Random(71)
    for _ in range(10):
        a = rand_weyl(rng, module.gens)
        b = rand_weyl(rng, module.gens)
        v = rand_wedge(rng, module, 2)
        lhs = fock_right_mul(fock_left_action(a, v), b)
        rhs = fock_left_action(a, fock_right_mul(v, b))
        assert lhs.close_to(rhs, 1e-12)


def test_creation_intertwines_with_left_action():
    # W(n) a*(w) = a*(u(n) w) W(n) on plain one-particle arguments
    module = tiny_module("delta")
    gens = module.gens
    state = State("tracial")
    rng = random.Random(73)
    for _ in range(6):
        n = (rng.randint(-1, 1), rng.randint(-1, 1))
        mono = WeylElement.monomial(gens, n)
        wv = OneParticleVector(
            module.basis,
            {rng.randrange(6): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))},
        )
        f = module.embed(wv)
        fu = module.embed(module.twist.apply(n, wv))
        probe = rand_wedge(rng, module, 2)
        lhs = weyl_mult(module, mono) @ creation(f)
        rhs = creation(fu) @ weyl_mult(module, mono)
        assert gns_norm((lhs - rhs).apply(probe), state) <= 1e-12


# ---------------------------------------------------------------------------
# truncation window


def test_create_above_truncation_drops_and_flags():
    module = tiny_module("trivial")
    top = basis_fock(module, (0, 1, 2), truncation=3)
    out = create(module.basis_element(3), top)
    assert out.is_zero()
    assert out.truncated
    # the flag survives further operations
    again = annihilate(module.basis_element(0), out + basis_fock(module, (0, 1)))
    assert again.truncated


def test_fock_arithmetic_and_guards():
    module = tiny_module("trivial")
    v = basis_fock(module, (0, 1))
    w = basis_fock(module, (0, 2))
    s = v + w
    assert set(s.level(2).terms) == {(0, 1), (0, 2)}
    assert (2.0 * v - v - v).is_zero()
    assert sorted(v.parts) == [2]
    with pytest.raises(ValueError):
        v._require_same(basis_fock(module, (0, 1), truncation=2))
    with pytest.raises(ValueError):
        v.level(0)
    with pytest.raises(ValueError):
        fock_from_antisymmetric(AntisymmetricElement(module, 3, {}), 2)


# ---------------------------------------------------------------------------
# GNS evaluation


def test_gns_inner_levelwise():
    module = tiny_module("trivial")
    one = unit_of(module)
    state = State("tracial")
    v = vacuum(module, 3) + basis_fock(module, (0, 1))
    w = basis_fock(module, (0, 1))
    # only the shared level contributes, with the 2! factor
    assert gns_inner(v, w, state) == 2.0
    assert gns_inner(vacuum(module, 3), w, state) == 0.0
    assert abs(gns_norm(w, state) - SQ2) <= 1e-15


def test_gns_cauchy_schwarz():
    module = tiny_module("mixed")
    rng = random.Random(79)
    for kind in State.KINDS:
        state = State(kind)
        for _ in range(10):
            v = rand_wedge(rng, module, 2) + rand_wedge(rng, module, 1)
            w = rand_wedge(rng, module, 2)
            nv = gns_inner(v, v, state).real
            nw = gns_inner(w, w, state).real
            assert nv >= -1e-12 and nw >= -1e-12
            assert abs(gns_inner(v, w, state)) ** 2 <= nv * nw + 1e-9


# ---------------------------------------------------------------------------
# symbolic operators


def test_field_operator_algebra():
    module = tiny_module("delta")
    state = State("tracial")
    rng = random.Random(83)
    f = rand_vector(rng, module)
    g = rand_vector(rng, module)
    A = creation(f) + 2.0j * annihilation(g)
    B = weyl_mult(module, rand_weyl(rng, module.gens))
    v = rand_wedge(rng, module, 2)
    # composition applies right to left
    assert (A @ B).apply(v).close_to(A.apply(B.apply(v)), 1e-12)
    assert (A + B).apply(v).close_to(A.apply(v) + B.apply(v), 1e-12)
    assert (A - A).apply(v).is_zero()
    assert commutator(A, B).apply(v).close_to(
        (A @ B).apply(v) - (B @ A).apply(v), 1e-12
    )
    # adjoint against the GNS pairing
    w = rand_wedge(rng, module, 2)
    lhs = gns_inner(v, (A @ B).apply(w), state)
    rhs = gns_inner((A @ B).adjoint().apply(v), w, state)
    assert abs(lhs - rhs) <= 1e-12


def test_field_operator_equivalent():
    module = tiny_module("trivial")
    f = module.basis_element(0)
    g = module.basis_element(1)
    A = creation(f) + annihilation(g)
    B = annihilation(g) + creation(f)
    assert A.equivalent(B)
    assert not A.equivalent(creation(f))
    assert not A.equivalent(creation(f) + annihilation(f))


def test_dirac_adjoint_is_conjugation():
    module = tiny_module("delta")
    rng = random.Random(89)
    for _ in range(8):
        f = rand_vector(rng, module)
        assert dirac(f).adjoint().equivalent(dirac(conjugate_vector(f)), 1e-12)


def test_dirac_bracket_sector_structure():
    # two + sector fields anticommute outright: both pairings vanish
    module = tiny_module("trivial")
    state = State("tracial")
    f = module.basis_element(0)
    g = module.basis_element(1)
    op = anticommutator(dirac(f), dirac(g))
    assert gns_norm(op.apply(vacuum(module, 3)), state) == 0.0
    assert gns_norm(op.apply(basis_fock(module, (0, 1))), state) == 0.0
    # pairing f with its conjugate partner closes to the identity
    op2 = anticommutator(dirac(f), dirac(conjugate_vector(f)))
    for probe in (vacuum(module, 3), basis_fock(module, (1, 2))):
        assert op2.apply(probe).close_to(probe, 1e-12)


def test_operator_matrix_norms():
    module = tiny_module("trivial")
    state = State("tracial")
    basis = [vacuum(module, 3)] + [basis_fock(module, (i,)) for i in range(3)]
    ident = weyl_mult(module, unit_of(module))
    res = operator_matrix(ident, basis, state)
    assert not res.degenerate and res.rank == 4
    assert abs(res.norm_estimate - 1.0) <= 1e-12
    # annihilator of a unit vector has compression norm 1
    res2 = operator_matrix(annihilation(module.basis_element(1)), basis, state)
    assert abs(res2.norm_estimate - 1.0) <= 1e-10
    # duplicated directions are flagged, not inverted through
    res3 = operator_matrix(ident, basis + [basis[1]], state)
    assert res3.degenerate and res3.rank == 4


def test_nonfock_nested_vs_slotwise():
    # coefficients inside the tensor cancel; slotwise evaluation cannot
    module = tiny_module("delta")
    gens = module.gens
    state = State("tracial")
    n = (1, 0)
    f1 = module.basis_element(0, WeylElement.monomial(gens, n))
    f2 = module.basis_element(1, WeylElement.monomial(gens, (-1, 0)))
    g1 = module.basis_element(0)
    g2 = module.basis_element(1)
    nested = state(tensor_inner(tensor_of([f1, f2]), tensor_of([g1, g2])))
    slotwise = state(module_inner(f1, g1)) * state(module_inner(f2, g2))
    assert abs(nested - slotwise) == 1.0


def test_tensor_of_crossing_twist():
    # a group coefficient crossing a slot rotates it
    module = tiny_module("delta")
    gens = module.gens
    n = (1, 0)
    f1 = module.basis_element(0, WeylElement.monomial(gens, n))
    f2 = module.basis_element(0)
    t = tensor_of([f1, f2])
    (key,) = set(t.terms)
    assert key == (0, 0)
    phase = module.twist.matrix(n)[0, 0]  # e^{-i} at the smeared point
    assert t.terms[key].close_to(phase * WeylElement.monomial(gens, n), 1e-14)
