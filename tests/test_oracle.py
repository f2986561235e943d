"""Self-checks for the dense reference operators.

The reference layer shares only the exact Weyl algebra with the engine;
these tests pin down its own behavior (projection identities, worked
creation values, adjointness through the states) before it is trusted
as the comparison target.
"""

import math
import random

import pytest

from fockmod.weyl import State, WeylElement
from fockmod.oracle import (
    DenseTensor,
    oracle_annihilate,
    oracle_antisymmetrize,
    oracle_fermi_annihilate,
    oracle_fermi_create,
    oracle_left_mult,
    oracle_nested_inner,
)

from _support import rand_weyl, raw_u_of, tiny_gens, tiny_module

GENS = tiny_gens()
DIM = 6
SQ2 = math.sqrt(2.0)


def unit():
    return WeylElement.unit(GENS)


def dense(level, terms):
    return DenseTensor.from_terms(GENS, DIM, level, terms)


def rand_dense(rng, level, entries=2):
    terms = {}
    for _ in range(entries):
        idx = tuple(rng.randrange(DIM) for _ in range(level))
        terms[idx] = rand_weyl(rng, GENS)
    return dense(level, terms)


def identity_u(n):
    import numpy as np

    return np.eye(DIM, dtype=complex)


# ---------------------------------------------------------------------------
# container behavior


def test_dense_tensor_guards():
    with pytest.raises(ValueError):
        DenseTensor(GENS, 7, 1)
    with pytest.raises(ValueError):
        DenseTensor(GENS, 6, 5)
    with pytest.raises(ValueError):
        DenseTensor(GENS, 6, 0)


def test_dense_roundtrip_and_accumulation():
    t = dense(2, {(0, 1): unit()})
    t.add_into((0, 1), unit())
    assert t.to_terms()[(0, 1)].close_to(2.0 * unit())
    assert set(dict(t.nonzero())) == {(0, 1)}
    assert t.close_to(dense(2, {(0, 1): 2.0 * unit()}))
    assert t.max_deviation(dense(2, {})) == 2.0


# ---------------------------------------------------------------------------
# projection


def test_antisymmetrize_signs():
    t = dense(2, {(0, 1): unit()})
    p = oracle_antisymmetrize(t)
    out = p.to_terms()
    assert out[(0, 1)].close_to(0.5 * unit())
    assert out[(1, 0)].close_to(-0.5 * unit())


def test_antisymmetrize_kills_diagonal():
    t = dense(2, {(2, 2): unit()})
    assert not list(oracle_antisymmetrize(t).nonzero())


def test_antisymmetrize_idempotent():
    rng = random.Random(13)
    for _ in range(6):
        level = rng.randint(1, 3)
        t = rand_dense(rng, level, 3)
        once = oracle_antisymmetrize(t)
        twice = oracle_antisymmetrize(once)
        assert twice.close_to(once, 1e-12)


# ---------------------------------------------------------------------------
# worked creation / annihilation


def test_fermi_create_worked():
    t = dense(1, {(1,): unit()})
    out = oracle_fermi_create({0: unit()}, t, identity_u)
    terms = out.to_terms()
    assert set(terms) == {(0, 1), (1, 0)}
    assert terms[(0, 1)].close_to((1.0 / SQ2) * unit())
    assert terms[(1, 0)].close_to((-1.0 / SQ2) * unit())


def test_fermi_annihilate_recovers():
    t = dense(1, {(1,): unit()})
    wedge = oracle_fermi_create({0: unit()}, t, identity_u)
    back = oracle_fermi_annihilate({0: unit()}, wedge, identity_u)
    assert back.close_to(t, 1e-14)


def test_annihilate_level_one_is_algebra_element():
    a = WeylElement.monomial(GENS, (1, 0), 2.0)
    t = dense(1, {(3,): a})
    got = oracle_annihilate({3: unit()}, t, identity_u)
    assert isinstance(got, WeylElement)
    assert got.close_to(a)
    missed = oracle_annihilate({0: unit()}, t, identity_u)
    assert missed.is_zero()


def test_create_contracts_back_with_coefficient():
    # <f| f x t recovers t scaled by <f, f>, here a group monomial norm
    mono = WeylElement.monomial(GENS, (0, 1))
    t = dense(1, {(2,): unit()})
    up = oracle_fermi_create({4: mono}, t, identity_u)
    down = oracle_fermi_annihilate({4: mono}, up, identity_u)
    # <f, f> = W(m)* W(m) = 1; the wedge passes through untouched
    assert down.close_to(t, 1e-13)


# ---------------------------------------------------------------------------
# left action and nested product


def test_left_mult_is_morphism():
    module = tiny_module("mixed")
    u_of = raw_u_of(module.twist)
    rng = random.Random(17)
    for _ in range(5):
        a = rand_weyl(rng, module.gens)
        b = rand_weyl(rng, module.gens)
        t = rand_dense(rng, rng.randint(1, 2))
        lhs = oracle_left_mult(a, oracle_left_mult(b, t, u_of), u_of)
        rhs = oracle_left_mult(a * b, t, u_of)
        assert lhs.max_deviation(rhs) <= 1e-12


def test_nested_inner_plain_slots_collapse():
    a = rand_weyl(random.Random(23), GENS)
    b = rand_weyl(random.Random(29), GENS)
    v = dense(2, {(0, 3): a})
    w = dense(2, {(0, 3): b})
    val = oracle_nested_inner(v, w, identity_u)
    assert val.close_to(a.adjoint() * b, 1e-13)
    # mismatched slots contribute nothing under the trivial twist
    w2 = dense(2, {(0, 4): b})
    assert oracle_nested_inner(v, w2, identity_u).is_zero()


@pytest.mark.parametrize("family", ["trivial", "delta", "mixed"])
def test_oracle_adjointness_self_consistency(family):
    # <v, a(f) w> = <a*(f) v, w> through the nested product and states
    module = tiny_module(family)
    u_of = raw_u_of(module.twist)
    gens = module.gens
    rng = random.Random(31)
    states = [State(k) for k in State.KINDS]
    for i in range(8):
        level = rng.randint(1, 2)
        v = oracle_antisymmetrize(rand_dense(rng, level))
        w = oracle_antisymmetrize(rand_dense(rng, level + 1))
        f = {rng.randrange(DIM): rand_weyl(rng, gens)}
        down = oracle_fermi_annihilate(f, w, u_of)
        up = oracle_fermi_create(f, v, u_of)
        st = states[i % 2]
        lhs = st(oracle_nested_inner(v, down, u_of))
        rhs = st(oracle_nested_inner(up, w, u_of))
        assert abs(lhs - rhs) <= 1e-10
