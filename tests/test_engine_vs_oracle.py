"""Canonical engine against the dense reference, operation by operation.

Every twist family gets the same battery: random single-level elements
pushed through both implementations, compared entrywise after expanding
the canonical storage to full signed index arrays.
"""

import random

import pytest

from fockmod.weyl import State, WeylElement
from fockmod.fock import annihilate, create, fock_inner, gns_inner, vacuum
from fockmod.oracle import DenseTensor, oracle_create, oracle_nested_inner

from _support import (
    EQUIV_FAMILIES,
    EQUIV_OPS,
    dense_from_level,
    rand_wedge,
    rand_weyl,
    raw_u_of,
    run_equivalence,
    tiny_module,
    weyl_dev,
)

TOL = 1e-10


@pytest.mark.parametrize("family", EQUIV_FAMILIES)
def test_engine_matches_reference(family):
    module = tiny_module(family)
    worst = run_equivalence(module, seed=101, cases_per_op=12)
    assert set(worst) == set(EQUIV_OPS)
    for op, dev in worst.items():
        assert dev <= TOL, (family, op, dev)


@pytest.mark.parametrize("family", ["delta", "mixed"])
def test_nonfock_nested_matches_oracle(family):
    # check_nonfock's pairing <a*(f1) a*(f2) Omega, a*(g1) a*(g2) Omega>
    # against the plain nested product of f1 x f2 with g1 x g2.  With
    # g1 = e_x, g2 = e_y and f1 in e_x . A the swapped terms of the wedges
    # never share a first slot, so the two agree; oracle_create carries a
    # ladder factor sqrt 2 on each side.
    module = tiny_module(family)
    gens = module.gens
    dim = module.basis.dim
    u_of = raw_u_of(module.twist)
    vac = vacuum(module)

    def plain(a, b):
        seed = DenseTensor.from_terms(gens, dim, 1, {(i,): c for i, c in b.entries.items()})
        return oracle_create(a.entries, seed, u_of)

    rng = random.Random(7)
    cases = [(0, 1, WeylElement.monomial(gens, (1, 0)), WeylElement.monomial(gens, (-1, 0)))]
    for _ in range(10):
        x, y = rng.sample(range(dim), 2)
        cases.append((x, y, rand_weyl(rng, gens), rand_weyl(rng, gens)))
    for x, y, a, b in cases:
        f1, f2 = module.basis_element(x, a), module.basis_element(y, b)
        g1, g2 = module.basis_element(x), module.basis_element(y)
        nested = fock_inner(annihilate(g2, annihilate(g1, create(f1, create(f2, vac)))), vac)
        ref = oracle_nested_inner(plain(f1, f2), plain(g1, g2), u_of)
        assert not nested.is_zero()
        assert weyl_dev(nested, 0.5 * ref) <= 1e-12


def test_gns_values_match_reference():
    module = tiny_module("poisson")
    u_of = raw_u_of(module.twist)
    rng = random.Random(43)
    for i in range(6):
        l = rng.randint(1, 3)
        v = rand_wedge(rng, module, l)
        # w shares v's tuples, so the pairing cannot vanish for want of
        # a common basis tuple
        w = v + rand_wedge(rng, module, l)
        lhs = fock_inner(v, w)
        rhs = oracle_nested_inner(
            dense_from_level(v, l), dense_from_level(w, l), u_of
        )
        st = State(State.KINDS[i % 2])
        assert abs(st(lhs)) > 0.1
        assert abs(st(lhs) - st(rhs)) <= TOL
        assert gns_inner(v, w, st) == st(lhs)
