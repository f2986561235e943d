"""Canonical engine against the dense reference, operation by operation.

Every twist family gets the same battery: random single-level elements
pushed through both implementations, compared entrywise after expanding
the canonical storage to full signed index arrays.
"""

import math
import random

import pytest

from fockmod.weyl import State, WeylElement
from fockmod.fock import fock_inner, gns_inner, tensor_of
from fockmod.oracle import DenseTensor, oracle_create, oracle_nested_inner

from _support import (
    EQUIV_FAMILIES,
    EQUIV_OPS,
    dense_from_level,
    rand_vector,
    rand_wedge,
    raw_u_of,
    run_equivalence,
    tiny_module,
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
def test_tensor_of_matches_plain_create(family):
    # the normal form walks coefficients right exactly like plain
    # creation, minus the ladder factor and the projection
    module = tiny_module(family)
    gens = module.gens
    dim = module.basis.dim
    u_of = raw_u_of(module.twist)
    rng = random.Random(7)
    for _ in range(10):
        f1 = rand_vector(rng, module)
        f2 = rand_vector(rng, module)
        t = tensor_of([f1, f2])
        scaled = DenseTensor.from_terms(
            gens, dim, 2, {k: math.sqrt(2.0) * WeylElement(gens, x) for k, x in t.items()}
        )
        seed = DenseTensor.from_terms(
            gens, dim, 1, {(b,): a for b, a in f2.entries.items()}
        )
        ref = oracle_create(f1.entries, seed, u_of)
        assert scaled.max_deviation(ref) <= 1e-12


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
