"""Fock layer: canonical antisymmetric calculus, creation and
annihilation, GNS evaluation, symbolic field operators."""

import dataclasses
import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockmod import fock as fock_module
from fockmod.weyl import State, WeylElement
from fockmod.bimodule import ModuleVector, OneParticleVector, Twist, conjugate_vector, module_inner
from fockmod.models import build_context, check_car, level_basis, observable, plus_vector
from fockmod.oracle import (
    DenseTensor,
    oracle_antisymmetrize,
    oracle_fermi_annihilate,
    oracle_fermi_create,
    oracle_left_mult,
    oracle_nested_inner,
)
from fockmod.fock import (
    AnnihilateOp,
    CreateOp,
    FieldOperator,
    FockElement,
    LeftMultOp,
    annihilate,
    annihilation,
    anticommutator,
    commutator,
    compression_norm,
    create,
    creation,
    dirac,
    fock_inner,
    fock_left_action,
    gns_inner,
    gns_norm,
    vacuum,
    wedge,
    weyl_mult,
)

from _support import (
    apply_word_by_word,
    dense_from_level,
    fock_close,
    level_tuples,
    rand_vector,
    rand_wedge,
    rand_weyl,
    raw_u_of,
    ref_operator_matrix,
    right_normal,
    tiny_grid,
    tiny_module,
    tiny_pairs,
    weyl_at,
    weyl_dev,
    word_suffixes,
)

SQ2 = math.sqrt(2.0)


def unit_of(module):
    return WeylElement.unit(module.gens)


def maps_close(x: dict, y: dict, tol: float) -> bool:
    """Two coefficient maps {label: complex} agree within tol at every label."""
    return not any(abs(x.get(n, 0.0) - y.get(n, 0.0)) > tol for n in x.keys() | y.keys())


def basis_fock(module, t, coeff=None):
    coeff = coeff if coeff is not None else unit_of(module)
    return FockElement(module, {len(t): {tuple(t): coeff}})


# ---------------------------------------------------------------------------
# antisymmetric calculus


def plain_dense(module, terms):
    """Dense plain tensor {basis tuple: WeylElement}, unprojected."""
    level = len(next(iter(terms)))
    return DenseTensor.from_terms(module.gens, module.basis.dim, level, terms)


def test_antisymmetrize_worked():
    module = tiny_module("trivial")
    one = unit_of(module)
    # P_-(e0 x e1) = e_(0,1) / sqrt(2), stored on the unit wedge alone
    p = FockElement(module, {2: {(0, 1): (1.0 / SQ2) * one}})
    # its signed expansion holds both orders
    full = dense_from_level(p, 2)
    assert full.entries[(0, 1)].close_to(0.5 * one)
    assert full.entries[(1, 0)].close_to(-0.5 * one)
    assert full.close_to(oracle_antisymmetrize(plain_dense(module, {(0, 1): one})), 1e-15)
    # the reversed order projects to the negative
    flipped = oracle_antisymmetrize(plain_dense(module, {(1, 0): one}))
    assert dense_from_level(-1.0 * p, 2).close_to(flipped, 1e-15)


def test_repeated_slots_die():
    # antisymmetry kills e2 x e2, and the signed expansion of a wedge never
    # fills a repeated slot
    module = tiny_module("trivial")
    assert not list(oracle_antisymmetrize(plain_dense(module, {(2, 2): unit_of(module)})).nonzero())
    full = dense_from_level(rand_wedge(random.Random(3), module, 3), 3)
    assert all(len(set(t)) == 3 for t, _ in full.nonzero())


@given(st.integers(0, 10**6))
def test_expand_project_roundtrip(seed):
    module = tiny_module("trivial")
    rng = random.Random(seed)
    l = rng.randint(1, 3)
    v = rand_wedge(rng, module, l)
    full = dense_from_level(v, l)
    # the expansion is antisymmetric, so projecting it changes nothing ...
    assert oracle_antisymmetrize(full).max_deviation(full) <= 1e-12
    # ... and its increasing entries are exactly the stored coefficients
    increasing = {t: a.terms for t, a in full.nonzero() if list(t) == sorted(t)}
    assert increasing.keys() == level_tuples(v, l)
    for t in increasing:
        assert maps_close(increasing[t], weyl_at(v, l, t).terms, 1e-15)


def test_fock_inner_factorial():
    module = tiny_module("trivial")
    one = unit_of(module)
    v = basis_fock(module, (0, 1))
    assert fock_inner(v, v).terms == one.terms  # a unit wedge has norm 1
    assert fock_inner(vacuum(module), v).is_zero()


# ---------------------------------------------------------------------------
# creation and annihilation, worked cases


def test_create_on_vacuum():
    module = tiny_module("trivial")
    out = create(module.basis_element(0), vacuum(module))
    assert sorted(out.parts) == [1]
    assert maps_close(weyl_at(out, 1, (0,)).terms, unit_of(module).terms, 1e-12)


def test_create_twice_is_wedge():
    module = tiny_module("trivial")
    om = vacuum(module)
    e0 = module.basis_element(0)
    e1 = module.basis_element(1)
    w01 = create(e0, create(e1, om))
    assert level_tuples(w01, 2) == {(0, 1)}
    assert maps_close(weyl_at(w01, 2, (0, 1)).terms, ((1.0 / SQ2) * unit_of(module)).terms, 1e-12)
    # reversed order flips the sign
    w10 = create(e1, create(e0, om))
    assert maps_close(weyl_at(w10, 2, (0, 1)).terms, ((-1.0 / SQ2) * unit_of(module)).terms, 1e-12)
    assert (w01 + w10).is_zero()
    # unit vectors wedge to a unit GNS vector
    assert abs(gns_norm(w01, State("tracial")) - 1.0) <= 1e-15


def test_pauli_exclusion_plain():
    module = tiny_module("trivial")
    e0 = module.basis_element(0)
    assert create(e0, create(e0, vacuum(module))).is_zero()


def test_create_carries_group_coefficient():
    module = tiny_module("delta")
    gens = module.gens
    n = (1, 0)
    f = module.basis_element(0, WeylElement.monomial(gens, n))
    out = create(f, vacuum(module))
    # the second call reads f's cached group decomposition
    assert f.by_group() is f.by_group()
    assert create(f, vacuum(module)).parts == out.parts
    g = rand_vector(random.Random(5), module)
    w = rand_wedge(random.Random(6), module, 2)
    first = create(g, w)
    assert create(g, w).parts == first.parts
    assert maps_close(weyl_at(out, 1, (0,)).terms, WeylElement.monomial(gens, n).terms, 1e-12)
    # the standing slot is rotated by u(n): point 0 picks up e^{-i}
    out2 = create(f, basis_fock(module, (1,)))
    (key,) = level_tuples(out2, 2)
    assert key == (0, 1)
    phase = module.twist.matrix(n)[1, 1]
    expect = (phase / SQ2) * WeylElement.monomial(gens, n)
    assert maps_close(weyl_at(out2, 2, key).terms, expect.terms, 1e-14)


def test_constructor_puts_the_coefficient_right_of_the_wedge():
    # {1: {(b,): A}} is e_b . A = a*(e_b . A) Omega on every slot b
    module = tiny_module("mixed")
    a = WeylElement.monomial(module.gens, (1, 0))
    for b in range(module.basis.dim):
        built = FockElement(module, {1: {(b,): a}})
        assert fock_close(built, create(module.basis_element(b, a), vacuum(module)), 1e-12)
    # not A . e_b: u(1, 0) mixes slot 1, so W(1, 0) . e_1 spreads over slots 0, 1, 2
    left = fock_left_action(a, wedge(module, (1,)))
    assert level_tuples(left, 1) == {(0,), (1,), (2,)}
    assert not fock_close(left, FockElement(module, {1: {(1,): a}}), 1e-3)


def test_annihilate_inverts_on_wedge():
    # w01 = a*(e0) a*(e1) vac; contracting e1 walks past the first
    # creator and picks up the fermionic sign, contracting e0 does not
    module = tiny_module("trivial")
    om = vacuum(module)
    e0 = module.basis_element(0)
    e1 = module.basis_element(1)
    w01 = create(e0, create(e1, om))
    back = annihilate(e1, w01)
    assert fock_close(back, -1.0 * create(e0, om), 1e-14)
    swapped = annihilate(e0, w01)
    assert fock_close(swapped, create(e1, om), 1e-14)


def test_annihilate_vacuum_is_zero():
    module = tiny_module("trivial")
    assert annihilate(module.basis_element(0), vacuum(module)).is_zero()


def test_car_residuals_exact_zero():
    # trivial twist, plain vectors: the relations close with residual 0
    module = tiny_module("trivial")
    state = State("tracial")
    f = module.basis_element(0)
    g = module.basis_element(0) + module.basis_element(2)
    mixed = anticommutator(annihilation(f), creation(g)) - weyl_mult(
        module, module_inner(f, g)
    )
    probes = [vacuum(module), basis_fock(module, (1,)), basis_fock(module, (0, 2))]
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


@pytest.mark.parametrize("family", ["mixed", "poisson"])
def test_create_into_level_four_is_the_minor(family):
    # a*(f_n . W(n)) e_t with |t| = 3 holds, on each unit wedge e_s, the
    # minor det [f_n | u(n)[:, t]][s]
    module = tiny_module(family)
    gens = module.gens
    d = module.basis.dim
    rng = np.random.default_rng(43)
    for n in [(1, 0), (2, -1)]:
        u = module.twist.matrix(n)
        for t in itertools.combinations(range(d), 3):
            fn = rng.normal(size=d) + 1j * rng.normal(size=d)
            vec = OneParticleVector(module.basis, dict(enumerate(fn)))
            f = module.embed(vec, WeylElement.monomial(gens, n))
            out = create(f, basis_fock(module, t))
            assert level_tuples(out, 4) <= set(itertools.combinations(range(d), 4))
            level = right_normal(out, 4)
            assert set(level) <= {n}
            for s in itertools.combinations(range(d), 4):
                want = np.linalg.det(np.column_stack([fn, u[:, t]])[list(s)])
                # right_normal gives the oracle's coefficient, the unit
                # wedge's divided by sqrt(4!)
                got = level.get(n, {}).get(s, 0.0) * math.sqrt(24.0)
                assert abs(got - want) <= 1e-12, (n, t, s)


@pytest.mark.parametrize("family", ["mixed", "poisson"])
def test_adjoint_at_level_four(family):
    rng = random.Random(67)
    module = tiny_module(family)
    acting = 0
    for kind in State.KINDS:
        st_ = State(kind)
        for _ in range(12):
            f = rand_vector(rng, module, max_entries=4)
            w = rand_wedge(rng, module, 4)
            # one level-3 term under a tuple of w, so that the pair can act
            t = rng.choice(sorted(level_tuples(w, 4)))
            k = rng.randrange(4)
            under = FockElement(module, {3: {t[:k] + t[k + 1 :]: rand_weyl(rng, module.gens)}})
            v = rand_wedge(rng, module, 3) + under
            rhs = gns_inner(create(f, v), w, st_)
            assert abs(gns_inner(v, annihilate(f, w), st_) - rhs) <= 1e-12
            acting += abs(rhs) > 1e-3
    # the identity was met on pairs that do not pair to zero
    assert acting >= 4


def test_two_groups_meet_on_one_label_against_the_oracle():
    # On the mixed twist f and a carry the groups n = (1, 0) and
    # n' = (0, 1), the element the labels m = (0, 1) and m' = (1, 0).
    # Creation and the left action send both (n, m) and (n', m') to the
    # label (1, 1), annihilation both (n, m') and (n', m) to (0, 0), and
    # the pairing both (m, m) and (m', m') to (0, 0): two groups add into
    # one output label of one level.
    module = tiny_module("mixed")
    gens = module.gens
    d = module.basis.dim
    u_of = functools.lru_cache(maxsize=None)(raw_u_of(module.twist))
    rng = random.Random(29)
    n, n2 = (1, 0), (0, 1)

    def both():
        z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        return WeylElement(gens, {n: z[0], n2: z[1]})

    def element(l):
        tuples = rng.sample(list(itertools.combinations(range(d), l)), 2)
        return FockElement(module, {l: {t: both() for t in tuples}})

    f = ModuleVector(module, {b: both() for b in range(d)})
    a = both()
    states = [State(kind) for kind in State.KINDS]
    for l in range(1, 5):
        v = element(l)
        dense = dense_from_level(v, l)
        if l < 4:
            got = create(f, v)
            assert (1, 1) in right_normal(got, l + 1)
            want = oracle_fermi_create(f.entries, dense, u_of)
            assert dense_from_level(got, l + 1).max_deviation(want) <= 1e-12, l
        got = annihilate(f, v)
        assert (0, 0) in right_normal(got, l - 1)
        want = oracle_fermi_annihilate(f.entries, dense, u_of)
        if l == 1:
            assert weyl_dev(got.scalar, want) <= 1e-12
        else:
            assert dense_from_level(got, l - 1).max_deviation(want) <= 1e-12, l
        got = fock_left_action(a, v)
        assert (1, 1) in right_normal(got, l)
        want = oracle_left_mult(a, dense, u_of)
        assert dense_from_level(got, l).max_deviation(want) <= 1e-12, l
        w = v + element(l)
        got = fock_inner(v, w)
        want = oracle_nested_inner(dense, dense_from_level(w, l), u_of)
        assert (0, 0) in got.terms
        assert weyl_dev(got, want) <= 1e-12, l
        for st_ in states:
            assert abs(gns_inner(v, w, st_) - st_(want)) <= 1e-12, (l, st_)


def weyl_on(rng, gens, labels):
    """A random complex coefficient on each of the given labels."""
    return WeylElement(gens, {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in labels})


def full_support(module, rng, level, labels):
    """Every tuple of one level under each of the given labels."""
    tuples = itertools.combinations(range(module.basis.dim), level)
    return FockElement(module, {level: {t: weyl_on(rng, module.gens, labels) for t in tuples}})


def test_full_support_create_and_annihilate_against_the_oracle():
    # On the mixed twist every tuple of a level carries two labels and f
    # has an entry on every index under two groups: annihilation
    # contracts many tuples onto one survivor with opposite signs, and
    # creation adds many rotated tuples into one vector before inserting
    module = tiny_module("mixed")
    gens = module.gens
    d = module.basis.dim
    u_of = functools.lru_cache(maxsize=None)(raw_u_of(module.twist))
    rng = random.Random(31)
    f = ModuleVector(module, {b: weyl_on(rng, gens, [(1, 0), (0, 1)]) for b in range(d)})
    for l in range(1, 5):
        v = full_support(module, rng, l, [(0, 1), (1, -1)])
        dense = dense_from_level(v, l)
        if l < 4:
            # the oracle stops at level 4
            got = create(f, v)
            want = oracle_fermi_create(f.entries, dense, u_of)
            assert dense_from_level(got, l + 1).max_deviation(want) <= 1e-12, l
        got = annihilate(f, v)
        want = oracle_fermi_annihilate(f.entries, dense, u_of)
        if l == 1:
            assert weyl_dev(got.scalar, want) <= 1e-12
        else:
            assert dense_from_level(got, l - 1).max_deviation(want) <= 1e-12, l


def test_mixed_frames_on_one_label_against_the_oracle():
    # A constructed element keeps e_t . W(m) in the frame -m.  With the
    # groups n = (1, 0), n' = (0, 1) and the labels m = (1, 1),
    # m' = (0, 2), annihilation sends both (m, -m) and (m', -m') to the
    # label (0, 1), in two frames; the pairing then meets buckets whose
    # frames differ, the one place it reads the minors of u(n).
    module = tiny_module("mixed")
    gens = module.gens
    d = module.basis.dim
    u_of = functools.lru_cache(maxsize=None)(raw_u_of(module.twist))
    rng = random.Random(41)
    f = ModuleVector(module, {b: weyl_on(rng, gens, [(1, 0), (0, 1)]) for b in range(d)})
    states = [State(kind) for kind in State.KINDS]
    for l in range(1, 5):
        v = full_support(module, rng, l, [(1, 1), (0, 2)])
        got = annihilate(f, v)
        assert sorted(o for m, o in got.parts[l - 1] if m == (0, 1)) == [(-1, -1), (0, -2)]
        want = oracle_fermi_annihilate(f.entries, dense_from_level(v, l), u_of)
        if l == 1:
            assert weyl_dev(got.scalar, want) <= 1e-12
            continue
        dense = dense_from_level(got, l - 1)
        assert dense.max_deviation(want) <= 1e-12, l
        w = got + full_support(module, rng, l - 1, [(0, 1), (1, 0)])
        for other in (got, w):
            pairing = oracle_nested_inner(dense, dense_from_level(other, l - 1), u_of)
            # the pairings reach about 2.6e3 on level 3: round-off, relative
            tol = 1e-13 * max(1.0, *map(abs, pairing.terms.values()))
            assert weyl_dev(fock_inner(got, other), pairing) <= tol, l
            for st_ in states:
                assert abs(gns_inner(got, other, st_) - st_(pairing)) <= tol, (l, st_)


def test_operators_read_no_exterior_power(monkeypatch):
    # create, annihilate and the left action keep each bucket's frame and
    # read only rotated one-particle vectors: no minor of u(n) is taken,
    # and creation inserts once per (group, bucket)
    module = tiny_module("mixed")
    gens = module.gens
    d = module.basis.dim
    rng = random.Random(37)
    groups = [(1, 0), (0, 1)]
    labels = [(0, 1), (1, -1)]
    f = ModuleVector(module, {b: weyl_on(rng, gens, groups) for b in range(d)})
    v = full_support(module, rng, 3, labels)
    calls = {"pair": 0, "det": 0, "insert": 0}
    pair, det, insert = Twist.pair, np.linalg.det, fock_module.wedge_insert

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Twist, "pair", counted("pair", pair))
    monkeypatch.setattr(np.linalg, "det", counted("det", det))
    monkeypatch.setattr(fock_module, "wedge_insert", counted("insert", insert))
    a = weyl_on(rng, gens, groups)
    annihilate(f, v)
    fock_left_action(a, v)
    assert calls == {"pair": 0, "det": 0, "insert": 0}
    create(f, v)
    assert calls == {"pair": 0, "det": 0, "insert": len(groups) * len(labels)}
    # a tracial sweep on the dense twist pairs probes and images in one
    # frame, so it never reaches the minors either
    calls.update(insert=0)
    ctx = dataclasses.replace(build_context("delta", tiny_grid(), tiny_pairs(tiny_grid()), "tracial"), module=module)
    e0, e3 = module.basis_element(0, WeylElement.monomial(gens, (1, 0))), module.basis_element(3)
    assert check_car(ctx, [(e0, e3, False)]).residuals["nonfree_min"] > 0
    assert calls["pair"] == 0 and calls["det"] == 0 and calls["insert"] > 0
    # the tracial state skips pairs of different labels before any minor:
    # W(1, 0) moves v's buckets (m, -m) to (m + (1, 0), -m), so every pair
    # with v has its frames apart, and no pair has equal labels
    w = fock_left_action(WeylElement.monomial(gens, (1, 0)), v)
    assert gns_inner(v, w, State("tracial")) == 0 and calls["pair"] == 0
    gns_inner(v, w, State("quasifree"))
    assert calls["pair"] > 0


# ---------------------------------------------------------------------------
# the left action on Fock elements


def test_fock_left_action_morphism():
    module = tiny_module("poisson")
    rng = random.Random(67)
    for _ in range(10):
        a = rand_weyl(rng, module.gens)
        b = rand_weyl(rng, module.gens)
        v = rand_wedge(rng, module, rng.randint(1, 3))
        lhs = fock_left_action(a, fock_left_action(b, v))
        rhs = fock_left_action(a * b, v)
        assert fock_close(lhs, rhs, 1e-12)


def test_left_action_level_zero_is_product():
    module = tiny_module("delta")
    a = rand_weyl(random.Random(3), module.gens)
    c = rand_weyl(random.Random(4), module.gens)
    out = fock_left_action(a, vacuum(module, c))
    assert out.scalar.close_to(a * c, 1e-13)


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
# top of the Fock space


def test_create_above_truncation_drops_and_flags():
    # the Fock space stops at level d = dim h, its natural truncation:
    # level d holds one tuple with every slot, and a creator on it is zero
    module = tiny_module("mixed")
    d = module.basis.dim
    assert d == 6
    rng = random.Random(103)
    f = rand_vector(rng, module, max_entries=d)
    full = tuple(range(d))
    top = basis_fock(module, full)
    out = create(f, top)
    assert out.is_zero()
    # nothing is cut off, so the flag stays off, also after further operations
    assert not out.truncated
    assert not annihilate(module.basis_element(0), out + top).truncated
    # level d - 1 lands on level d, on the full tuple alone
    out = create(module.basis_element(5), basis_fock(module, full[:5]))
    assert sorted(out.parts) == [d] and level_tuples(out, d) == {full}
    assert not out.truncated
    with pytest.raises(ValueError):
        FockElement(module, {d + 1: {tuple(range(d + 1)): unit_of(module)}})


def test_cancelled_words_leave_no_empty_dicts():
    module = tiny_module("delta")
    gens = module.gens
    vac = vacuum(module)
    f = module.basis_element(0) + module.basis_element(2)
    g = module.basis_element(0, WeylElement.monomial(gens, (1, 0))) + module.basis_element(1)
    # {a*(f), a*(g)} vanishes on the vacuum, its two words cancelling exactly
    anti = anticommutator(creation(f), creation(g))
    assert anti.apply(vac).is_zero()
    # with a*(g) added, level 2 cancels and level 1 stays: the image holds
    # level 1 alone, so the peak level a tracer reads as max(parts) is 1
    image = (anti + creation(g)).apply(vac)
    assert sorted(image.parts) == [1] and max(image.parts) == 1
    assert fock_close(image, create(g, vac))
    # one label of a tuple cancels and the other stays
    a = WeylElement(gens, {(1, 0): 0.5, (0, 1): 2.0j})
    mono = WeylElement.monomial(gens, (1, 0), 0.5)
    left = basis_fock(module, (0, 1), coeff=a) - basis_fock(module, (0, 1), coeff=mono)
    # the constructor keeps e_t . W(m) in the frame -m
    assert left.parts == {2: {((0, 1), (0, -1)): {(0, 1): 2.0j}}}
    for v in (image, left, anti.apply(left), (anti + creation(g)).apply(left)):
        assert all(labels and all(labels.values()) for labels in v.parts.values())


def test_fock_arithmetic_and_guards():
    module = tiny_module("trivial")
    v = basis_fock(module, (0, 1))
    w = basis_fock(module, (0, 2))
    s = v + w
    assert level_tuples(s, 2) == {(0, 1), (0, 2)}
    assert (2.0 * v - v - v).is_zero()
    assert sorted(v.parts) == [2]
    with pytest.raises(ValueError):
        v._require_same(basis_fock(tiny_module("trivial"), (0, 1)))
    # Weyl coefficients go in and come back out unchanged; zero ones and
    # empty levels are not stored
    gens = module.gens
    a = WeylElement(gens, {(1, 0): 0.5j, (0, -1): 2.0})
    zero = WeylElement.zero(gens)
    x = FockElement(module, {0: {(): a}, 1: {(2,): zero}, 2: {(0, 1): a, (1, 2): zero}})
    assert sorted(x.parts) == [0, 2]
    assert x.scalar.terms == a.terms and x.scalar.gens is gens
    assert x.parts[2] == {(n, tuple(-v for v in n)): {(0, 1): c} for n, c in a.terms.items()}
    assert FockElement(module, {0: {(): zero}}).is_zero()
    assert FockElement(module).scalar.is_zero()


@pytest.mark.parametrize(
    "level, t",
    [(2, (1, 0)), (2, (1, 1)), (2, (0,)), (1, (99,)), (1, (-1,))],
    ids=["unsorted", "repeated", "wrong_length", "index_too_large", "negative_index"],
)
def test_fock_element_rejects_a_tuple_that_is_not_canonical(level, t):
    # a stored e_(1,0) would pair with e_(0,1) to 0 instead of -2, and a
    # stored e_(1,1) would carry GNS norm^2 2 though the wedge vanishes
    module = tiny_module("delta")
    with pytest.raises(ValueError):
        FockElement(module, {level: {t: unit_of(module)}})


# ---------------------------------------------------------------------------
# GNS evaluation


def test_gns_inner_levelwise():
    module = tiny_module("trivial")
    one = unit_of(module)
    state = State("tracial")
    v = vacuum(module) + basis_fock(module, (0, 1))
    w = basis_fock(module, (0, 1))
    # only the shared level contributes, and a unit wedge has norm 1
    assert gns_inner(v, w, state) == 1.0
    assert gns_inner(vacuum(module), w, state) == 0.0
    assert gns_norm(w, state) == 1.0


def test_gns_values_of_a_tiny_vector_are_not_pruned():
    # a level-1 coefficient 1e-8 pairs to 1e-16, below PRUNE_TOL
    module = tiny_module("delta")
    gens = module.gens
    for label in ((0, 0), (1, -1)):
        w = WeylElement.monomial(gens, label)
        small = basis_fock(module, (1,), coeff=1e-8 * w)
        big = basis_fock(module, (1,), coeff=w)
        assert fock_inner(small, small).is_zero()
        for kind in State.KINDS:
            state = State(kind)
            assert abs(gns_norm(small, state) - 1e-8) <= 1e-20, (label, kind)
            assert abs(gns_inner(small, big, state) - 1e-8) <= 1e-20, (label, kind)
    # the tracial state keeps only the W(0) label of the pairing
    v = basis_fock(module, (1,), coeff=WeylElement(gens, {(0, 0): 1e-8, (1, 0): 1.0}))
    assert abs(gns_norm(v, State("tracial")) - math.sqrt(1.0 + 1e-16)) <= 1e-15
    tiny = basis_fock(module, (1,), coeff=1e-8 * unit_of(module))
    assert abs(gns_inner(v, tiny, State("tracial")) - 1e-16) <= 1e-30


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
    assert fock_close((A @ B).apply(v), A.apply(B.apply(v)), 1e-12)
    assert fock_close((A + B).apply(v), A.apply(v) + B.apply(v), 1e-12)
    assert (A - A).apply(v).is_zero()
    assert fock_close(commutator(A, B).apply(v), (A @ B).apply(v) - (B @ A).apply(v), 1e-12)
    # adjoint against the GNS pairing
    w = rand_wedge(rng, module, 2)
    lhs = gns_inner(v, (A @ B).apply(w), state)
    rhs = gns_inner((A @ B).adjoint().apply(v), w, state)
    assert abs(lhs - rhs) <= 1e-12


def test_field_operator_stops_a_killed_word():
    class Unreachable:
        def apply(self, v):
            raise AssertionError("applied after the word's image vanished")

    module = tiny_module("trivial")
    e0, e1 = module.basis_element(0), module.basis_element(1)
    vac = vacuum(module)
    # a(e1) kills the vacuum, so the word contributes nothing
    op = FieldOperator(module, [(2.0, (Unreachable(), AnnihilateOp(e1))), (1.0, (CreateOp(e0),))])
    assert fock_close(op.apply(vac), create(e0, vac), 0.0)
    assert FieldOperator(module, [(1.0, (Unreachable(), AnnihilateOp(e1)))]).apply(vac).is_zero()


def count_primitives(monkeypatch) -> dict:
    """Counts create, annihilate and left-action calls from here on."""
    calls = {}
    for name in ("create", "annihilate", "fock_left_action"):
        fn = getattr(fock_module, name)

        def counted(*args, fn=fn, name=name):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(fock_module, name, counted)
    return calls


def test_field_operator_matches_word_by_word_on_an_observable_net_commutator():
    grid = tiny_grid()
    ctx = build_context("delta", grid, tiny_pairs(grid), "quasifree")
    module = ctx.module
    w0 = plus_vector(module, [1.0, 0.5, 0.0])
    w2 = plus_vector(module, [0.0, 0.25, 1.0])
    a = WeylElement(module.gens, {(1, 0): 0.5, (0, -1): 0.25j})
    op = commutator(observable(a, w0, w0), observable(WeylElement.unit(module.gens), w2, w0))
    # 32 words of 6 primitives, far fewer distinct suffixes
    assert len(op.terms) == 32 and {len(p) for _, p in op.terms} == {6}
    assert len(word_suffixes(op)) < 32 * 6
    rng = random.Random(97)
    for level in (0, 1, 2):
        v = rand_wedge(rng, module, level)
        got, want = op.apply(v), apply_word_by_word(op, v)
        assert got.parts == want.parts, level
        # the cached plan gives the same sums on a second call
        assert op.apply(v).parts == got.parts


def test_field_operator_passes_an_empty_middle_image_through():
    module = tiny_module("mixed")
    rng = random.Random(101)
    f, g = rand_vector(rng, module), rand_vector(rng, module)
    e0, e1 = module.basis_element(0), module.basis_element(1)
    a, c = AnnihilateOp(e1), CreateOp(e0)
    vac = vacuum(module)
    # a(e1) a(e1) c(e0) vac is empty after its middle primitive; a word
    # sharing the suffix c(e0) still gets that suffix's image
    op = FieldOperator(
        module,
        [(2.0, (CreateOp(f), a, a, c)), (1.5j, (AnnihilateOp(g), c)), (0.5, (c,))],
    )
    got, want = op.apply(vac), apply_word_by_word(op, vac)
    assert got.parts == want.parts and got.parts


def test_field_operator_flags_a_truncated_word():
    # a word that climbs past the top level d = dim h has a zero image;
    # the operator sums the other words as word-by-word application does
    # and, since no level is cut off, flags nothing
    module = tiny_module("poisson")
    d = module.basis.dim
    rng = random.Random(103)
    f, g = rand_vector(rng, module), rand_vector(rng, module)
    v = rand_wedge(rng, module, d - 1) + rand_wedge(rng, module, d)
    cf, cg = CreateOp(f), CreateOp(g)
    op = FieldOperator(module, [(1.0, (AnnihilateOp(g), cf)), (-1.0, (cg, cf))])
    got, want = op.apply(v), apply_word_by_word(op, v)
    assert got.parts == want.parts and got.parts
    assert FieldOperator(module, [(-1.0, (cg, cf))]).apply(v).is_zero()
    kept = FieldOperator(module, [(1.0, (AnnihilateOp(g), cf))]).apply(v)
    assert fock_close(got, kept, 0.0)
    assert not got.truncated and not want.truncated and not kept.truncated


def test_field_operator_applies_each_suffix_once(monkeypatch):
    module = tiny_module("mixed")
    rng = random.Random(107)
    A = creation(rand_vector(rng, module)) + weyl_mult(module, rand_weyl(rng, module.gens))
    B = creation(rand_vector(rng, module)) + annihilation(rand_vector(rng, module))
    op = A @ B @ A + 2.0 * (B @ A) - A
    v = vacuum(module, rand_weyl(rng, module.gens)) + rand_wedge(rng, module, 1)
    want = apply_word_by_word(op, v)
    calls = count_primitives(monkeypatch)
    got = op.apply(v)
    assert got.parts == want.parts
    # no image vanishes here, so every distinct suffix is applied once
    assert sum(calls.values()) == len(word_suffixes(op))
    assert len(word_suffixes(op)) < sum(len(p) for _, p in op.terms)


def test_field_operator_keeps_equal_left_mults_apart(monkeypatch):
    module = tiny_module("delta")
    rng = random.Random(109)
    a = rand_weyl(rng, module.gens)
    twin = WeylElement(module.gens, dict(a.terms))
    assert twin == a and twin is not a
    p, q = LeftMultOp(a), LeftMultOp(twin)
    assert p == q and p is not q
    op = FieldOperator(module, [(1.0, (p,)), (1.0, (q,))])
    v = rand_wedge(rng, module, 2)
    calls = count_primitives(monkeypatch)
    got = op.apply(v)
    assert calls == {"fock_left_action": 2}
    assert got.parts == apply_word_by_word(op, v).parts
    # one primitive object shared by both words is applied once
    calls.clear()
    FieldOperator(module, [(1.0, (p,)), (2.0, (p,))]).apply(v)
    assert calls == {"fock_left_action": 1}


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
    assert gns_norm(op.apply(vacuum(module)), state) == 0.0
    assert gns_norm(op.apply(basis_fock(module, (0, 1))), state) == 0.0
    # pairing f with its conjugate partner closes to the identity
    op2 = anticommutator(dirac(f), dirac(conjugate_vector(f)))
    for probe in (vacuum(module), basis_fock(module, (1, 2))):
        assert fock_close(op2.apply(probe), probe, 1e-12)


def test_operator_matrix_norms():
    # compression_norm gives the norm of the operator's matrix on the
    # span of the wedges of the tuples
    module = tiny_module("trivial")
    slots = [()] + [(i,) for i in range(3)]
    ident = weyl_mult(module, unit_of(module))
    assert abs(compression_norm(ident, slots) - 1.0) <= 1e-12
    # annihilator of a unit vector has compression norm 1
    assert abs(compression_norm(annihilation(module.basis_element(1)), slots) - 1.0) <= 1e-10
    # a repeated tuple would make the Gram matrix singular: it is refused
    for twice in (slots + [(1,)], [(), ()]):
        with pytest.raises(ValueError, match="distinct tuples"):
            compression_norm(ident, twice)


def test_wedge_is_the_unit_basis_wedge(monkeypatch):
    # the wedge of t is the constructor's e_t . W(0), () the vacuum, and it
    # builds no WeylElement
    module = tiny_module("delta")
    want = {t: basis_fock(module, t).parts for t in ((), (2,), (0, 3, 5))}
    assert want[()] == vacuum(module).parts

    def refused(*args):
        raise AssertionError("wedge built a WeylElement")

    monkeypatch.setattr(WeylElement, "__init__", refused)
    for t, parts in want.items():
        assert wedge(module, t).parts == parts
    for t in ((1, 0), (0, 0), (0, 6), (-1, 2)):
        with pytest.raises(ValueError, match="tuple"):
            wedge(module, t)


@pytest.mark.parametrize("family", ("trivial", "delta", "mixed", "poisson"))
def test_wedge_is_the_creation_word(family):
    # a level stores the coefficient of the unit wedge, so wedge(space, t)
    # is a*(e_t1) ... a*(e_tl) Omega entry for entry, and of norm 1
    module = tiny_module(family)
    states = [State(kind) for kind in State.KINDS]
    for t in level_basis(module, 3):
        word = vacuum(module)
        for b in reversed(t):
            word = create(module.basis_element(b), word)
        v = wedge(module, t)
        assert v.parts == word.parts, t
        assert [gns_norm(v, state) for state in states] == [1.0, 1.0], t


def bucket_ops(module, rng):
    """Operators that keep the bucket (W(0), frame 0) of a unit wedge:
    vectors with the unit coefficient and a scalar left action."""

    def vec():
        dim = module.basis.dim
        coeffs = {rng.randrange(dim): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)}
        return module.embed(OneParticleVector(module.basis, coeffs))

    f, g = vec(), vec()
    scalar = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return [
        annihilation(f),
        dirac(g),
        creation(g) @ annihilation(f) + weyl_mult(module, scalar * unit_of(module)),
    ]


@pytest.mark.parametrize("family", ("delta", "mixed", "uneven"))
@pytest.mark.parametrize("kind", ("tracial", "quasifree"))
def test_operator_matrix_matches_full_pairing(family, kind):
    # read off the images, the compression gives the norm of the full
    # k x k GNS pairing bit for bit; on the bucket (W(0), frame 0) the
    # pairing reads only label 0, where both states are 1, so
    # compression_norm takes no state
    module = tiny_module(family)
    state = State(kind)
    rng = random.Random(71)
    slots = level_basis(module, 2)
    basis = [wedge(module, t) for t in slots]
    for op in bucket_ops(module, rng):
        assert compression_norm(op, slots) == ref_operator_matrix(op, basis, state)


@pytest.mark.parametrize("family", ("delta", "mixed"))
def test_operator_matrix_pairs_few_entries(family, monkeypatch):
    # the 26-element level-3 basis over five slots that check_norm_recovery
    # builds: compression_norm pairs no entry through gns_inner, it reads
    # every entry off the images
    module = tiny_module(family)
    slots = level_basis(module, 3, [0, 1, 2, 4, 5])
    assert len(slots) == 26
    calls = []
    for name in ("gns_inner", "_pairing"):
        inner = getattr(fock_module, name)
        monkeypatch.setattr(fock_module, name, lambda *a, inner=inner: calls.append(a) or inner(*a))
    unit = module.embed(OneParticleVector(module.basis, {0: 0.6, 4: 0.8j}))
    norm = compression_norm(annihilation(unit), slots)
    assert calls == []
    assert abs(norm - 1.0) <= 1e-12


def test_compression_norm_rejects_other_buckets():
    module = tiny_module("delta")
    slots = level_basis(module, 2)
    label = WeylElement.monomial(module.gens, (1, 0))
    # W(1, 0) moves the image of a wedge to the bucket (W(1, 0), frame 0)
    with pytest.raises(ValueError, match="bucket outside"):
        compression_norm(weyl_mult(module, label), slots)
    # a(f) with f carrying W(1, 0) moves the image to the label -(1, 0)
    with pytest.raises(ValueError, match="bucket outside"):
        compression_norm(annihilation(module.basis_element(1, label)), slots)
    # a tuple that is not canonical names no wedge
    with pytest.raises(ValueError, match="not strictly increasing"):
        compression_norm(weyl_mult(module, unit_of(module)), slots + [(2, 1)])


def test_pairing_without_a_shared_signature_is_exactly_0(monkeypatch):
    # two buckets in different frames pair through Twist.pair, which
    # groups their tuples by signature: with none shared the pairing is
    # exactly 0 and no determinant is evaluated.  A shared signature is a
    # phase product on the one-slot blocks of delta and a determinant on
    # the 3-slot blocks of mixed.
    dets = []
    det = np.linalg.det

    def counted(a):
        dets.append(a.shape)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    state = State("quasifree")
    for family in ("delta", "mixed"):
        module = tiny_module(family)
        twist, shift = module.twist, WeylElement.monomial(module.gens, (1, 0))
        v = basis_fock(module, (0, 1))
        apart = fock_left_action(shift, basis_fock(module, (0, 3)))
        assert twist.signature((0, 1)) != twist.signature((0, 3))
        assert gns_inner(v, apart, state) == 0 and not dets
        shared = (0, 1) if family == "delta" else (1, 2)
        assert twist.signature(shared) == twist.signature((0, 1))
        assert gns_inner(v, fock_left_action(shift, basis_fock(module, shared)), state) != 0
        assert dets == ([] if family == "delta" else [(1, 1, 2, 2)])


def test_nonfock_nested_vs_slotwise():
    # coefficients inside the wedge cancel; slotwise evaluation cannot
    module = tiny_module("delta")
    gens = module.gens
    state = State("tracial")
    n = (1, 0)
    f1 = module.basis_element(0, WeylElement.monomial(gens, n))
    f2 = module.basis_element(1, WeylElement.monomial(gens, (-1, 0)))
    g1 = module.basis_element(0)
    g2 = module.basis_element(1)
    vac = vacuum(module)
    nested = gns_inner(annihilate(g2, annihilate(g1, create(f1, create(f2, vac)))), vac, state)
    slotwise = state(module_inner(f1, g1)) * state(module_inner(f2, g2))
    assert abs(nested - slotwise) == 1.0
