"""Model layer: kernels, twists, field builders, gauge action, checks.

Grid kernels get frozen-value tests; the verification battery is run on
designed tiny scenarios whose pass/fail outcome is known by hand.
"""

import cmath
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from fockmod.weyl import GeneratorSet, GridSpec, State, TestFunctionPair, WeylElement
from fockmod.bimodule import (
    SECTOR_MINUS,
    SECTOR_PLUS,
    FreeBimodule,
    ModuleVector,
    OneParticleBasis,
    Twist,
    module_inner,
)
from fockmod.cli import _car_pairs, build_scenario, builtin_car_config
from fockmod.fock import (
    AnnihilateOp,
    CreateOp,
    FieldOperator,
    annihilation,
    anticommutator,
    creation,
    dirac,
    fock_left_action,
    gns_norm,
    spectator_bound,
    wedge,
    weyl_mult,
)
from fockmod import fock, models
from fockmod.models import (
    SIGMA_KINDS,
    build_context,
    check_adjointness,
    check_anticommutator_model,
    check_bilinear_locality,
    check_car,
    check_covariance,
    check_covariance_phase,
    check_dirac_adjoint,
    check_gauge_invariance,
    check_gram_positivity,
    check_mutual_freeness,
    check_neutral_commutant,
    check_nonfock,
    check_norm_recovery,
    check_observable_net,
    check_pauli,
    check_relative_locality,
    check_weyl_exactness,
    conventions,
    electron,
    electron_star,
    gauge_transform,
    kernel_value,
    level_basis,
    make_twist,
    observable,
    plus_vector,
    sigma_convolve,
    term_charge,
)

from _support import (
    mixed_car_case,
    poisson_2d_config,
    ref_car_sweep,
    ref_sigma_convolve,
    tiny_gens,
    tiny_grid,
    tiny_module,
    tiny_pairs,
)

GRID = tiny_grid()
UNIT_W = WeylElement.unit


def delta_ctx(**kw):
    return build_context("delta", GRID, tiny_pairs(GRID), **kw)


def lebesgue_ctx(pairs=None, **kw):
    return build_context("lebesgue", GRID, pairs or tiny_pairs(GRID), **kw)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_delta():
    assert kernel_value("delta", GRID, (0,)) == 1.0
    assert kernel_value("delta", GRID, (2,)) == 0.0
    half = GridSpec(dimension=1, points_per_axis=3, spacing=0.5)
    assert kernel_value("delta", half, (0,)) == 2.0


def test_kernel_bump():
    assert kernel_value("bump", GRID, (0,), radius=1.5) == 1.0
    assert kernel_value("bump", GRID, (2,), radius=1.5) == 0.0
    mid = kernel_value("bump", GRID, (1,), radius=2.0)
    assert mid == pytest.approx(math.exp(1.0 - 1.0 / (1.0 - 0.25)))
    for radius in (None, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius"):
            kernel_value("bump", GRID, (0,), radius)


def test_kernel_lebesgue_and_unknown():
    assert kernel_value("lebesgue", GRID, (0,)) == 1.0
    assert kernel_value("lebesgue", GRID, (5,)) == 1.0
    with pytest.raises(ValueError, match="unknown sigma kind"):
        kernel_value("gauss", GRID, (0,))


def test_kernel_poisson_values():
    assert kernel_value("poisson", GRID, (2,)) == -1.0
    assert kernel_value("poisson", GRID, (0,)) == -0.125
    g2 = GridSpec(dimension=2, points_per_axis=2)
    assert kernel_value("poisson", g2, (0, 0)) == pytest.approx(
        (math.log(0.5) - 0.5) / (2.0 * math.pi)
    )
    assert kernel_value("poisson", g2, (1, 0)) == pytest.approx(0.0)
    g3 = GridSpec(dimension=3, points_per_axis=2)
    assert kernel_value("poisson", g3, (0, 0, 0)) == pytest.approx(3.0 / (4.0 * math.pi))
    assert kernel_value("poisson", g3, (1, 0, 0)) == pytest.approx(1.0 / (4.0 * math.pi))
    g4 = GridSpec(dimension=4, points_per_axis=2)
    with pytest.raises(ValueError, match="dimensions 1..3"):
        kernel_value("poisson", g4, (1, 0, 0, 0))


def test_convolve_delta_exact_copy():
    s0 = np.array([1.0, -0.5, 2.0])
    out = sigma_convolve("delta", GRID, s0)
    assert out is not s0
    assert np.array_equal(out, s0)


def test_convolve_lebesgue_constant():
    out = sigma_convolve("lebesgue", GRID, [1.0, 2.0, 0.5])
    assert np.array_equal(out, np.full(3, 3.5))


def test_convolve_poisson_quadrupole_screens():
    # 1 -2 1 has zero total charge and zero dipole moment; the kernel is
    # piecewise linear, so the potential vanishes identically outside
    grid = GridSpec(dimension=1, points_per_axis=7)
    s0 = np.zeros(7)
    s0[2], s0[3], s0[4] = 1.0, -2.0, 1.0
    out = sigma_convolve("poisson", grid, s0)
    assert out[0] == 0.0
    assert out[6] == 0.0
    assert out[3] == pytest.approx(0.25 - 1.0)


def test_convolve_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        sigma_convolve("delta", GRID, [1.0, 2.0])


@pytest.mark.parametrize("kind", SIGMA_KINDS)
@pytest.mark.parametrize("dimension", (1, 2, 3))
@pytest.mark.parametrize("spacing", (1.0, 0.37))
def test_convolve_matches_reference_double_sum(kind, dimension, spacing):
    points = {1: 7, 2: 5, 3: 4}[dimension]
    grid = GridSpec(dimension=dimension, points_per_axis=points, spacing=spacing)
    radius = 1.1 if kind == "bump" else None
    sparse = np.zeros(grid.n_points)
    sparse[[1, grid.n_points - 2]] = [0.8, -1.3]
    dense = np.random.default_rng(dimension).normal(size=grid.n_points)
    for s0 in (sparse, dense):
        got = sigma_convolve(kind, grid, s0, radius)
        want = ref_sigma_convolve(kind, grid, s0, radius)
        # bit for bit, signed zeros included
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# model twists


def test_make_twist_delta_diagonal():
    basis = OneParticleBasis(GRID)
    gens = tiny_gens()
    twist = make_twist("delta", basis, gens)
    u0 = twist.unitaries[0]
    assert np.count_nonzero(u0 - np.diag(np.diagonal(u0))) == 0
    assert u0[0, 0] == cmath.exp(-1.0j)
    assert u0[1, 1] == 1.0
    # the - block is the exact conjugate, entry by entry
    assert np.array_equal(u0[3:, 3:], u0[:3, :3].conj())


def test_make_twist_fills_every_component():
    grid = GridSpec(dimension=1, points_per_axis=3, spacing=1.0, components=2)
    basis = OneParticleBasis(grid)
    gens = GeneratorSet(grid, tiny_pairs(grid))
    twist = make_twist("delta", basis, gens)
    for k, pair in enumerate(gens.pairs):
        u = np.diagonal(twist.unitaries[k])
        for p in range(3):
            phase = cmath.exp(-1j * pair.s0[p])
            for c in range(2):
                assert u[basis.index(p, c, SECTOR_PLUS)] == phase
                assert u[basis.index(p, c, SECTOR_MINUS)] == phase.conjugate()


def test_make_twist_lebesgue_uniform():
    basis = OneParticleBasis(GRID)
    gens = tiny_gens()
    twist = make_twist("lebesgue", basis, gens)
    for k in range(2):
        u = twist.unitaries[k]
        phase = cmath.exp(-1.0j * gens.pairs[k].integral_s0())
        assert np.allclose(np.diagonal(u)[:3], phase, atol=1e-15)
        assert np.allclose(np.diagonal(u)[3:], phase.conjugate(), atol=1e-15)


def test_conventions_stamp():
    conv = conventions(GRID)
    assert set(conv) == {
        "weyl_product",
        "symplectic_form",
        "generator_commutation",
        "lebesgue_twist",
        "lebesgue_phase",
        "poisson_origin",
    }
    assert "-0.125" in conv["poisson_origin"]
    assert "exp(+i/2 eta(n,n'))" in conv["weyl_product"]


# ---------------------------------------------------------------------------
# plus vectors and supports


def test_plus_vector_and_supports():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [0.0, 2.0, 0.0])
    assert set(f.entries) == {1}
    # the support in grid order, with the profile's values
    h = plus_vector(ctx.module, [-1.5, 0.0, 0.25])
    assert list(h.by_group()[(0, 0)].coeffs.items()) == [(0, -1.5), (2, 0.25)]
    # a profile of another length than the grid is refused, not cut or padded
    for profile in ([1.0, 0.0], [0.0, 0.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="length"):
            plus_vector(ctx.module, profile)


def test_plus_vector_minus_sector():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [1.0, 0.0, 0.0], sector=SECTOR_MINUS)
    assert set(f.entries) == {3}
    with pytest.raises(ValueError, match="sector"):
        electron(f)
    with pytest.raises(ValueError, match="sector"):
        electron_star(f)


# ---------------------------------------------------------------------------
# gauge action


def test_electron_terms_carry_unit_charge():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    for scalar, prims in electron(f).terms:
        assert term_charge(prims) == -1
    for scalar, prims in electron_star(f).terms:
        assert term_charge(prims) == +1


def test_gauge_scales_charged_fields():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    z = cmath.exp(0.7j)
    op = electron(f)
    moved = gauge_transform(z, op)
    for (s1, p1), (s2, p2) in zip(op.terms, moved.terms):
        assert p1 is p2
        assert abs(s2 - s1 * z ** (-1)) <= 1e-15
    starred = electron_star(f)
    moved = gauge_transform(z, starred)
    for (s1, p1), (s2, p2) in zip(starred.terms, moved.terms):
        assert abs(s2 - s1 * z) <= 1e-15


def test_gauge_fixes_observables_exactly():
    ctx = delta_ctx()
    w1 = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    w2 = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    op = observable(UNIT_W(ctx.gens), w1, w2)
    moved = gauge_transform(cmath.exp(1.3j), op)
    assert len(moved.terms) == len(op.terms)
    for (s1, p1), (s2, p2) in zip(op.terms, moved.terms):
        assert s1 == s2 and p1 is p2


def test_gauge_mixed_sector_scales_entries():
    ctx = delta_ctx()
    mixed = ModuleVector(ctx.module, {0: UNIT_W(ctx.gens), 3: UNIT_W(ctx.gens)})
    z = cmath.exp(0.4j)
    op = dirac(mixed)
    moved = gauge_transform(z, op)
    for (s1, p1), (s2, p2) in zip(op.terms, moved.terms):
        assert s1 == s2
        for q1, q2 in zip(p1, p2):
            if isinstance(q1, (CreateOp, AnnihilateOp)):
                assert q2 is not q1
                for b, a in q1.vector.entries.items():
                    want = (z.conjugate() if b < 3 else z) * a
                    assert q2.vector.entries[b].close_to(want)


def test_gauge_rejects_off_circle():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    for z in (2.0, complex(math.nan, math.nan), complex(math.nan, 0.0), math.inf):
        with pytest.raises(ValueError, match="unit circle"):
            gauge_transform(z, electron(f))
    # a NaN angle used to leave every observable untouched, and pass
    spec = (UNIT_W(ctx.gens), f, f)
    with pytest.raises(ValueError, match="unit circle"):
        check_gauge_invariance(ctx, [spec], [0.7, math.nan])


def test_level_basis_counts():
    ctx = delta_ctx()
    assert len(level_basis(ctx.module, 2)) == 1 + 6 + 15
    assert len(level_basis(ctx.module, 2, [0, 1, 2])) == 1 + 3 + 3
    assert len(level_basis(ctx.module, 0)) == 1


def test_level_basis_orders_tuples_by_level_then_lexicographically():
    # the vacuum's tuple () first, whatever order the indices come in
    module = delta_ctx().module
    assert level_basis(module, 0) == [()]
    assert level_basis(module, 2, [4, 1, 3]) == [(), (1,), (3,), (4,), (1, 3), (1, 4), (3, 4)]
    got = level_basis(module, 3)
    assert got == sorted(got, key=lambda t: (len(t), t))
    assert got[:3] == [(), (0,), (1,)] and got[-1] == (3, 4, 5)


# ---------------------------------------------------------------------------
# verification battery on designed scenarios


def test_check_weyl_exactness_passes():
    res = check_weyl_exactness(tiny_gens(), seed=3, cases=40)
    assert res.passed
    assert res.details["exact_keys"] is True
    assert res.residuals["phase"] <= 1e-14
    assert res.residuals["word_modulus"] <= 1e-14


def test_check_gram_positivity_passes():
    assert check_gram_positivity(tiny_gens(), seed=5).passed


def test_check_car_designed_pairs():
    ctx = delta_ctx()
    free_f = ctx.module.basis_element(0)
    free_g = ctx.module.basis_element(2)
    bad_f = ctx.module.basis_element(0, WeylElement.monomial(ctx.gens, (1, 0)))
    bad_g = ctx.module.basis_element(1, WeylElement.monomial(ctx.gens, (0, 1)))
    res = check_car(ctx, [(free_f, free_g, True), (bad_f, bad_g, False)])
    assert res.passed
    assert res.residuals["free_max"] == 0.0
    assert res.residuals["nonfree_min"] > 0.1


def test_check_car_flags_wrong_expectation():
    ctx = delta_ctx()
    f = ctx.module.basis_element(0, WeylElement.monomial(ctx.gens, (1, 0)))
    g = ctx.module.basis_element(1, WeylElement.monomial(ctx.gens, (0, 1)))
    res = check_car(ctx, [(f, g, True)])
    assert not res.passed
    # the wrong decision is flagged first, then the residual blows up
    assert res.witness["problem"] in ("freeness_decision", "free_residual")


def _designed_pair(ctx):
    """Non-free pair on the touched slots 0 and 1, labelled (1, 0) and
    (0, 1)."""
    gens = ctx.module.gens
    f = ctx.module.basis_element(0, WeylElement.monomial(gens, (1, 0)))
    g = ctx.module.basis_element(1, WeylElement.monomial(gens, (0, 1)))
    return f, g


def _one_point_case():
    """1D x 1, one component (d = 2): at most one index lies outside a
    pair's touched set."""
    grid = GridSpec(1, 1)
    ctx = build_context("delta", grid, [TestFunctionPair(grid, [1.0], [0.0])])
    plus, minus = ctx.module.basis_element(0), ctx.module.basis_element(1)
    moved = ctx.module.basis_element(0, WeylElement.monomial(ctx.gens, (1,)))
    return ctx, [(plus, minus, True), (moved, plus, False), (moved, minus, False)]


def _both_sectors_case():
    """Vectors with entries in both charge sectors, so partners are touched,
    and coefficients of several Weyl labels, so each has several groups."""
    ctx = delta_ctx()
    module, gens = ctx.module, ctx.gens

    def vec(entries):
        return ModuleVector(module, {b: WeylElement(gens, terms) for b, terms in entries.items()})

    # point 2 (slots 2, 5) and point 1 (slots 1, 4) are unmoved by labels
    # (k, 0), which commute with each other
    f = vec({2: {(1, 0): 1.0, (2, 0): 0.5}, 5: {(1, 0): -0.7j}})
    g = vec({1: {(-1, 0): 1.0, (0, 0): 0.3}, 4: {(2, 0): 0.4 + 0.2j, (1, 0): 1.0}})
    p = vec({0: {(1, 0): 1.0, (0, 1): 0.5}, 3: {(0, 1): 1.0}})
    q = vec({1: {(0, 1): 1.0}, 4: {(1, 0): 1.0, (1, 1): -0.3}})
    return ctx, [(f, g, True), (p, q, False), (q, p, False)]


def _mixed_designed_case():
    """The designed non-free pair and a free pair at W(0) on the
    ``mixing_twist`` family, whose coupling blocks are the two sectors."""
    ctx = dataclasses.replace(delta_ctx(), module=tiny_module("mixed"))
    module = ctx.module
    return ctx, [(module.basis_element(0), module.basis_element(2), True), (*_designed_pair(ctx), False)]


def _car_case(case):
    if case == "one_point":
        return _one_point_case()
    if case == "both_sectors":
        return _both_sectors_case()
    if case == "mixed_designed":
        return _mixed_designed_case()
    if case == "mixed_rotated":
        return mixed_car_case()
    if case in SIGMA_KINDS:
        cfg = builtin_car_config(case, 1)
    elif case == "poisson_2d":
        cfg = poisson_2d_config(4)
    else:
        ctx = delta_ctx()
        return ctx, [(*_designed_pair(ctx), case == "claimed_free")]
    ctx = build_scenario(cfg)
    return ctx, _car_pairs(ctx, cfg["checks"][0], "car")


def _within_ulps(a, b, ulps=4):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def _recorded_level_bases(monkeypatch) -> list[tuple]:
    """(top, indices, tuples) of every ``level_basis`` that models builds
    from now on; indices is a sweep's sorted touched set."""
    build = models.level_basis
    built = []

    def recorded(module, top, indices=None):
        built.append((top, indices, build(module, top, indices)))
        return built[-1][2]

    monkeypatch.setattr(models, "level_basis", recorded)
    return built


def _car_ops(ctx, f, g, free):
    """The (operator, top) pairs ``check_car`` sweeps for one pair."""
    module = ctx.module
    ops = [(anticommutator(annihilation(f), creation(g)) - weyl_mult(module, module_inner(f, g)), 2)]
    if free:
        ops += [(anticommutator(annihilation(f), annihilation(g)), 2)]
        ops += [(anticommutator(creation(f), creation(g)), 1)]
    return ops


# the quasifree copies compare the sweep over the touched set, with its
# spectator bound, against the whole basis
_QUASIFREE_CAR_CASES = ("designed", "one_point", "both_sectors", "mixed_designed", "mixed_rotated")


@pytest.mark.parametrize(
    "case, state_kind",
    (
        *(
            pytest.param(case, "tracial", id=case)
            for case in (
                *SIGMA_KINDS,
                "poisson_2d",
                "designed",
                "claimed_free",
                "one_point",
                "both_sectors",
                "mixed_designed",
                "mixed_rotated",
            )
        ),
        *(pytest.param(case, "quasifree", id=f"{case}-quasifree") for case in _QUASIFREE_CAR_CASES),
    ),
)
def test_check_car_matches_full_sweep(case, state_kind, monkeypatch):
    ctx, pairs = _car_case(case)
    ctx = dataclasses.replace(ctx, state=State(state_kind))
    built = _recorded_level_bases(monkeypatch)
    got = check_car(ctx, pairs)
    assert built
    # no witness repeats a slot, and no two witnesses of a sweep coincide;
    # under both states each sweep is over an operator's touched set
    touched = {
        tuple(sorted(models._touched(op))) for f, g, free in pairs for op, _ in _car_ops(ctx, f, g, free)
    }
    for _, indices, slots in built:
        assert all(a < b for t in slots for a, b in zip(t, t[1:]))
        assert len(set(slots)) == len(slots)
        assert indices in touched
    want = ref_car_sweep(ctx, pairs)
    assert got.status == want["status"]
    assert (got.witness or {}).get("problem") == want["problem"]
    for key in ("free_max", "nonfree_min"):
        assert _within_ulps(got.residuals.get(key), want[key]), key
    if case == "claimed_free":
        # the witness is the probe tuple that set the residual
        at = got.witness["witness_slots"]
        assert isinstance(at, tuple) and any(at in slots for *_, slots in built)
    if case in ("claimed_free", "mixed_designed") and state_kind == "tracial":
        # what the touched-set sweep rests on: under the tracial state an
        # operator leaves one norm on every wedge t and on its part inside T
        for f, g, free in pairs:
            for op, top in _car_ops(ctx, f, g, free):
                touched = models._touched(op)
                for t in level_basis(ctx.module, top):
                    s = tuple(b for b in t if b in touched)
                    on_s = gns_norm(op.apply(wedge(ctx.module, s)), ctx.state)
                    on_t = gns_norm(op.apply(wedge(ctx.module, t)), ctx.state)
                    assert _within_ulps(on_s, on_t), (t, on_s, on_t)


def _recorded_sweep(ctx, op, top, monkeypatch):
    """(indices, probes) of the one probe set ``_swept`` builds for op."""
    with monkeypatch.context() as patch:
        built = _recorded_level_bases(patch)
        models._swept(ctx, [(models.Claim({}), [(op, top)])])
    ((_, indices, got),) = built
    return indices, got


@pytest.mark.parametrize("state_kind", State.KINDS)
def test_swept_builds_one_probe_set_per_touched_set(state_kind, monkeypatch):
    # under either state, every subset of the touched slots {0, 1} on the
    # diagonal twist; the partners 3 and 4 are untouched
    diagonal = delta_ctx(state_kind=state_kind)
    f, g = _designed_pair(diagonal)
    op = anticommutator(annihilation(f), creation(g))
    level_1 = [(), (0,), (1,)]
    for top, slots in ((0, [()]), (1, level_1), (2, level_1 + [(0, 1)])):
        touched, got = _recorded_sweep(diagonal, op, top, monkeypatch)
        assert touched == (0, 1)
        assert got == slots
    # the mixed twist: T is the + block {0, 1, 2}, the coupling block of
    # the touched slots 0 and 1
    mixed = dataclasses.replace(diagonal, module=tiny_module("mixed"))
    f, g = _designed_pair(mixed)
    op = anticommutator(annihilation(f), creation(g))
    level_1 = [(), (0,), (1,), (2,)]
    for top, slots in ((1, level_1), (2, level_1 + [(0, 1), (0, 2), (1, 2)])):
        touched, got = _recorded_sweep(mixed, op, top, monkeypatch)
        assert touched == (0, 1, 2)
        assert got == slots


def _merged_mixed_module():
    """The mixed twist with one exact entry between slot 0 and its partner
    3, which joins its two sectors into one coupling block."""
    module = tiny_module("mixed")
    mats = [u.copy() for u in module.twist.unitaries]
    mats[0][0, 3] = mats[0][3, 0] = 1e-13
    return FreeBimodule(module.basis, module.gens, Twist(module.basis, module.gens, mats))


def test_merged_coupling_blocks_sweep_the_whole_basis(monkeypatch):
    # one exact entry between slot 0 and its partner 3 joins the two
    # sectors of the mixed twist into one block: T is every slot, and the
    # tracial sweep is the whole basis
    ctx = dataclasses.replace(delta_ctx(), module=_merged_mixed_module())
    f, g = _designed_pair(ctx)
    op = anticommutator(annihilation(f), creation(g))
    touched, got = _recorded_sweep(ctx, op, 2, monkeypatch)
    assert touched == tuple(range(6))
    assert got == level_basis(ctx.module, 2)


def test_quasifree_witnesses_fall_back_to_the_whole_basis(monkeypatch):
    # under the quasifree state too, merged coupling blocks make T every
    # slot: the probes are the whole basis at every top, and the witness of
    # a vanishing claim is a wedge of it whose bounded norm covers the
    # maximum over the whole basis
    ctx = dataclasses.replace(delta_ctx(state_kind="quasifree"), module=_merged_mixed_module())
    module, state = ctx.module, ctx.state
    f, g = _designed_pair(ctx)
    op = anticommutator(annihilation(f), creation(g))
    for top in (0, 1, 2):
        touched, got = _recorded_sweep(ctx, op, top, monkeypatch)
        assert touched == tuple(range(module.basis.dim))
        assert got == level_basis(module, top)
    claim = models.Claim({})
    models._swept(ctx, [(claim, [(op, 2)])])
    whole = level_basis(module, 2)
    assert claim.at in whole
    assert max(gns_norm(op.apply(wedge(module, t)), state) for t in whole) <= claim.residual * (1 + 1e-12)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_mixed_twist_norm_depends_on_spectators_by_size(seed):
    # on the mixed twist under the tracial state, the norm an operator
    # leaves on e_s ^ e_B, s inside T and B outside it, is one value per
    # (s, |B|) across the whole basis
    ctx = dataclasses.replace(delta_ctx(), module=tiny_module("mixed"))
    module, gens = ctx.module, ctx.module.gens
    rng = random.Random(seed)

    def vector():
        slots = rng.sample(range(3), rng.randint(1, 2))
        return ModuleVector(module, {b: models._random_weyl(rng, gens) for b in slots})

    f, g = vector(), vector()
    ops = [
        anticommutator(annihilation(f), creation(g)),
        creation(f),
        annihilation(g) @ creation(f) @ annihilation(f),
    ]
    for op in ops:
        touched = models._touched(op)
        assert touched == {0, 1, 2}
        classes: dict = {}
        for slots in level_basis(module, 2):
            key = (tuple(b for b in slots if b in touched), sum(b not in touched for b in slots))
            classes.setdefault(key, set()).add(gns_norm(op.apply(wedge(module, slots)), ctx.state))
        assert len(classes) == 12
        for key, norms in classes.items():
            assert _within_ulps(min(norms), max(norms)), (key, norms)


@pytest.mark.parametrize("family", ("mixed", "uneven", "delta", "poisson"))
def test_spectator_bound_holds_on_every_spectator(family):
    # under the quasifree state an operator's norm on e_s ^ e_B, s inside
    # T and B outside it, is at most K times its norm on e_s, and
    # somewhere above that norm: spectators raise what a sweep over T reads
    ctx = dataclasses.replace(delta_ctx(state_kind="quasifree"), module=tiny_module(family))
    module, state = ctx.module, ctx.state
    gens, dim = module.gens, module.basis.dim
    largest = 0.0
    for seed in (1, 2, 3):
        rng = random.Random(seed)

        def vector():
            slots = rng.sample(range(3), rng.randint(1, 2))
            return ModuleVector(module, {b: models._random_weyl(rng, gens) for b in slots})

        f, g = vector(), vector()
        ops = [
            anticommutator(annihilation(f), creation(g)),
            creation(f),
            annihilation(g) @ creation(f) @ annihilation(f),
        ]
        for op in ops:
            touched = models._touched(op)
            spectators = level_basis(module, 2, set(range(dim)) - touched)
            bounds = [0.0]
            for s in level_basis(module, 2, touched):
                image = op.apply(wedge(module, s))
                on_s = gns_norm(image, state)
                if not on_s:
                    continue
                bounds.append(spectator_bound(image, state) * on_s)
                for b in spectators[1:]:
                    on_sb = gns_norm(op.apply(wedge(module, tuple(sorted(s + b)))), state)
                    assert on_sb <= bounds[-1] * (1 + 1e-12), (s, b, on_sb, bounds[-1])
                    largest = max(largest, on_sb / on_s)
            # a vanishing claim reads the largest bound, which certifies
            # the maximum over the whole basis
            claim = models.Claim({})
            models._swept(ctx, [(claim, [(op, 2)])])
            assert claim.residual == max(bounds)
            whole = max(gns_norm(op.apply(wedge(module, t)), state) for t in level_basis(module, 2))
            assert whole <= claim.residual * (1 + 1e-12)
    assert largest > 1.0


class _OnesState(State):
    """A functional with every value 1: its label Gram matrix is all ones,
    singular for two labels."""

    def value(self, gens, n):
        return 1.0 + 0.0j


def test_spectator_bound_is_infinite_without_a_positive_gram():
    ctx = dataclasses.replace(delta_ctx(), state=_OnesState("quasifree"))
    module, gens = ctx.module, ctx.gens
    two = WeylElement(gens, {(0, 0): 1.0, (1, 0): 1.0})
    assert spectator_bound(fock_left_action(two, wedge(module, (0,))), ctx.state) == math.inf
    assert spectator_bound(wedge(module, (0,)), ctx.state) == 1.0
    # a vanishing claim fails at that probe, without a traceback
    claim = models.Claim({"case": 0})
    models._swept(ctx, [(claim, [(weyl_mult(module, two), 0)])])
    assert claim.residual == math.inf and claim.at == ()
    res = models._evaluate("stub", [claim], 1e-10)
    assert not res.passed and res.witness["case"] == 0


def test_check_car_builds_the_full_sweep_once(monkeypatch):
    # under either state, non-free pairs sweep top 2 alone, over the +
    # block T = {0, 1, 2}; the three pairs share one probe set, built on
    # first use
    for state_kind in State.KINDS:
        ctx = dataclasses.replace(delta_ctx(state_kind=state_kind), module=tiny_module("mixed"))
        f, g = _designed_pair(ctx)
        with monkeypatch.context() as patch:
            built = _recorded_level_bases(patch)
            check_car(ctx, [(f, g, False)] * 3)
        assert [(top, indices) for top, indices, _ in built] == [(2, (0, 1, 2))], state_kind


def test_check_car_builds_a_pair_witness_set_once(monkeypatch):
    # every relation of a pair touches the slots of f and g, and
    # {a(f), a(g)} sweeps the level of {a(f), a*(g)} - <f, g>, so a free
    # pair needs two probe sets and a non-free pair one; within the check
    # each distinct (touched set, top) is built once
    ctx, pairs = _car_case("delta")
    built = _recorded_level_bases(monkeypatch)
    assert check_car(ctx, pairs).passed
    calls = [(indices, top) for top, indices, _ in built]
    free = sum(1 for *_, expect_free in pairs if expect_free)
    assert 0 < free < len(pairs)
    want = set()
    for f, g, expect_free in pairs:
        touched = tuple(sorted(set(f.entries) | set(g.entries)))
        want |= {(touched, 2), (touched, 1)} if expect_free else {(touched, 2)}
    assert len(calls) == len(set(calls)) and set(calls) == want


def test_check_car_scales_to_2d_two_components(monkeypatch):
    cfg = poisson_2d_config(16)
    ctx = build_scenario(cfg)
    assert ctx.module.basis.dim == 1024
    pairs = _car_pairs(ctx, cfg["checks"][0], "car")
    assert len(pairs) == 15
    built = _recorded_level_bases(monkeypatch)
    res = check_car(ctx, pairs)
    assert res.passed and res.residuals["nonfree_min"] > 1.0
    # every subset of the touched set T of at most 2 slots, whatever the
    # dimension of the basis
    swept = {(indices, top): slots for top, indices, slots in built}
    for f, g, _ in pairs:
        op = anticommutator(annihilation(f), creation(g))
        touched = tuple(sorted(models._touched(op)))
        count = sum(math.comb(len(touched), j) for j in range(3))
        assert len(swept[touched, 2]) == count
    # the quasifree state reads the same residuals
    quasifree = check_car(dataclasses.replace(ctx, state=State("quasifree")), pairs)
    assert quasifree.passed and quasifree.residuals == res.residuals


def test_check_adjointness_and_covariance():
    ctx = delta_ctx()
    assert check_adjointness(ctx, seed=11, cases=10).passed
    assert check_covariance(ctx, seed=12, cases=10).passed


def test_check_norm_recovery():
    res = check_norm_recovery(delta_ctx(), seed=13, cases=3)
    assert res.passed
    assert not res.details["degenerate"]


def test_check_failure_witness_names_case():
    # at tol 1e-300 the rounding residuals (about 1e-16) fail, and the
    # witness names the case that set the largest one
    ctx = delta_ctx()
    for res in (
        check_adjointness(ctx, seed=11, cases=10, tol=1e-300),
        check_norm_recovery(ctx, seed=13, cases=3, tol=1e-300),
    ):
        assert not res.passed
        (worst,) = res.residuals.values()
        assert worst > 0.0
        assert set(res.witness) == {"case", "residual"}
        assert res.witness["residual"] == worst
    # weyl_exactness has two residuals; the witness names the one it broke
    res = check_weyl_exactness(tiny_gens(), seed=3, cases=40, tol=1e-300)
    assert not res.passed
    assert res.residuals == {"phase": 0.0, "word_modulus": res.witness["residual"]}
    assert res.witness["residual"] > 0.0
    assert set(res.witness) == {"case", "problem", "residual"}
    assert res.witness["problem"] == "word_modulus"


def test_check_nonfock_gap_is_one():
    # a one-point grid has no second point: the witness must still pick
    # two distinct slots, or e_x ^ e_x = 0 would lose the gap
    point = GridSpec(dimension=1, points_per_axis=1)
    contexts = [
        delta_ctx(),
        build_context("delta", point, [TestFunctionPair(point, [1.0], [0.0])]),
        build_scenario(poisson_2d_config(4)),
    ]
    for ctx in contexts:
        res = check_nonfock(ctx)
        assert res.passed
        assert res.residuals["gap"] == 1.0


def test_check_pauli_delta():
    # and on the 2D x 4^2 two-component Poisson context
    for ctx in (delta_ctx(), build_scenario(poisson_2d_config(4))):
        res = check_pauli(ctx)
        assert res.passed
        assert res.residuals["free"] == 0.0
        assert 0.1 < res.residuals["twisted"] < 1.0
        assert res.witness["points"] == [0, 1]


def test_check_pauli_one_point_grid_has_no_twisted_pair():
    # one point: no two phases to spread a self-pair over
    grid = GridSpec(1, 1)
    ctx = build_context("delta", grid, [TestFunctionPair(grid, [1.0], [0.0])])
    res = check_pauli(ctx)
    assert not res.passed
    assert res.residuals == {"free": 0.0, "twisted": 0.0}
    assert res.witness == {"problem": "no_twisted_pair"}


def test_check_dirac_adjoint():
    assert check_dirac_adjoint(delta_ctx(), seed=17, cases=5).passed


def test_check_relative_locality_delta():
    ctx = delta_ctx()
    away = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    near = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    res = check_relative_locality(ctx, [(away, 0), (away, 1)], [(near, 0)])
    assert res.passed
    assert res.residuals["local_max"] == 0.0
    assert res.residuals["witness_min"] > 0.1


def test_check_bilinear_locality_delta():
    ctx = delta_ctx()
    away = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    near = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    res = check_bilinear_locality(
        ctx, [(0, away, away)], [(0, near, away)]
    )
    assert res.passed
    assert res.residuals["commuting_max"] <= 1e-10
    assert res.residuals["witness_min"] > 0.1


def test_check_anticommutator_model():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    g = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    res = check_anticommutator_model(ctx, [(f, f), (f, g)])
    assert res.passed
    assert res.residuals["max"] <= 1e-10


def test_check_observable_net(monkeypatch):
    ctx = delta_ctx()
    w0 = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    w2 = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    unit = UNIT_W(ctx.gens)
    levels = []
    create = fock.create

    def recorded(f, v):
        out = create(f, v)
        levels.append(max(out.parts, default=0))
        return out

    monkeypatch.setattr(fock, "create", recorded)
    res = check_observable_net(
        ctx, [(unit, w0, w0), (unit, w2, w2)], [(0, 1)]
    )
    assert res.passed
    assert res.details == {}
    assert res.residuals["max"] <= 1e-10
    # words with four creations could step a level-1 probe to level 5, but
    # the touched set holds four slots, e_0 and e_2 with their charge
    # conjugates, so the creations fill at most level 4
    assert max(levels) == 4


def _probe_slots(monkeypatch):
    """Record the slots of every probe a sweep applies, by operator."""
    seen = {}
    apply = FieldOperator.apply

    def recorded(op, v):
        # a probe is a unit wedge: one tuple in one bucket on one level
        (slots,) = (t for labels in v.parts.values() for ts in labels.values() for t in ts)
        seen.setdefault(id(op), (op, []))[1].append(slots)
        return apply(op, v)

    monkeypatch.setattr(FieldOperator, "apply", recorded)
    return seen


def test_check_observable_net_probes_each_pair_over_its_own_slots(monkeypatch):
    # the commutator of the observables at points 0 and 2 touches their
    # slots and partners alone: the observable at point 1 adds no probe
    ctx = delta_ctx()
    basis = ctx.module.basis
    unit = UNIT_W(ctx.gens)
    specs = [(unit, w, w) for w in (plus_vector(ctx.module, np.eye(3)[p]) for p in range(3))]
    seen = _probe_slots(monkeypatch)
    assert check_observable_net(ctx, specs, [(0, 2)]).passed
    ((_, slots),) = seen.values()
    own = sorted(basis.index(p, 0, sector) for p in (0, 2) for sector in (SECTOR_PLUS, SECTOR_MINUS))
    assert slots == [()] + [(b,) for b in own]


def _model_sweep(name):
    """Run one of the five sweep checks besides car and observable_net."""
    ctx = lebesgue_ctx() if name == "covariance_phase" else delta_ctx()
    w0, w1, w2 = (plus_vector(ctx.module, np.eye(3)[p]) for p in range(3))
    if name == "relative_locality":
        return check_relative_locality(ctx, [(w0, 1)], [(w2, 0)])
    if name == "bilinear_locality":
        return check_bilinear_locality(ctx, [(1, w0, w2)], [(0, w0, w1)])
    if name == "anticommutator_model":
        return check_anticommutator_model(ctx, [(w0, w2), (w1, w1)])
    if name == "covariance_phase":
        return check_covariance_phase(ctx, [(w1, 0), (w0, 1)])
    ctx = lebesgue_ctx(tiny_pairs(GRID) + [TestFunctionPair(GRID, [0.5, -0.5, 0.0], [0.0, 0.0, 0.0])])
    return check_neutral_commutant(ctx, [(plus_vector(ctx.module, [1.0, 0.0, 0.0]), 2)])


@pytest.mark.parametrize(
    "name",
    ["relative_locality", "bilinear_locality", "anticommutator_model", "covariance_phase", "neutral_commutant"],
)
def test_model_sweeps_probe_the_wedges_over_the_touched_slots(name, monkeypatch):
    # the vacuum and every wedge of level <= 2 over the operator's
    # touched set T, in level_basis order, and no spectator
    seen = _probe_slots(monkeypatch)
    _model_sweep(name)
    assert seen
    for op, slots in seen.values():
        touched = sorted(models._touched(op))
        assert 0 < len(touched) < op.space.basis.dim
        assert slots == [t for level in range(3) for t in itertools.combinations(touched, level)]


def test_check_gauge_invariance():
    ctx = delta_ctx()
    w0 = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    w2 = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    res = check_gauge_invariance(ctx, [(UNIT_W(ctx.gens), w0, w2)], [0.7, 2.1])
    assert res.passed
    assert res.details["exact"] is True


def test_check_covariance_phase_lebesgue():
    ctx = lebesgue_ctx()
    w = plus_vector(ctx.module, [0.0, 1.0, 0.0])
    res = check_covariance_phase(ctx, [(w, 0), (w, 1)])
    assert res.passed
    assert res.residuals["max"] <= 1e-12


def test_check_neutral_commutant_zero_mean():
    grid = GRID
    pairs = tiny_pairs(grid) + [
        TestFunctionPair(grid, [0.5, -0.5, 0.0], [0.0, 0.0, 0.0])
    ]
    ctx = lebesgue_ctx(pairs)
    w = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    res = check_neutral_commutant(ctx, [(w, 2)])
    assert res.passed


def test_check_neutral_commutant_rejects_charged():
    ctx = lebesgue_ctx()
    w = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    res = check_neutral_commutant(ctx, [(w, 0)])
    assert not res.passed
    assert res.witness["problem"] == "nonzero_mean"
    assert res.residuals["mean"] == pytest.approx(1.0)


def test_check_mutual_freeness():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    g = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    bad_f = ctx.module.basis_element(0, WeylElement.monomial(ctx.gens, (1, 0)))
    bad_g = ctx.module.basis_element(1, WeylElement.monomial(ctx.gens, (0, 1)))
    res = check_mutual_freeness(ctx, [(f, g)], [(bad_f, bad_g)])
    assert res.passed
    flipped = check_mutual_freeness(ctx, [(bad_f, bad_g)], [])
    assert not flipped.passed
    assert flipped.witness["expected"] == "free"
    assert flipped.residuals["false_free_residual"] > 0.0
    # of two false-free pairs, the witness names the larger residual's:
    # eta((2,0),(0,1)) = 1.5 before eta((1,0),(0,1)) = 0.75
    worse_f = ctx.module.basis_element(0, WeylElement.monomial(ctx.gens, (2, 0)))
    both = check_mutual_freeness(ctx, [(worse_f, bad_g), (bad_f, bad_g)], [])
    assert both.witness == {"pair": 0, "expected": "free", "residual": 1.5}
    assert both.residuals["false_free_residual"] == 1.5


def test_sigma_kinds_is_exhaustive():
    assert SIGMA_KINDS == ("delta", "bump", "poisson", "lebesgue")
    basis = OneParticleBasis(GRID)
    gens = tiny_gens()
    for kind in SIGMA_KINDS:
        tw = make_twist(kind, basis, gens, 1.5 if kind == "bump" else None)
        assert len(tw.unitaries) == 2
