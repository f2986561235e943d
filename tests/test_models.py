"""Model layer: kernels, twists, field builders, gauge action, checks.

Grid kernels get frozen-value tests; the verification battery is run on
designed tiny scenarios whose pass/fail outcome is known by hand.
"""

import cmath
import math

import numpy as np
import pytest

from fockmod.weyl import GeneratorSet, GridSpec, TestFunctionPair, WeylElement
from fockmod.bimodule import SECTOR_MINUS, SECTOR_PLUS, ModuleVector, OneParticleBasis
from fockmod.fock import AnnihilateOp, CreateOp, dirac
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
    profile_array,
    sigma_convolve,
    term_charge,
)

from _support import ref_sigma_convolve, tiny_gens, tiny_grid, tiny_pairs

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
# profiles and supports


def test_profile_values_and_zero():
    vals = profile_array(GRID, {"shape": "values", "values": [1.0, 0.0, -2.0]})
    assert np.array_equal(vals, [1.0, 0.0, -2.0])
    assert np.array_equal(profile_array(GRID, {"shape": "zero"}), np.zeros(3))
    with pytest.raises(ValueError, match="length"):
        profile_array(GRID, {"shape": "values", "values": [1.0]})


def test_profile_point_box_bump():
    g5 = GridSpec(dimension=1, points_per_axis=5)
    pt = profile_array(g5, {"shape": "point", "amplitude": 2.0})
    assert np.array_equal(pt, [0, 0, 2.0, 0, 0])
    box = profile_array(g5, {"shape": "box", "center": 2, "width": 2.0})
    assert np.array_equal(box, [0, 1.0, 1.0, 1.0, 0])
    bump = profile_array(g5, {"shape": "bump", "center": 2, "width": 2.0, "amplitude": 3.0})
    assert bump[2] == 3.0
    assert bump[1] == 0.0 and bump[3] == 0.0


def test_profile_center_list_and_errors():
    g2 = GridSpec(dimension=2, points_per_axis=3)
    pt = profile_array(g2, {"shape": "point", "center": [1, 2]})
    assert pt[g2.index((1, 2))] == 1.0
    assert np.count_nonzero(pt) == 1
    with pytest.raises(ValueError, match="unknown shape"):
        profile_array(GRID, {"shape": "spiral"})
    with pytest.raises(ValueError, match="width"):
        profile_array(GRID, {"shape": "box", "width": 0.0})
    # non-finite input is rejected, not turned into an empty or NaN profile
    with pytest.raises(ValueError, match="width"):
        profile_array(GRID, {"shape": "box", "width": math.nan})
    with pytest.raises(ValueError, match="amplitude must be finite"):
        profile_array(GRID, {"shape": "point", "amplitude": math.nan})
    with pytest.raises(ValueError, match="values must be finite"):
        profile_array(GRID, {"shape": "values", "values": [1.0, math.inf, 0.0]})


def test_plus_vector_and_supports():
    ctx = delta_ctx()
    f = plus_vector(ctx.module, [0.0, 2.0, 0.0])
    assert set(f.entries) == {1}
    g = plus_vector(
        ctx.module,
        [1.0, 0.0, 0.0],
        coeff=WeylElement.monomial(ctx.gens, (1, 0)),
    )
    assert set(g.entries) == {0} and set(g.by_group()) == {(1, 0)}


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
    with pytest.raises(ValueError, match="unit circle"):
        gauge_transform(2.0, electron(f))


def test_level_basis_counts():
    ctx = delta_ctx()
    assert len(level_basis(ctx.module, 3, 2)) == 1 + 6 + 15
    assert len(level_basis(ctx.module, 3, 2, [0, 1, 2])) == 1 + 3 + 3
    assert len(level_basis(ctx.module, 3, 0)) == 1


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


def test_check_adjointness_and_covariance():
    ctx = delta_ctx()
    assert check_adjointness(ctx, seed=11, cases=10).passed
    assert check_covariance(ctx, seed=12, cases=10).passed


def test_check_norm_recovery():
    res = check_norm_recovery(delta_ctx(), seed=13, cases=3)
    assert res.passed
    assert not res.details["degenerate"]


def test_check_nonfock_gap_is_one():
    res = check_nonfock(delta_ctx())
    assert res.passed
    assert res.residuals["gap"] == 1.0


def test_check_pauli_delta():
    res = check_pauli(delta_ctx())
    assert res.passed
    assert res.residuals["free"] == 0.0
    assert 0.1 < res.residuals["twisted"] < 1.0
    assert res.witness["points"] == [0, 1]


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


def test_check_observable_net():
    ctx = delta_ctx()
    w0 = plus_vector(ctx.module, [1.0, 0.0, 0.0])
    w2 = plus_vector(ctx.module, [0.0, 0.0, 1.0])
    unit = UNIT_W(ctx.gens)
    res = check_observable_net(
        ctx, [(unit, w0, w0), (unit, w2, w2)], [(0, 1)]
    )
    assert res.passed
    assert res.details["effective_truncation"] == 4
    assert res.residuals["max"] <= 1e-10


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


def test_sigma_kinds_is_exhaustive():
    assert SIGMA_KINDS == ("delta", "bump", "poisson", "lebesgue")
    basis = OneParticleBasis(GRID)
    gens = tiny_gens()
    for kind in SIGMA_KINDS:
        tw = make_twist(kind, basis, gens, 1.5 if kind == "bump" else None)
        assert len(tw.unitaries) == 2
