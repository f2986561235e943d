"""Fixed-time interaction models and the machine-checked claim battery.

A model is a choice of smearing kernel sigma; convolving a generator's
position component gives a phase profile, and the twist multiplies the
+ charge sector by exp(-i phi) and the - sector by exp(+i phi).  The
four kinds:

    delta     phi = s0, sharp localization
    bump      phi supported within radius r of supp(s0)
    poisson   phi is the Coulomb-type potential of s0, long range
    lebesgue  phi is the constant integral of s0, a global phase

Check functions evaluate operator identities on explicit witness
vectors and return CheckResult records that the report layer serializes.
Every check measures its cases as Claim records, each a residual that
must vanish or must act, or a failed precondition, and one reducer,
``_evaluate``, turns them into the result; the sweep checks (car,
relative and bilinear locality, the anticommutator model, the observable
net, covariance phase, the neutral commutant) measure each claim in
``_swept``, as the worst GNS norm its operators leave on probes built
from each operator.  Three reports have a shape the reducer does not
make and are built directly: weyl_exactness (two vanishing residuals),
pauli (a witness on a pass too) and the nonzero-mean precondition of
neutral_commutant.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .weyl import (
    GeneratorSet,
    GridSpec,
    State,
    WeylElement,
    gram_matrix,
)
from .bimodule import (
    FreeBimodule,
    ModuleVector,
    OneParticleBasis,
    OneParticleVector,
    Twist,
    SECTOR_MINUS,
    SECTOR_PLUS,
    FREE_TOL,
    conjugate_vector,
    module_inner,
    mutually_free,
)
from .fock import (
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
    gns_inner,
    gns_norm,
    spectator_bound,
    vacuum,
    wedge,
    weyl_mult,
)

__all__ = [
    "SIGMA_KINDS",
    "kernel_value",
    "sigma_convolve",
    "make_twist",
    "ModelContext",
    "build_context",
    "plus_vector",
    "electron",
    "electron_star",
    "observable",
    "term_charge",
    "gauge_transform",
    "level_basis",
    "CheckResult",
    "check_weyl_exactness",
    "check_gram_positivity",
    "check_car",
    "check_adjointness",
    "check_covariance",
    "check_norm_recovery",
    "check_nonfock",
    "check_pauli",
    "check_dirac_adjoint",
    "check_relative_locality",
    "check_bilinear_locality",
    "check_anticommutator_model",
    "check_observable_net",
    "check_gauge_invariance",
    "check_covariance_phase",
    "check_neutral_commutant",
    "check_mutual_freeness",
    "conventions",
]

SIGMA_KINDS = ("delta", "bump", "poisson", "lebesgue")

# an acting residual must exceed this: the designed violations and the
# non-Fock gap are of order one
THRESHOLD = 0.1


# ---------------------------------------------------------------------------
# kernels and convolution


def _origin_regularization(grid: GridSpec) -> float:
    """Half-cell average of the Coulomb-type kernel at displacement 0."""
    a = grid.spacing
    if grid.dimension == 1:
        return -a / 8.0
    if grid.dimension == 2:
        return (math.log(a / 2.0) - 0.5) / (2.0 * math.pi)
    if grid.dimension == 3:
        return 3.0 / (4.0 * math.pi * a)
    raise ValueError("poisson kernel defined for dimensions 1..3")


def kernel_value(kind: str, grid: GridSpec, disp: tuple[int, ...], radius: float | None = None) -> float:
    """Kernel at an integer cell displacement."""
    if kind not in SIGMA_KINDS:
        raise ValueError(f"unknown sigma kind {kind!r}")
    rho = grid.spacing * math.sqrt(sum(d * d for d in disp))
    if kind == "delta":
        return 1.0 / grid.cell_volume if rho == 0.0 else 0.0
    if kind == "bump":
        if radius is None or not 0 < radius < math.inf:
            raise ValueError("bump kernel needs a positive finite radius")
        if rho >= radius:
            return 0.0
        x = rho / radius
        return math.exp(1.0 - 1.0 / (1.0 - x * x))
    if kind == "lebesgue":
        return 1.0
    # poisson
    if rho == 0.0:
        return _origin_regularization(grid)
    if grid.dimension == 1:
        return -rho / 2.0
    if grid.dimension == 2:
        return math.log(rho) / (2.0 * math.pi)
    if grid.dimension == 3:
        return 1.0 / (4.0 * math.pi * rho)
    raise ValueError("poisson kernel defined for dimensions 1..3")


def sigma_convolve(kind: str, grid: GridSpec, s0, radius: float | None = None) -> np.ndarray:
    """Discrete (sigma * s0)(x) = sum_y k(x - y) s0(y) spacing^d.

    The delta kind returns s0 itself, exactly, for every spacing.
    """
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.shape != (grid.n_points,):
        raise ValueError("profile length does not match grid")
    if kind == "delta":
        return s0.copy()
    acc = np.zeros(grid.n_points)
    sources = np.flatnonzero(s0)
    if sources.size:
        # integer coordinates, one row per axis, in grid.coords order
        shape = (grid.points_per_axis,) * grid.dimension
        coords = np.array(np.unravel_index(np.arange(grid.n_points), shape))
        # the kernel depends on a displacement through its squared length
        # alone, and every squared length |x - y|^2 on the grid is that
        # of some point's coordinates
        sq_len = (coords * coords).sum(axis=0)
        table = np.zeros(int(sq_len.max()) + 1)
        for sq, i in zip(*np.unique(sq_len, return_index=True)):
            table[sq] = kernel_value(kind, grid, tuple(int(c) for c in coords[:, i]), radius)
        # add the sources in index order: the sum over y rounds as written
        for y in sources:
            disp = coords - coords[:, y : y + 1]
            acc += table[(disp * disp).sum(axis=0)] * s0[y]
    return acc * grid.cell_volume


def make_twist(
    kind: str,
    basis: OneParticleBasis,
    gens: GeneratorSet,
    radius: float | None = None,
) -> Twist:
    """Diagonal model twist: exp(-i phi) on +, its conjugate on -, passed
    to Twist as one phase vector per generator."""
    return _phase_twist(
        basis, gens, [sigma_convolve(kind, basis.grid, pair.s0, radius) for pair in gens.pairs]
    )


def _phase_twist(basis: OneParticleBasis, gens: GeneratorSet, phis) -> Twist:
    """make_twist on the profiles phi = sigma * s0, one per generator.

    The + block holds exp(-i phi(p)) on every component of point p, the
    - block its conjugate, in the basis order (point-major, + block first).
    """
    components = basis.grid.components
    phases = []
    for phi in phis:
        plus = np.repeat(np.array([cmath.exp(-1j * x) for x in phi], dtype=complex), components)
        phases.append(np.concatenate([plus, plus.conj()]))
    return Twist(basis, gens, phases)


def conventions(grid: GridSpec) -> dict:
    """Sign and regularization conventions stamped into every report."""
    return {
        "weyl_product": "W(n) W(n') = exp(+i/2 eta(n,n')) W(n+n')",
        "symplectic_form": "eta(s,t) = sum_x (s1 t0 - s0 t1) spacing^d",
        "generator_commutation": "tested as eta = 0 within 1e-10",
        "lebesgue_twist": "u = exp(-i integral s0) on the + sector",
        "lebesgue_phase": "W(s) psi(w) = exp(-i <s0>) psi(w) W(s)",
        "poisson_origin": f"half-cell average = {_origin_regularization(grid):.17g}"
        if grid.dimension <= 3
        else "n/a",
    }


# ---------------------------------------------------------------------------
# scenario fabric


@dataclass
class ModelContext:
    """Everything a check needs: the bimodule plus scenario metadata."""

    gens: GeneratorSet
    module: FreeBimodule
    state: State
    # top level of the random cases of adjointness, covariance, norm_recovery
    truncation: int
    vectors: dict[str, ModuleVector] = field(default_factory=dict)
    # sigma * s0 per generator: the phase profiles of the model twist
    phis: tuple[np.ndarray, ...] = ()


def build_context(
    kind: str,
    grid: GridSpec,
    gen_pairs,
    state_kind: str = "tracial",
    truncation: int = 3,
    radius: float | None = None,
) -> ModelContext:
    gens = GeneratorSet(grid, gen_pairs)
    basis = OneParticleBasis(grid)
    phis = tuple(sigma_convolve(kind, grid, pair.s0, radius) for pair in gens.pairs)
    module = FreeBimodule(basis, gens, _phase_twist(basis, gens, phis))
    return ModelContext(
        gens=gens,
        module=module,
        state=State(state_kind),
        truncation=truncation,
        phis=phis,
    )


def plus_vector(
    module: FreeBimodule,
    profile,
    component: int = 0,
    sector: int = SECTOR_PLUS,
) -> ModuleVector:
    """Module vector with the given spatial profile in one sector."""
    basis = module.basis
    profile = np.asarray(profile, dtype=float).reshape(-1)
    if profile.shape != (basis.grid.n_points,):
        raise ValueError("profile length does not match grid")
    vec = OneParticleVector(
        basis,
        {basis.index(p, component, sector): profile[p] for p in np.flatnonzero(profile).tolist()},
    )
    return module.embed(vec)


# ---------------------------------------------------------------------------
# field builders and the gauge action


def _require_sector(f: ModuleVector, sector: int) -> None:
    basis = f.space.basis
    if any(basis.sector_of(b) != sector for b in f.entries):
        raise ValueError("vector is not supported in the required charge sector")


def electron(f: ModuleVector) -> FieldOperator:
    """Matter field psi(f) for f supported in the + sector."""
    _require_sector(f, SECTOR_PLUS)
    return dirac(f)


def electron_star(f: ModuleVector) -> FieldOperator:
    """Adjoint field psi*(f) = psi-hat(kappa f)."""
    _require_sector(f, SECTOR_PLUS)
    return dirac(conjugate_vector(f))


def observable(s: WeylElement, w1: ModuleVector, w2: ModuleVector) -> FieldOperator:
    """Gauge-invariant bilinear psi(w1) W psi*(w2)."""
    return electron(w1) @ weyl_mult(w1.space, s) @ electron_star(w2)


def _vector_charge(f: ModuleVector) -> int | None:
    """+1 for purely - sector, -1 for purely +, None for mixed/empty."""
    basis = f.space.basis
    sectors = {basis.sector_of(b) for b in f.entries}
    if sectors == {SECTOR_PLUS}:
        return -1
    if sectors == {SECTOR_MINUS}:
        return +1
    return None


def term_charge(prims) -> int | None:
    """Net gauge exponent of a word; None when a mixed vector blocks it."""
    total = 0
    for p in prims:
        if isinstance(p, LeftMultOp):
            continue
        q = _vector_charge(p.vector)
        if q is None:
            return None
        # annihilation is antilinear, flipping the exponent
        total += q if isinstance(p, CreateOp) else -q
    return total


def _gauge_scale(f: ModuleVector, z: complex) -> ModuleVector:
    basis = f.space.basis
    zc = z.conjugate()
    return ModuleVector(
        f.space,
        {
            b: (zc if basis.sector_of(b) == SECTOR_PLUS else z) * a
            for b, a in f.entries.items()
        },
    )


def gauge_transform(z: complex, op: FieldOperator) -> FieldOperator:
    """U(1) action scaling the + sector by conj(z), the - sector by z.

    Single-sector words collapse to an integer power of z on the term
    scalar; a word of net charge zero is returned untouched, which is
    what makes gauge invariance structural rather than numerical.
    """
    # written so that a NaN z fails it
    if not abs(abs(z) - 1.0) <= 1e-12:
        raise ValueError("gauge parameter must lie on the unit circle")
    out = []
    for scalar, prims in op.terms:
        q = term_charge(prims)
        if q is None:
            prims = tuple(
                type(p)(_gauge_scale(p.vector, z))
                if isinstance(p, (CreateOp, AnnihilateOp))
                else p
                for p in prims
            )
            out.append((scalar, prims))
        elif q == 0:
            out.append((scalar, prims))
        else:
            out.append((scalar * z**q, prims))
    return FieldOperator(op.space, out)


# ---------------------------------------------------------------------------
# witness machinery


def level_basis(module: FreeBimodule, max_level: int, indices=None) -> list[tuple[int, ...]]:
    """The vacuum's tuple () and every canonical tuple of level <= max_level
    over the index set (all of h by default), by level, then
    lexicographically; ``fock.wedge`` builds each one's unit wedge."""
    indices = sorted(range(module.basis.dim) if indices is None else indices)
    return [t for l in range(max_level + 1) for t in itertools.combinations(indices, l)]


def _touched(op: FieldOperator) -> set[int]:
    """Every slot a creation or annihilation of ``op`` can fill or
    contract: the entries of its primitives' vectors, closed under the
    coupling blocks the twist is stored on (``Twist.closure``), which the
    pulled vectors u(-k) f_n the primitives insert and contract never leave."""
    return op.space.twist.closure(
        b
        for _, prims in op.terms
        for p in prims
        if not isinstance(p, LeftMultOp)
        for b in p.vector.entries
    )


@dataclass
class CheckResult:
    """One verified claim: status, measured residuals, witness data."""

    name: str
    status: str
    residuals: dict[str, float] = field(default_factory=dict)
    tolerance: dict[str, float] = field(default_factory=dict)
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _result(name, ok, residuals, tolerance, witness=None, details=None) -> CheckResult:
    return CheckResult(
        name=name,
        status="pass" if ok else "fail",
        residuals=residuals,
        tolerance=tolerance,
        witness=witness,
        details=details or {},
    )


@dataclass
class Claim:
    """One measured case of a check: a residual that must vanish or act.

    A vanishing claim needs ``residual`` at most tol, an acting one above
    THRESHOLD; ``label`` names the case in a failure witness.  ``at`` is
    the slot tuple of the probe that set a swept residual, () for the
    vacuum, and None when the residual was not swept.  ``fault`` is the
    witness of a precondition the case failed; it fails the check whatever
    the residual.
    """

    label: dict
    residual: float = 0.0
    vanish: bool = True
    fault: dict | None = None
    at: tuple[int, ...] | None = None


def _swept(ctx: ModelContext, cases) -> list[Claim]:
    """Measure one check's cases, each a (Claim, ops) pair: the claim's
    residual becomes the largest GNS norm any (operator, top) of ops leaves
    on its probes, unit wedges of norm 1, and ``at`` the slot tuple of the
    first probe that reached it.

    The probes of an operator are the vacuum and the wedges of level <= top
    over its touched set T (``_touched``), in ``level_basis`` order, under
    either state; the truncation never enters a sweep.  A probe stays in
    frame 0, since no operator changes a frame, and T is closed under the
    coupling blocks, so the pulled vectors u(-k) f_n an operator inserts
    and contracts never reach a slot b outside T: Op(e_s ^ e_B) =
    +-Op(e_s) ^ e_B, bucket by bucket.  Under the tracial state buckets of
    different labels never pair, so the norm on e_s ^ e_B is the norm on
    e_s up to an ulp.  The quasifree state pairs them through minors of u,
    which do see B, and the norm on e_s ^ e_B is at most K times the norm
    on e_s, K = ``spectator_bound`` of the image (README, Conventions).  So
    a vanishing claim takes K times each probe's nonzero norm, a bound on
    the whole basis, and an acting claim the norm itself, a lower bound.
    Each probe set is built once per check, when it is first swept, per
    (T, top), as (slots, unit wedge) pairs.
    """
    module = ctx.module
    memo: dict[tuple, list[tuple]] = {}

    def probes(op, top):
        # a sorted tuple, so the probe order does not follow the hash seed
        key = (tuple(sorted(_touched(op))), top)
        if key not in memo:
            memo[key] = [(t, wedge(module, t)) for t in level_basis(module, top, key[0])]
        return memo[key]

    claims = []
    for claim, ops in cases:
        worst, at = 0.0, None
        for op, top in ops:
            for slots, v in probes(op, top):
                image = op.apply(v)
                r = gns_norm(image, ctx.state)
                if r and claim.vanish:
                    r *= spectator_bound(image, ctx.state)
                if at is None or r > worst:
                    worst, at = r, slots
        if at is not None:
            claim.residual, claim.at = worst, at
        claims.append(claim)
    return claims


def _evaluate(
    name: str,
    claims,
    tol: float,
    keys: tuple = ("max", None),
    details: dict | None = None,
) -> CheckResult:
    """Reduce the measured claims, in order, to one result.

    Reports the worst vanishing residual under keys[0], unless keys[0] is
    None, and, when any claim must act, the smallest acting residual
    under keys[1].  The witness is the last fault, or the last case that
    set a new extreme and broke its claim, whichever came later; a swept
    case's witness also gives its probe's slot tuple as witness_slots.
    """
    worst, best, faulty, wit = 0.0, None, False, None
    for c in claims:
        if c.fault is not None:
            faulty, wit = True, c.fault
        r, broke = c.residual, False
        if c.vanish and r > worst:
            worst, broke = r, r > tol
        elif not c.vanish and (best is None or r < best):
            best, broke = r, r <= THRESHOLD
        if broke:
            wit = {**c.label, "residual": r}
            if c.at is not None:
                wit["witness_slots"] = c.at
    residuals, tols = {}, {}
    if keys[0] is not None:
        residuals[keys[0]], tols[keys[0]] = worst, tol
    ok = not faulty and worst <= tol
    if best is not None:
        residuals[keys[1]], tols[keys[1]] = best, THRESHOLD
        ok = ok and best > THRESHOLD
    return _result(name, ok, residuals, tols, wit, details)


# ---------------------------------------------------------------------------
# algebra-level checks


def check_weyl_exactness(gens: GeneratorSet, seed: int, cases: int = 200, tol: float = 1e-14) -> CheckResult:
    """Random words multiply to the exact group element with the cocycle
    phase, and single products match exp(i eta / 2) to tolerance; the
    witness is the last case that broke its keys or a new worst residual."""
    rng = random.Random(seed)
    m = len(gens)
    worst = {"phase": 0.0, "word_modulus": 0.0}
    exact_keys = True
    witness = None

    def measure(i, problem, r):
        nonlocal witness
        if r > worst[problem]:
            worst[problem] = r
            if r > tol:
                witness = {"case": i, "problem": problem, "residual": r}

    for i in range(cases):
        n = tuple(rng.randint(-2, 2) for _ in range(m))
        n2 = tuple(rng.randint(-2, 2) for _ in range(m))
        prod = WeylElement.monomial(gens, n) * WeylElement.monomial(gens, n2)
        key = tuple(a + b for a, b in zip(n, n2))
        if set(prod.terms) != {key}:
            exact_keys, witness = False, {"case": i, "problem": "exact_keys"}
            continue
        measure(i, "phase", abs(prod.terms[key] - cmath.exp(0.5j * gens.eta(n, n2))))
        # longer word: unitarity of the accumulated cocycle
        word = WeylElement.monomial(gens, n)
        total = list(n)
        for _ in range(3):
            nk = tuple(rng.randint(-1, 1) for _ in range(m))
            word = word * WeylElement.monomial(gens, nk)
            total = [a + b for a, b in zip(total, nk)]
        if set(word.terms) != {tuple(total)}:
            exact_keys, witness = False, {"case": i, "problem": "exact_keys"}
            continue
        measure(i, "word_modulus", abs(abs(word.terms[tuple(total)]) - 1.0))
    ok = exact_keys and max(worst.values()) <= tol
    return _result(
        "weyl_exactness",
        ok,
        worst,
        {"phase": tol, "word_modulus": tol},
        witness,
        details={"cases": cases, "exact_keys": exact_keys},
    )


def check_gram_positivity(gens: GeneratorSet, seed: int, size: int = 8, tol: float = 1e-10) -> CheckResult:
    """GNS Gram matrices of random elements are PSD in both states."""
    rng = random.Random(seed)
    m = len(gens)
    elems = []
    for _ in range(size):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            n = tuple(rng.randint(-1, 1) for _ in range(m))
            terms[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        elems.append(WeylElement(gens, terms))
    claims = []
    for kind in State.KINDS:
        g = gram_matrix(State(kind), elems)
        eig = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
        claims.append(Claim({"state": kind}, max(0.0, -float(eig.min()))))
    return _evaluate("gram_positivity", claims, tol, ("negativity", None))


# ---------------------------------------------------------------------------
# CAR battery


def check_car(ctx: ModelContext, pairs, tol: float = 1e-10) -> CheckResult:
    """Anticommutation relations on wedge witnesses.

    pairs: iterable of (f, g, expect_free).  Free pairs must satisfy all
    three relations within tol on every witness; designed non-free pairs
    must show a mixed residual above THRESHOLD somewhere.  Freeness
    decisions must match expectations.

    Each relation is swept on the vacuum and the wedges of level up to 2,
    and up to 1 for {a*(f), a*(g)}, over its touched set (``_swept``).
    {a(f), a(g)} touches the slots of {a(f), a*(g)} - <f, g>, so the two
    share their probes.
    """
    pairs = list(pairs)
    cases = []
    for idx, (f, g, expect_free) in enumerate(pairs):
        got = mutually_free(f, g).free
        fault = None
        if got != expect_free:
            fault = {"pair": idx, "problem": "freeness_decision", "got": got}
        inner = weyl_mult(f.space, module_inner(f, g))
        ops = [(anticommutator(annihilation(f), creation(g)) - inner, 2)]
        if expect_free:
            ops += [
                (anticommutator(annihilation(f), annihilation(g)), 2),
                (anticommutator(creation(f), creation(g)), 1),
            ]
        label = "free_residual" if expect_free else "nonfree_too_small"
        cases.append((Claim({"pair": idx, "problem": label}, vanish=expect_free, fault=fault), ops))
    claims = _swept(ctx, cases)
    return _evaluate("car", claims, tol, ("free_max", "nonfree_min"), {"pairs": len(pairs)})


def _random_weyl(rng, gens) -> WeylElement:
    """One or two terms with exponents in {-1, 0, 1}."""
    terms = {}
    m = len(gens)
    for _ in range(rng.randint(1, 2)):
        n = tuple(rng.randint(-1, 1) for _ in range(m))
        terms[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return WeylElement(gens, terms)


def _random_module_vector(rng, module) -> ModuleVector:
    """One or two entries with random Weyl coefficients."""
    dim = module.basis.dim
    entries = {}
    for _ in range(rng.randint(1, 2)):
        entries[rng.randrange(dim)] = _random_weyl(rng, module.gens)
    return ModuleVector(module, entries)


def _random_fock(rng, module, top) -> FockElement:
    """Random terms on levels 0..top; no wedge lives above level dim."""
    dim = module.basis.dim
    parts: dict[int, dict] = {0: {(): _random_weyl(rng, module.gens)}}
    for l in range(1, min(top, dim) + 1):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            t = tuple(sorted(rng.sample(range(dim), l)))
            terms[t] = _random_weyl(rng, module.gens)
        parts[l] = terms
    return FockElement(module, parts)


def check_adjointness(ctx: ModelContext, seed: int, cases: int = 100, tol: float = 1e-10) -> CheckResult:
    """<v, a(f) w> = <a*(f) v, w> on random data, both states."""
    rng = random.Random(seed)
    module = ctx.module
    n = ctx.truncation
    claims = []
    states = [State(k) for k in State.KINDS]
    for i in range(cases):
        f = _random_module_vector(rng, module)
        v = _random_fock(rng, module, n - 1)
        w = _random_fock(rng, module, n)
        st = states[i % 2]
        lhs = gns_inner(v, annihilate(f, w), st)
        rhs = gns_inner(create(f, v), w, st)
        claims.append(Claim({"case": i}, abs(lhs - rhs)))
    return _evaluate("adjointness", claims, tol, details={"cases": cases})


def check_covariance(ctx: ModelContext, seed: int, cases: int = 100, tol: float = 1e-12) -> CheckResult:
    """Left multiplication intertwines with twisted creation and
    annihilation: W a*(w) = a*(u w) W and W a(u* w) = a(w) W on h."""
    rng = random.Random(seed)
    module = ctx.module
    gens = module.gens
    m = len(gens)
    claims = []
    states = [State(k) for k in State.KINDS]
    for i in range(cases):
        n = tuple(rng.randint(-1, 1) for _ in range(m))
        wv = OneParticleVector(
            module.basis,
            {
                rng.randrange(module.basis.dim): complex(
                    rng.uniform(-1, 1), rng.uniform(-1, 1)
                ),
                rng.randrange(module.basis.dim): complex(
                    rng.uniform(-1, 1), rng.uniform(-1, 1)
                ),
            },
        )
        wmono = WeylElement.monomial(gens, n)
        f = module.embed(wv)
        fu = module.embed(module.twist.apply(n, wv))
        probe = _random_fock(rng, module, ctx.truncation - 1)
        st = states[i % 2]
        lhs = weyl_mult(module, wmono) @ creation(f)
        rhs = creation(fu) @ weyl_mult(module, wmono)
        r = gns_norm((lhs - rhs).apply(probe), st)
        claims.append(Claim({"case": i, "relation": "creation"}, r))
        neg = tuple(-x for x in n)
        fd = module.embed(module.twist.apply(neg, wv))
        lhs2 = weyl_mult(module, wmono) @ annihilation(fd)
        rhs2 = annihilation(f) @ weyl_mult(module, wmono)
        r = gns_norm((lhs2 - rhs2).apply(probe), st)
        claims.append(Claim({"case": i, "relation": "annihilation"}, r))
    return _evaluate("covariance", claims, tol, details={"cases": cases})


def check_norm_recovery(ctx: ModelContext, seed: int, cases: int = 20, tol: float = 1e-8) -> CheckResult:
    """Compression norm of a(w) equals ||w|| = 1 for unit w in h.

    Each case compresses a(w) to the vacuum and the unit wedges of level
    <= truncation over w's sites and up to two more, given as their
    distinct tuples (``level_basis``); ``compression_norm`` reads the
    compression off the images, with no GNS pairing.  The unit wedges are
    orthonormal, so the detail "degenerate" is always false."""
    rng = random.Random(seed)
    module = ctx.module
    dim = module.basis.dim
    claims = []
    for i in range(cases):
        # a one-point grid has dim 2: at most dim distinct sites
        picks = rng.sample(range(dim), min(rng.randint(1, 3), dim))
        coeffs = {b: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for b in picks}
        vec = OneParticleVector(module.basis, coeffs)
        nrm = vec.norm()
        vec = (1.0 / nrm) * vec
        extras = [b for b in rng.sample(range(dim), 2) if b not in picks]
        span = sorted(set(picks) | set(extras))
        norm = compression_norm(annihilation(module.embed(vec)), level_basis(module, ctx.truncation, span))
        claims.append(Claim({"case": i}, abs(norm - 1.0)))
    details = {"cases": cases, "degenerate": False}
    return _evaluate("norm_recovery", claims, tol, ("max_error", None), details)


def _two_sites(basis) -> tuple[int, int]:
    """The + sector indices of component 0 at points 0 and 1.  A one-point
    grid has no point 1, so there the second index is basis index 1: two
    equal slots would wedge to zero."""
    x = basis.index(0, 0, SECTOR_PLUS)
    y = basis.index(min(1, basis.grid.n_points - 1), 0, SECTOR_PLUS)
    return x, (y if y != x else x + 1)


def check_nonfock(ctx: ModelContext) -> CheckResult:
    """The nested scalar product is not the slotwise product.

    Witness: v = a*(e_x W(n)) a*(e_y W(-n)) Omega, w = a*(e_x) a*(e_y) Omega.
    The nested value <v, w> sees the coefficients cancel inside the wedge;
    the slotwise product evaluates each factor separately and dies in the
    trace.
    """
    module = ctx.module
    gens = module.gens
    state = State("tracial")
    x, y = _two_sites(module.basis)
    n = gens.unit(0)
    wn = WeylElement.monomial(gens, n)
    wneg = WeylElement.monomial(gens, tuple(-v for v in n))
    f1 = module.basis_element(x, wn)
    f2 = module.basis_element(y, wneg)
    g1 = module.basis_element(x)
    g2 = module.basis_element(y)
    vac = vacuum(module)
    # <v, w> = <a(g2) a(g1) v, Omega>: w's creators moved over as annihilators
    nested = gns_inner(annihilate(g2, annihilate(g1, create(f1, create(f2, vac)))), vac, state)
    slotwise = state(module_inner(f1, g1)) * state(module_inner(f2, g2))
    claims = [Claim({"slots": [x, y]}, abs(nested - slotwise), vanish=False)]
    details = {"nested": repr(nested), "slotwise": repr(slotwise)}
    return _evaluate("nonfock_witness", claims, 0.0, (None, "gap"), details)


def check_pauli(ctx: ModelContext, tol: float = 1e-12) -> CheckResult:
    """Wedge of a mutually free pair antisymmetrizes to zero; a twisted
    self-pair does not.  The self-pair needs a generator with two points
    whose phases differ by more than 0.5; with none (a one-point grid, say)
    the check fails with the witness no_twisted_pair."""
    module = ctx.module
    basis = module.basis
    gens = module.gens
    state = State("tracial")
    vac = vacuum(module)
    # free pair: plain one-particle vectors at distinct sites
    x, y = _two_sites(basis)
    a = module.basis_element(x)
    b = module.basis_element(y)
    free_norm = gns_norm(create(a, create(b, vac)) + create(b, create(a, vac)), state)
    # twisted self-pair: spread over two sites the twist phases apart
    spreads = {}
    for k, phi in enumerate(ctx.phis):
        for p1, p2 in itertools.combinations(range(basis.grid.n_points), 2):
            if abs(phi[p1] - phi[p2]) > 0.5:
                spreads[k] = (p1, p2)
                break
    twisted_norm = 0.0
    witness = None if spreads else {"problem": "no_twisted_pair"}
    for k, (p1, p2) in spreads.items():
        vec = OneParticleVector(
            basis,
            {
                basis.index(p1, 0, SECTOR_PLUS): 1 / math.sqrt(2),
                basis.index(p2, 0, SECTOR_PLUS): 1 / math.sqrt(2),
            },
        )
        f = module.embed(vec, WeylElement.monomial(gens, gens.unit(k)))
        # a*(f) a*(f) Omega = sqrt 2 P_-(f x f)
        nrm = gns_norm(create(f, create(f, vac)), state) / math.sqrt(2)
        if nrm > twisted_norm:
            twisted_norm = nrm
            witness = {"generator": k, "points": [p1, p2]}
    ok = free_norm <= tol and twisted_norm > THRESHOLD
    return _result(
        "pauli",
        ok,
        {"free": free_norm, "twisted": twisted_norm},
        {"free": tol, "twisted": THRESHOLD},
        witness,
    )


def check_dirac_adjoint(ctx: ModelContext, seed: int, cases: int = 10, tol: float = 1e-12) -> CheckResult:
    """The field adjoint is charge conjugation on the argument."""
    rng = random.Random(seed)
    module = ctx.module
    claims = []
    for i in range(cases):
        f = _random_module_vector(rng, module)
        if not dirac(f).adjoint().equivalent(dirac(conjugate_vector(f)), tol):
            claims.append(Claim({"case": i}, fault={"case": i, "problem": "not_conjugation"}))
    return _evaluate("dirac_adjoint", claims, tol, (None, None), {"cases": cases})


# ---------------------------------------------------------------------------
# model-specific checks


def _generator_op(ctx: ModelContext, k: int) -> FieldOperator:
    """Left multiplication by the Weyl generator W(e_k)."""
    gens = ctx.module.gens
    return weyl_mult(ctx.module, WeylElement.monomial(gens, gens.unit(k)))


def check_relative_locality(ctx: ModelContext, local_pairs, witness_pairs, tol: float = 1e-12) -> CheckResult:
    """[psi(w), W] vanishes when the twist leaves w alone, and is seen
    to act otherwise.  Pairs are (vector, generator index)."""
    cases = [
        (
            Claim({"pair": [tag, k]}, vanish=tag == "local"),
            [(commutator(electron(w), _generator_op(ctx, k)), 2)],
        )
        for tag, pairs in (("local", local_pairs), ("witness", witness_pairs))
        for w, k in pairs
    ]
    return _evaluate("relative_locality", _swept(ctx, cases), tol, ("local_max", "witness_min"))


def check_bilinear_locality(ctx: ModelContext, commuting, witnesses, tol: float = 1e-10) -> CheckResult:
    """[W, psi(w1) psi*(w2)] on triples (gen index, w1, w2)."""
    cases = [
        (
            Claim({"triple": [tag, k]}, vanish=tag == "commuting"),
            [(commutator(_generator_op(ctx, k), electron(w1) @ electron_star(w2)), 2)],
        )
        for tag, triples in (("commuting", commuting), ("witness", witnesses))
        for k, w1, w2 in triples
    ]
    return _evaluate("bilinear_locality", _swept(ctx, cases), tol, ("commuting_max", "witness_min"))


def check_anticommutator_model(ctx: ModelContext, pairs, tol: float = 1e-10) -> CheckResult:
    """[psi*(f), psi(g)]_+ collapses to left multiplication by <f, g>
    for mutually free pairs of + sector vectors."""
    cases = []
    for idx, (f, g) in enumerate(pairs):
        if not mutually_free(f, g).free:
            cases.append((Claim({"pair": idx}, fault={"pair": idx, "problem": "not_free"}), []))
            continue
        inner = weyl_mult(ctx.module, module_inner(f, g))
        op = anticommutator(electron_star(f), electron(g)) - inner
        cases.append((Claim({"pair": idx}), [(op, 2)]))
    return _evaluate("anticommutator_model", _swept(ctx, cases), tol)


def check_observable_net(
    ctx: ModelContext,
    specs,
    disjoint_pairs,
    tol: float = 1e-10,
) -> CheckResult:
    """Bilinears with disjoint total supports commute.

    specs: list of (s WeylElement, w1, w2); disjoint_pairs: index pairs
    expected to commute.  A product of two bilinears is four field
    operators, so on a level-1 probe it could reach level 5, but only on
    a touched set of at least five slots: the bundled scenarios peak at
    level 4.  Every level is held, since a probe lives in the whole Fock
    space of h.
    """
    ops = [observable(s, w1, w2) for s, w1, w2 in specs]
    cases = [(Claim({"pair": [i, j]}), [(commutator(ops[i], ops[j]), 1)]) for i, j in disjoint_pairs]
    return _evaluate("observable_net", _swept(ctx, cases), tol)


def check_gauge_invariance(ctx: ModelContext, specs, angles) -> CheckResult:
    """Gauge transforms fix each bilinear term by term, exactly."""
    claims = []
    for idx, (s, w1, w2) in enumerate(specs):
        op = observable(s, w1, w2)
        for theta in angles:
            z = cmath.exp(1j * float(theta))
            moved = gauge_transform(z, op)
            same = len(moved.terms) == len(op.terms) and all(
                s1 == s2 and p1 is p2
                for (s1, p1), (s2, p2) in zip(op.terms, moved.terms)
            )
            if not same:
                fault = {"observable": idx, "angle": float(theta)}
                claims.append(Claim(fault, fault=fault))
    return _evaluate("gauge_invariance", claims, 0.0, (None, None), {"exact": True})


def check_covariance_phase(
    ctx: ModelContext,
    pairs,
    tol: float = 1e-12,
) -> CheckResult:
    """Constant-kernel covariance: W(s) psi(w) = exp(-i <s0>) psi(w) W(s)
    and the phase-corrected W intertwines trivially."""
    cases = []
    for w, k in pairs:
        phase = cmath.exp(-1j * ctx.gens.pairs[k].integral_s0())
        wop = _generator_op(ctx, k)
        psi = electron(w)
        # alpha(W) = exp(+i <s0>) W restores plain commutation
        alpha = phase.conjugate() * wop
        ops = [(wop @ psi - phase * (psi @ wop), 2), (alpha @ psi - psi @ wop, 2)]
        cases.append((Claim({"generator": k}), ops))
    return _evaluate("covariance_phase", _swept(ctx, cases), tol)


def check_neutral_commutant(
    ctx: ModelContext,
    pairs,
    tol: float = 1e-12,
) -> CheckResult:
    """Zero-mean generators commute with every matter field under the
    constant kernel."""
    pairs = list(pairs)
    for _, k in pairs:
        mean = ctx.gens.pairs[k].integral_s0()
        if abs(mean) > 1e-12:
            return _result(
                "neutral_commutant",
                False,
                {"mean": abs(mean)},
                {"mean": 1e-12},
                {"generator": k, "problem": "nonzero_mean"},
            )
    cases = [(Claim({"generator": k}), [(commutator(_generator_op(ctx, k), electron(w)), 2)]) for w, k in pairs]
    return _evaluate("neutral_commutant", _swept(ctx, cases), tol)


def check_mutual_freeness(ctx: ModelContext, free_pairs, nonfree_pairs) -> CheckResult:
    """Operational freeness decisions match the support geometry."""
    free_pairs = list(free_pairs)
    nonfree_pairs = list(nonfree_pairs)
    claims = []
    for idx, (f, g) in enumerate(free_pairs):
        # a pair tests free exactly when it has no failure above FREE_TOL
        r = max((x[3] for x in mutually_free(f, g).failures), default=0.0)
        claims.append(Claim({"pair": idx, "expected": "free"}, r))
    for idx, (f, g) in enumerate(nonfree_pairs):
        if mutually_free(f, g).free:
            fault = {"pair": idx, "expected": "nonfree"}
            claims.append(Claim(fault, fault=fault))
    details = {"free": len(free_pairs), "nonfree": len(nonfree_pairs)}
    return _evaluate("mutual_freeness", claims, FREE_TOL, ("false_free_residual", None), details)
