"""Free Hilbert bimodule over the Weyl algebra with a twisted left action.

The right module is h . A for a finite one-particle space h spanned by
(grid point, spinor component, charge sector) basis vectors; the inner
product takes values in the algebra, <e_b A, e_c B> = delta_bc A* B.
A commuting family of unitaries, one per Weyl generator, twists the
left action:

    W(n) . (e_b A) = (u(n) e_b) . (W(n) A),   u(n) = prod_k U_k^{n_k}.

Charge conjugation swaps the two sectors antilinearly and commutes with
every admissible twist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weyl import GeneratorSet, GridSpec, WeylElement, PRUNE_TOL

__all__ = [
    "OneParticleBasis",
    "OneParticleVector",
    "Conjugation",
    "Twist",
    "trivial_twist",
    "FreeBimodule",
    "ModuleVector",
    "left_action",
    "module_inner",
    "conjugate_vector",
    "mutually_free",
    "FreenessReport",
]

SECTOR_PLUS = +1
SECTOR_MINUS = -1

# operator norm budget for twist admissibility checks
TWIST_TOL = 1e-12
# residual threshold deciding mutual freeness
FREE_TOL = 1e-10


class OneParticleBasis:
    """Index bookkeeping for h; + sector block first, then the - block."""

    __slots__ = ("grid", "dim", "_block")

    def __init__(self, grid: GridSpec) -> None:
        self.grid = grid
        self._block = grid.n_points * grid.components
        self.dim = 2 * self._block

    def index(self, point: int, comp: int, sector: int) -> int:
        if not 0 <= point < self.grid.n_points:
            raise IndexError("point out of range")
        if not 0 <= comp < self.grid.components:
            raise IndexError("component out of range")
        if sector not in (SECTOR_PLUS, SECTOR_MINUS):
            raise ValueError("sector must be +1 or -1")
        base = 0 if sector == SECTOR_PLUS else self._block
        return base + point * self.grid.components + comp

    def sector_of(self, i: int) -> int:
        return SECTOR_PLUS if i < self._block else SECTOR_MINUS

    def point_of(self, i: int) -> int:
        return (i % self._block) // self.grid.components

    def comp_of(self, i: int) -> int:
        return i % self.grid.components

    def conj_index(self, i: int) -> int:
        """Partner index under charge conjugation (same point/component)."""
        return i + self._block if i < self._block else i - self._block

    def __eq__(self, other) -> bool:
        return isinstance(other, OneParticleBasis) and self.grid == other.grid

    def __hash__(self) -> int:
        return hash(("OneParticleBasis", self.grid))


class OneParticleVector:
    """Sparse complex vector in h."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: OneParticleBasis, coeffs: dict | None = None) -> None:
        self.basis = basis
        self.coeffs: dict[int, complex] = {}
        if coeffs:
            for b, c in coeffs.items():
                if not 0 <= b < basis.dim:
                    raise IndexError("basis index out of range")
                c = complex(c)
                if abs(c) > PRUNE_TOL:
                    self.coeffs[int(b)] = c

    @classmethod
    def basis_vector(cls, basis: OneParticleBasis, i: int) -> "OneParticleVector":
        return cls(basis, {i: 1.0})

    def __add__(self, other: "OneParticleVector") -> "OneParticleVector":
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out[b] = out.get(b, 0.0) + c
        return OneParticleVector(self.basis, out)

    def __sub__(self, other: "OneParticleVector") -> "OneParticleVector":
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out[b] = out.get(b, 0.0) - c
        return OneParticleVector(self.basis, out)

    def __rmul__(self, scalar: complex) -> "OneParticleVector":
        return OneParticleVector(
            self.basis, {b: scalar * c for b, c in self.coeffs.items()}
        )

    def inner(self, other: "OneParticleVector") -> complex:
        """Scalar product, antilinear in self."""
        total = 0.0 + 0.0j
        small, big = self.coeffs, other.coeffs
        for b, c in small.items():
            d = big.get(b)
            if d is not None:
                total += c.conjugate() * d
        return total

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self.coeffs.values()) ** 0.5

    def __repr__(self) -> str:
        inside = ", ".join(f"{b}: {c:.6g}" for b, c in sorted(self.coeffs.items()))
        return f"OneParticleVector({{{inside}}})"


class Conjugation:
    """Antilinear involution swapping the charge sectors of h."""

    __slots__ = ("basis",)

    def __init__(self, basis: OneParticleBasis) -> None:
        self.basis = basis

    def matrix(self) -> np.ndarray:
        """Permutation part K, so the full map is v -> K conj(v)."""
        d = self.basis.dim
        out = np.zeros((d, d))
        for i in range(d):
            out[self.basis.conj_index(i), i] = 1.0
        return out

    def apply(self, vec: OneParticleVector) -> OneParticleVector:
        return OneParticleVector(
            self.basis,
            {self.basis.conj_index(b): c.conjugate() for b, c in vec.coeffs.items()},
        )


def _spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise complex product with every real product and sum rounded
    on its own, as a BLAS product of two diagonal matrices rounds them;
    numpy's complex multiply may fuse them and round differently."""
    out = np.empty_like(b)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class Twist:
    """Commuting unitaries U_k, one per Weyl generator, defining u(n).

    Construction validates unitarity, pairwise commutativity and
    compatibility with charge conjugation ([kappa, U_k] = 0, i.e.
    U_k K = K conj(U_k) for the sector swap K); each within 1e-12 in
    operator norm, and every entry must be finite.

    When every U_k has all off-diagonal entries exactly zero, as the
    model twists do, the twist keeps one phase vector per generator and
    validates and applies it entrywise: the operator norms above are
    then maxima over entries, diagonal unitaries commute exactly, and
    u(n) e_b is a single phase.  Any other family is kept dense.
    """

    __slots__ = ("basis", "gens", "_diagonal", "_factors", "_cache", "__weakref__")

    def __init__(self, basis: OneParticleBasis, gens: GeneratorSet, unitaries) -> None:
        unitaries = tuple(np.asarray(u, dtype=complex) for u in unitaries)
        if len(unitaries) != len(gens):
            raise ValueError("need exactly one unitary per Weyl generator")
        d = basis.dim
        for idx, u in enumerate(unitaries):
            if u.shape != (d, d):
                raise ValueError("twist unitary has wrong shape")
            if not np.isfinite(u).all():
                raise ValueError(f"twist generator {idx} is not unitary")
        self.basis = basis
        self.gens = gens
        self._cache: dict[tuple[int, ...], np.ndarray] = {}
        self._diagonal = all(
            np.count_nonzero(u) == np.count_nonzero(np.diagonal(u)) for u in unitaries
        )
        if self._diagonal:
            # one phase vector per generator
            self._factors = tuple(np.diagonal(u).copy() for u in unitaries)
            self._check_phases()
        else:
            self._factors = unitaries
            self._check_dense()

    def _check_phases(self) -> None:
        half = self.basis.dim // 2
        for idx, p in enumerate(self._factors):
            if np.max(np.abs(p.real * p.real + p.imag * p.imag - 1.0)) > TWIST_TOL:
                raise ValueError(f"twist generator {idx} is not unitary")
            # U K - K conj(U) holds u_kappa(i) - conj(u_i) at (kappa(i), i)
            if np.max(np.abs(np.roll(p, half) - p.conj())) > TWIST_TOL:
                raise ValueError(f"twist generator {idx} breaks charge conjugation")

    def _check_dense(self) -> None:
        unitaries = self._factors
        eye = np.eye(self.basis.dim)
        kmat = Conjugation(self.basis).matrix()
        for idx, u in enumerate(unitaries):
            if _spectral_norm(u @ u.conj().T - eye) > TWIST_TOL:
                raise ValueError(f"twist generator {idx} is not unitary")
            if _spectral_norm(u @ kmat - kmat @ u.conj()) > TWIST_TOL:
                raise ValueError(f"twist generator {idx} breaks charge conjugation")
        for a in range(len(unitaries)):
            for b in range(a + 1, len(unitaries)):
                comm = unitaries[a] @ unitaries[b] - unitaries[b] @ unitaries[a]
                if _spectral_norm(comm) > TWIST_TOL:
                    raise ValueError(f"twist generators {a} and {b} do not commute")

    @property
    def unitaries(self) -> tuple[np.ndarray, ...]:
        """The generators U_k as dense matrices."""
        if self._diagonal:
            return tuple(np.diag(p) for p in self._factors)
        return self._factors

    def _power(self, n: tuple[int, ...]) -> np.ndarray:
        """Cached u(n): its phase vector when diagonal, else its matrix."""
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        n = tuple(int(v) for v in n)
        if len(n) != len(self.gens):
            raise ValueError("exponent length mismatch")
        d = self.basis.dim
        if self._diagonal:
            out, mul = np.ones(d, dtype=complex), _times
        else:
            out, mul = np.eye(d, dtype=complex), np.matmul
        for k, power in enumerate(n):
            if power == 0:
                continue
            # inverse = adjoint; .T leaves a phase vector as it is
            base = self._factors[k] if power > 0 else self._factors[k].conj().T
            for _ in range(abs(power)):
                out = mul(base, out)
        self._cache[n] = out
        return out

    def matrix(self, n: tuple[int, ...]) -> np.ndarray:
        """u(n) = prod_k U_k^{n_k}; u(0) is the exact identity."""
        u = self._power(tuple(int(v) for v in n))
        return np.diag(u) if self._diagonal else u

    def column(self, n: tuple[int, ...], b: int) -> dict[int, complex]:
        """Sparse column u(n) e_b."""
        if all(v == 0 for v in n):
            return {b: 1.0 + 0.0j}
        if self._diagonal:
            return {b: complex(self._power(n)[b])}
        col = self.matrix(n)[:, b]
        return {i: complex(col[i]) for i in np.nonzero(np.abs(col) > PRUNE_TOL)[0]}

    def apply(self, n: tuple[int, ...], vec: OneParticleVector) -> OneParticleVector:
        out: dict[int, complex] = {}
        for b, c in vec.coeffs.items():
            for i, uc in self.column(n, b).items():
                out[i] = out.get(i, 0.0) + uc * c
        return OneParticleVector(self.basis, out)


def trivial_twist(basis: OneParticleBasis, gens: GeneratorSet) -> Twist:
    eye = np.eye(basis.dim)
    return Twist(basis, gens, [eye] * len(gens))


class FreeBimodule:
    """Shared context tying together basis, generators, twist and kappa."""

    __slots__ = ("basis", "gens", "twist", "conj")

    def __init__(self, basis: OneParticleBasis, gens: GeneratorSet, twist: Twist) -> None:
        if twist.basis != basis or twist.gens is not gens:
            raise ValueError("twist does not match basis/generators")
        self.basis = basis
        self.gens = gens
        self.twist = twist
        self.conj = Conjugation(basis)

    def vector(self, entries: dict) -> "ModuleVector":
        return ModuleVector(self, entries)

    def zero_vector(self) -> "ModuleVector":
        return ModuleVector(self, {})

    def basis_element(self, i: int, coeff: WeylElement | None = None) -> "ModuleVector":
        """e_i . A with A defaulting to the unit."""
        if coeff is None:
            coeff = WeylElement.unit(self.gens)
        return ModuleVector(self, {i: coeff})

    def embed(self, vec: OneParticleVector, coeff: WeylElement | None = None) -> "ModuleVector":
        """h -> h . A, tensoring a scalar vector with a right coefficient."""
        if coeff is None:
            coeff = WeylElement.unit(self.gens)
        return ModuleVector(self, {b: c * coeff for b, c in vec.coeffs.items()})


class ModuleVector:
    """Element sum_b e_b . A_b of the free bimodule, A_b Weyl elements."""

    __slots__ = ("space", "entries")

    def __init__(self, space: FreeBimodule, entries: dict | None = None) -> None:
        self.space = space
        self.entries: dict[int, WeylElement] = {}
        if entries:
            for b, a in entries.items():
                if not 0 <= b < space.basis.dim:
                    raise IndexError("basis index out of range")
                if a.gens is not space.gens:
                    raise ValueError("coefficient over wrong generator set")
                if not a.is_zero():
                    self.entries[int(b)] = a

    def _require_same(self, other: "ModuleVector") -> None:
        if self.space is not other.space:
            raise ValueError("vectors live in different bimodules")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_same(other)
        out = dict(self.entries)
        for b, a in other.entries.items():
            out[b] = out[b] + a if b in out else a
        return ModuleVector(self.space, out)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "ModuleVector":
        return ModuleVector(
            self.space, {b: scalar * a for b, a in self.entries.items()}
        )

    def right_mul(self, a: WeylElement) -> "ModuleVector":
        """Right module action f . a."""
        return ModuleVector(self.space, {b: x * a for b, x in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def by_group(self) -> dict[tuple[int, ...], OneParticleVector]:
        """Canonical decomposition f = sum_n f_n . W(n), f_n in h."""
        split: dict[tuple[int, ...], dict[int, complex]] = {}
        for b, a in self.entries.items():
            for n, c in a.terms.items():
                split.setdefault(n, {})[b] = split.get(n, {}).get(b, 0.0) + c
        return {
            n: OneParticleVector(self.space.basis, coeffs)
            for n, coeffs in split.items()
            if any(abs(c) > PRUNE_TOL for c in coeffs.values())
        }

    def close_to(self, other: "ModuleVector", tol: float = 1e-12) -> bool:
        self._require_same(other)
        zero = WeylElement.zero(self.space.gens)
        for b in self.entries.keys() | other.entries.keys():
            if not self.entries.get(b, zero).close_to(other.entries.get(b, zero), tol):
                return False
        return True

    def __repr__(self) -> str:
        inside = ", ".join(f"{b}: {a!r}" for b, a in sorted(self.entries.items()))
        return f"ModuleVector({{{inside}}})"


def left_action(a: WeylElement, f: ModuleVector) -> ModuleVector:
    """Twisted left action of the Weyl algebra on the bimodule."""
    space = f.space
    if a.gens is not space.gens:
        raise ValueError("operator over wrong generator set")
    out: dict[int, WeylElement] = {}
    for n, c in a.terms.items():
        mono = WeylElement.monomial(space.gens, n, c)
        for b, coeff in f.entries.items():
            shifted = mono * coeff
            for i, uc in space.twist.column(n, b).items():
                piece = uc * shifted
                out[i] = out[i] + piece if i in out else piece
    return ModuleVector(space, out)


def module_inner(f: ModuleVector, g: ModuleVector) -> WeylElement:
    """Algebra-valued product <f, g> = sum_b A_b* B_b, antilinear in f."""
    f._require_same(g)
    total = WeylElement.zero(f.space.gens)
    for b, a in f.entries.items():
        other = g.entries.get(b)
        if other is not None:
            total = total + a.adjoint() * other
    return total


def conjugate_vector(f: ModuleVector) -> ModuleVector:
    """Charge conjugation on the bimodule: kappa(e_b A) = e_b' A*."""
    basis = f.space.basis
    return ModuleVector(
        f.space,
        {basis.conj_index(b): a.adjoint() for b, a in f.entries.items()},
    )


@dataclass(frozen=True)
class FreenessReport:
    """Outcome of the operational mutual-freeness test with witnesses."""

    free: bool
    failures: tuple = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.free


def mutually_free(f: ModuleVector, g: ModuleVector, tol: float = FREE_TOL) -> FreenessReport:
    """Check the sufficient splitting conditions pair by pair.

    For every pair of group elements n (from f) and m (from g) demand
    eta(n, m) = 0, u(n) g_m = g_m and u(m) f_n = f_n, all within tol.
    The decision is sound for declaring freeness; failures carry the
    offending pair and residual.
    """
    f._require_same(g)
    space = f.space
    fd = f.by_group()
    gd = g.by_group()
    failures = []
    for n, fvec in fd.items():
        for m, gvec in gd.items():
            eta = space.gens.eta(n, m)
            if abs(eta) > tol:
                failures.append((n, m, "weyl_commutator", abs(eta)))
            r = (space.twist.apply(n, gvec) - gvec).norm()
            if r > tol:
                failures.append((n, m, "twist_moves_partner", r))
            r = (space.twist.apply(m, fvec) - fvec).norm()
            if r > tol:
                failures.append((n, m, "twist_moves_self", r))
    return FreenessReport(free=not failures, failures=tuple(failures))
