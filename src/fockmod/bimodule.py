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

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .weyl import GeneratorSet, GridSpec, WeylElement, PRUNE_TOL

__all__ = [
    "OneParticleBasis",
    "OneParticleVector",
    "Twist",
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
# stacked minors per determinant call in Twist.pair, bounding its memory
PAIR_BLOCK = 4096


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

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self.coeffs.values()) ** 0.5

    def __repr__(self) -> str:
        inside = ", ".join(f"{b}: {c:.6g}" for b, c in sorted(self.coeffs.items()))
        return f"OneParticleVector({{{inside}}})"


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


def wedge_insert(
    col: dict[int, complex], image: dict[tuple[int, ...], complex]
) -> dict[tuple[int, ...], complex]:
    """Canonical coefficients of v ^ w for the one-particle vector
    v = col and a canonical wedge w = image, before any pruning: every
    entry c e_b of v not already standing in a term a e_u of w slides
    into its sorted place p in u past p smaller slots, so c a lands on
    u[:p] + (b,) + u[p:] signed (-1)^p; the terms that land on one tuple
    are summed in the order met.
    """
    out: dict[tuple[int, ...], complex] = {}
    for u, a in image.items():
        for b, c in col.items():
            p = bisect_left(u, b)
            if p < len(u) and u[p] == b:
                continue  # b already stands in u
            s = u[:p] + (b,) + u[p:]
            x = (-1 if p & 1 else 1) * (c * a)
            got = out.get(s)
            out[s] = x if got is None else got + x
    return out


class Twist:
    """Commuting unitaries U_k, one per Weyl generator, defining u(n).

    Construction validates unitarity, pairwise commutativity and
    compatibility with charge conjugation ([kappa, U_k] = 0, i.e.
    U_k K = K conj(U_k) for the sector swap K); each within 1e-12 in
    operator norm, and every entry must be finite.

    Each U_k is a d x d matrix or, for a diagonal one, the length-d
    vector of its diagonal, as the model twists pass it.  When every U_k
    is diagonal (a matrix with all off-diagonal entries exactly zero, or
    a vector), the twist keeps one phase vector per generator and
    validates and applies it entrywise: the operator norms above are
    then maxima over entries, diagonal unitaries commute exactly, and
    u(n) e_b is a single phase.  Any other family is kept dense.

    ``pair`` holds the only minors of u(k) the Fock layer reads.
    """

    __slots__ = (
        "basis", "gens", "_zero", "_diagonal", "_factors", "_cache", "__weakref__"
    )

    def __init__(self, basis: OneParticleBasis, gens: GeneratorSet, unitaries) -> None:
        unitaries = tuple(np.asarray(u, dtype=complex) for u in unitaries)
        if len(unitaries) != len(gens):
            raise ValueError("need exactly one unitary per Weyl generator")
        d = basis.dim
        for idx, u in enumerate(unitaries):
            if u.shape not in ((d,), (d, d)):
                raise ValueError("twist unitary has wrong shape")
            if not np.isfinite(u).all():
                raise ValueError(f"twist generator {idx} is not unitary")
        self.basis = basis
        self.gens = gens
        # the label of u(0), compared as a whole tuple
        self._zero = (0,) * len(gens)
        self._cache: dict[tuple[int, ...], np.ndarray] = {}
        self._diagonal = all(
            u.ndim == 1 or np.count_nonzero(u) == np.count_nonzero(np.diagonal(u))
            for u in unitaries
        )
        if self._diagonal:
            # one phase vector per generator
            self._factors = tuple((u if u.ndim == 1 else np.diagonal(u)).copy() for u in unitaries)
            self._check_phases()
        else:
            self._factors = tuple(np.diag(u) if u.ndim == 1 else u for u in unitaries)
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
        d = self.basis.dim
        eye = np.eye(d)
        # the sector swap as an index map, conj_index(i) for every i:
        # U K = U[:, kappa] and K conj(U) = conj(U)[kappa, :]
        kappa = np.roll(np.arange(d), d // 2)
        for idx, u in enumerate(unitaries):
            if _spectral_norm(u @ u.conj().T - eye) > TWIST_TOL:
                raise ValueError(f"twist generator {idx} is not unitary")
            if _spectral_norm(u[:, kappa] - u.conj()[kappa, :]) > TWIST_TOL:
                raise ValueError(f"twist generator {idx} breaks charge conjugation")
        for a in range(len(unitaries)):
            for b in range(a + 1, len(unitaries)):
                comm = unitaries[a] @ unitaries[b] - unitaries[b] @ unitaries[a]
                if _spectral_norm(comm) > TWIST_TOL:
                    raise ValueError(f"twist generators {a} and {b} do not commute")

    @property
    def diagonal(self) -> bool:
        """True when every generator is diagonal, so u(n) e_b = phase_n(b) e_b."""
        return self._diagonal

    @property
    def unitaries(self) -> tuple[np.ndarray, ...]:
        """The generators U_k as dense matrices."""
        if self._diagonal:
            return tuple(np.diag(p) for p in self._factors)
        return self._factors

    def _power(self, n: tuple[int, ...]) -> np.ndarray:
        """Cached u(n): its phase vector when diagonal, else its matrix;
        any sequence of ints labels it."""
        if type(n) is not tuple:
            n = tuple(int(v) for v in n)
        cached = self._cache.get(n)
        if cached is not None:
            return cached
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
        u = self._power(n)
        return np.diag(u) if self._diagonal else u

    def column(self, n: tuple[int, ...], b: int) -> dict[int, complex]:
        """Sparse column u(n) e_b."""
        if n == self._zero:
            return {b: 1.0 + 0.0j}
        if self._diagonal:
            return {b: complex(self._power(n)[b])}
        col = self.matrix(n)[:, b]
        return {i: complex(col[i]) for i in np.nonzero(np.abs(col) > PRUNE_TOL)[0]}

    def pair(self, k: tuple[int, ...], x: dict, y: dict) -> complex:
        """sum conj(x_s) y_t det u(k)[s, t] over the tuples x and y carry,
        both {canonical tuple: complex} on one level, at most PAIR_BLOCK
        minors per determinant call."""
        if self._diagonal:
            p = self._power(k)
            total = 0.0 + 0.0j
            for t in x.keys() & y.keys():
                z = x[t].conjugate() * y[t]
                for b in t:
                    z *= p.item(b)
                total += z
            return total
        u = self._power(k)
        rows, cols = np.array(list(x), dtype=np.intp), np.array(list(y), dtype=np.intp)
        xs, ys = np.conj(list(x.values())), np.array(list(y.values()))
        step = max(1, PAIR_BLOCK // len(cols))
        total = 0.0 + 0.0j
        for i in range(0, len(rows), step):
            minors = np.linalg.det(u[rows[i : i + step, None, :, None], cols[None, :, None, :]])
            total += complex(xs[i : i + step] @ minors @ ys)
        return total

    def apply(self, n: tuple[int, ...], vec: OneParticleVector) -> OneParticleVector:
        if self._diagonal:
            p = self._power(n)
            return OneParticleVector(self.basis, {b: p.item(b) * c for b, c in vec.coeffs.items()})
        out: dict[int, complex] = {}
        for b, c in vec.coeffs.items():
            for i, uc in self.column(n, b).items():
                out[i] = out.get(i, 0.0) + uc * c
        return OneParticleVector(self.basis, out)


class FreeBimodule:
    """Shared context tying together basis, generators and twist."""

    __slots__ = ("basis", "gens", "twist")

    def __init__(self, basis: OneParticleBasis, gens: GeneratorSet, twist: Twist) -> None:
        if twist.basis != basis or twist.gens is not gens:
            raise ValueError("twist does not match basis/generators")
        self.basis = basis
        self.gens = gens
        self.twist = twist

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
    """Element sum_b e_b . A_b of the free bimodule, A_b Weyl elements.

    A vector is never changed after construction, so its group
    decomposition and its rotations (``pulled``) are computed once.
    """

    __slots__ = ("space", "entries", "_groups", "_pulled")

    def __init__(self, space: FreeBimodule, entries: dict | None = None) -> None:
        self.space = space
        self._groups = None
        self._pulled: dict[tuple[int, ...], dict] = {}
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

    def is_zero(self) -> bool:
        return not self.entries

    def by_group(self) -> dict[tuple[int, ...], OneParticleVector]:
        """Canonical decomposition f = sum_n f_n . W(n), f_n in h."""
        if self._groups is not None:
            return self._groups
        split: dict[tuple[int, ...], dict[int, complex]] = {}
        for b, a in self.entries.items():
            for n, c in a.terms.items():
                split.setdefault(n, {})[b] = split.get(n, {}).get(b, 0.0) + c
        self._groups = {
            n: OneParticleVector(self.space.basis, coeffs)
            for n, coeffs in split.items()
            if any(abs(c) > PRUNE_TOL for c in coeffs.values())
        }
        return self._groups

    def pulled(self, k: tuple[int, ...]) -> dict[tuple[int, ...], dict[int, complex]]:
        """{n: coefficients of u(-k) f_n} over the groups f_n of ``by_group``,
        what a Fock bucket in the frame k reads."""
        got = self._pulled.get(k)
        if got is None:
            neg, apply = tuple(-v for v in k), self.space.twist.apply
            got = self._pulled[k] = {
                n: (apply(neg, vec) if any(k) else vec).coeffs for n, vec in self.by_group().items()
            }
        return got

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


def mutually_free(f: ModuleVector, g: ModuleVector) -> FreenessReport:
    """Check the sufficient splitting conditions pair by pair.

    For every pair of group elements n (from f) and m (from g) demand
    eta(n, m) = 0, u(n) g_m = g_m and u(m) f_n = f_n, all within FREE_TOL.
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
            if abs(eta) > FREE_TOL:
                failures.append((n, m, "weyl_commutator", abs(eta)))
            r = (space.twist.apply(n, gvec) - gvec).norm()
            if r > FREE_TOL:
                failures.append((n, m, "twist_moves_partner", r))
            r = (space.twist.apply(m, fvec) - fvec).norm()
            if r > FREE_TOL:
                failures.append((n, m, "twist_moves_self", r))
    return FreenessReport(free=not failures, failures=tuple(failures))
