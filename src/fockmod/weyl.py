"""Exact Weyl algebra over a finitely generated symplectic group.

Elements are finite complex combinations of unitaries W(n) labelled by
integer exponent vectors n over a fixed generator list of grid test
function pairs.  The product twists by the symplectic cocycle,

    W(n) W(n') = exp(i eta(n, n') / 2) W(n + n'),

and all phases live in the stored coefficients: a bare key n always
means the canonical representative W(n), so W(n)* = W(-n) holds with no
phase bookkeeping.  States evaluate coefficient maps exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "TestFunctionPair",
    "symplectic_form",
    "GeneratorSet",
    "WeylElement",
    "State",
    "gram_matrix",
    "PRUNE_TOL",
    "COEFF_TOL",
    "map_product",
    "map_scaled",
    "map_merge",
    "map_adjoint",
    "maps_close",
]

# coefficients at or below this magnitude are dropped from stored maps
PRUNE_TOL = 1e-14
# coefficient agreement threshold used by equality tests
COEFF_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Finite cubic grid carrying the fixed-time test functions.

    dimension: spatial dimension d >= 1
    points_per_axis: grid points along each axis
    spacing: lattice constant, also the quadrature weight^(1/d)
    components: spinor components per point of the one-particle space
    """

    dimension: int = 1
    points_per_axis: int = 16
    spacing: float = 1.0
    components: int = 1

    def __post_init__(self) -> None:
        if self.dimension < 1 or self.points_per_axis < 1:
            raise ValueError("grid must have positive dimension and size")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("grid spacing must be positive and finite")
        if self.components < 1:
            raise ValueError("need at least one spinor component")

    @property
    def n_points(self) -> int:
        return self.points_per_axis ** self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dimension

    def coords(self, index: int) -> tuple[int, ...]:
        """Integer coordinates of a flattened point index (row-major)."""
        if not 0 <= index < self.n_points:
            raise IndexError(f"point index {index} out of range")
        out = []
        for _ in range(self.dimension):
            out.append(index % self.points_per_axis)
            index //= self.points_per_axis
        return tuple(reversed(out))

    def index(self, coords: tuple[int, ...]) -> int:
        if len(coords) != self.dimension:
            raise ValueError("coordinate rank does not match grid dimension")
        idx = 0
        for c in coords:
            if not 0 <= c < self.points_per_axis:
                raise IndexError(f"coordinate {c} outside grid")
            idx = idx * self.points_per_axis + c
        return idx


class TestFunctionPair:
    """Real pair (s0, s1) of grid functions seeding one Weyl generator."""

    # not a test case, despite the name test runners key on
    __test__ = False

    __slots__ = ("grid", "s0", "s1")

    def __init__(self, grid: GridSpec, s0, s1) -> None:
        s0 = np.asarray(s0, dtype=float).reshape(-1)
        s1 = np.asarray(s1, dtype=float).reshape(-1)
        if s0.shape != (grid.n_points,) or s1.shape != (grid.n_points,):
            raise ValueError("component length does not match grid size")
        if not (np.isfinite(s0).all() and np.isfinite(s1).all()):
            raise ValueError("test function values must be finite")
        self.grid = grid
        self.s0 = s0
        self.s1 = s1

    def integral_s0(self) -> float:
        return float(np.sum(self.s0)) * self.grid.cell_volume

    def __add__(self, other: "TestFunctionPair") -> "TestFunctionPair":
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        return TestFunctionPair(self.grid, self.s0 + other.s0, self.s1 + other.s1)


def symplectic_form(s: TestFunctionPair, t: TestFunctionPair) -> float:
    """Antisymmetric pairing eta(s, t) by rectangle-rule quadrature."""
    if s.grid != t.grid:
        raise ValueError("grid mismatch")
    return float(np.sum(s.s1 * t.s0 - s.s0 * t.s1)) * s.grid.cell_volume


class GeneratorSet:
    """Ordered, linearly independent list of Weyl generators.

    Precomputes the antisymmetric Gram matrix E[k][l] = eta(s_k, s_l);
    the group product only ever consults E, so exponent arithmetic stays
    exact integer arithmetic.
    """

    __slots__ = ("grid", "pairs", "gram", "_products", "_quasifree")

    def __init__(self, grid: GridSpec, pairs) -> None:
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("need at least one generator")
        for p in pairs:
            if p.grid != grid:
                raise ValueError("generator grid mismatch")
        stacked = np.array([np.concatenate([p.s0, p.s1]) for p in pairs])
        if np.linalg.matrix_rank(stacked) < len(pairs):
            raise ValueError("generators are linearly dependent")
        m = len(pairs)
        gram = np.zeros((m, m))
        for k in range(m):
            for l in range(k + 1, m):
                v = symplectic_form(pairs[k], pairs[l])
                gram[k, l] = v
                gram[l, k] = -v
        self.grid = grid
        self.pairs = pairs
        self.gram = gram
        self._products: dict[tuple, tuple[tuple[int, ...], complex]] = {}
        # quasifree state values by label, filled by State.value
        self._quasifree: dict[tuple[int, ...], complex] = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.pairs)

    def unit(self, k: int) -> tuple[int, ...]:
        n = [0] * len(self.pairs)
        n[k] = 1
        return tuple(n)

    def eta(self, n: tuple[int, ...], np_: tuple[int, ...]) -> float:
        """Bilinear extension of the symplectic form to exponent vectors."""
        total = 0.0
        for k, nk in enumerate(n):
            if nk == 0:
                continue
            row = self.gram[k]
            for l, nl in enumerate(np_):
                if nl:
                    total += nk * nl * row[l]
        return total

    def product(self, n: tuple[int, ...], m: tuple[int, ...]) -> tuple[tuple[int, ...], complex]:
        """(n + m, exp(i eta(n, m) / 2)), so W(n) W(m) = phase W(n + m); cached."""
        got = self._products.get((n, m))
        if got is None:
            got = (tuple(x + y for x, y in zip(n, m)), cmath.exp(0.5j * self.eta(n, m)))
            self._products[(n, m)] = got
        return got

    def combine(self, n: tuple[int, ...]) -> TestFunctionPair:
        """The test function pair sum_k n_k s_k labelled by an exponent vector."""
        if len(n) != len(self.pairs):
            raise ValueError("exponent length mismatch")
        s0 = np.zeros(self.grid.n_points)
        s1 = np.zeros(self.grid.n_points)
        for k, nk in enumerate(n):
            if nk:
                s0 += nk * self.pairs[k].s0
                s1 += nk * self.pairs[k].s1
        return TestFunctionPair(self.grid, s0, s1)


def _check_exponent(gens: GeneratorSet, n) -> tuple[int, ...]:
    n = tuple(int(v) for v in n)
    if len(n) != len(gens):
        raise ValueError("exponent length does not match generator count")
    return n


# ---------------------------------------------------------------------------
# coefficient maps
#
# A coefficient map {n: c} is the store of a WeylElement: exponent tuples
# to complex coefficients, each |c| > PRUNE_TOL.  These helpers do
# WeylElement's arithmetic, and each prunes where the operation it
# implements ends.  The Fock layer stores its levels label-major, as
# complex scalars per (label, frame, basis tuple), and multiplies group
# labels with GeneratorSet.product directly.


def map_product(gens: GeneratorSet, x: dict, y: dict) -> dict:
    """The product x y, summed term by term before pruning."""
    out: dict[tuple[int, ...], complex] = {}
    for n, a in x.items():
        for m, b in y.items():
            key, phase = gens.product(n, m)
            out[key] = out.get(key, 0.0) + a * b * phase
    return {n: c for n, c in out.items() if abs(c) > PRUNE_TOL}


def map_scaled(s: complex, x: dict) -> dict:
    out: dict[tuple[int, ...], complex] = {}
    for n, c in x.items():
        c = s * c
        if abs(c) > PRUNE_TOL:
            out[n] = c
    return out


def map_merge(dst: dict, src: dict) -> None:
    """dst += src in place; a key that cancels leaves dst."""
    for n, c in src.items():
        c = dst.get(n, 0.0) + c
        if abs(c) > PRUNE_TOL:
            dst[n] = c
        elif n in dst:
            del dst[n]


def map_adjoint(x: dict) -> dict:
    # W(n)* = W(-n) exactly: the canonical labelling carries no phase
    return {tuple(-v for v in n): c.conjugate() for n, c in x.items()}


def maps_close(x: dict, y: dict, tol: float) -> bool:
    return not any(abs(x.get(n, 0.0) - y.get(n, 0.0)) > tol for n in x.keys() | y.keys())


class WeylElement:
    """Finite combination sum_n c_n W(n) with exact group bookkeeping."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: dict | None = None) -> None:
        self.gens = gens
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for n, c in terms.items():
                c = complex(c)
                if abs(c) > PRUNE_TOL:
                    self.terms[_check_exponent(gens, n)] = c

    # -- constructors ------------------------------------------------

    @classmethod
    def unit(cls, gens: GeneratorSet) -> "WeylElement":
        return cls(gens, {gens.zero(): 1.0})

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "WeylElement":
        return cls(gens)

    @classmethod
    def monomial(cls, gens: GeneratorSet, n, coeff: complex = 1.0) -> "WeylElement":
        return cls(gens, {tuple(int(v) for v in n): coeff})

    # -- algebra -----------------------------------------------------

    def _require_same(self, other: "WeylElement") -> None:
        if self.gens is not other.gens:
            raise ValueError("elements live over different generator sets")

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._require_same(other)
        out = dict(self.terms)
        map_merge(out, other.terms)
        return WeylElement(self.gens, out)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-1.0) * other

    def __neg__(self) -> "WeylElement":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "WeylElement":
        return WeylElement(self.gens, map_scaled(scalar, self.terms))

    def __mul__(self, other):
        """Algebra product; scalars multiply coefficientwise."""
        if not isinstance(other, WeylElement):
            return WeylElement(self.gens, map_scaled(other, self.terms))
        self._require_same(other)
        return WeylElement(self.gens, map_product(self.gens, self.terms, other.terms))

    def adjoint(self) -> "WeylElement":
        return WeylElement(self.gens, map_adjoint(self.terms))

    # -- inspection --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def close_to(self, other: "WeylElement", tol: float = COEFF_TOL) -> bool:
        self._require_same(other)
        return maps_close(self.terms, other.terms, tol)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.gens is other.gens and self.close_to(other)

    __hash__ = None  # tolerant equality is incompatible with hashing

    def __repr__(self) -> str:
        if not self.terms:
            return "WeylElement(0)"
        bits = []
        for n in sorted(self.terms):
            c = self.terms[n]
            bits.append(f"({c:.6g})*W{n}")
        return " + ".join(bits)


class State:
    """Positive normalized functional on the Weyl algebra.

    tracial:   omega(W(n)) = 1 if n == 0 else 0
    quasifree: omega(W(n)) = exp(-q(s_n)/4) with the diagonal form
               q(s) = sum_x (s0^2 + s1^2) * spacing^d, which dominates
               the symplectic form and so stays positive definite.
    """

    KINDS = ("tracial", "quasifree")

    def __init__(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown state kind {kind!r}")
        self.kind = kind

    def value(self, gens: GeneratorSet, n: tuple[int, ...]) -> complex:
        if all(v == 0 for v in n):
            return 1.0 + 0.0j
        if self.kind == "tracial":
            return 0.0 + 0.0j
        got = gens._quasifree.get(n)
        if got is None:
            s = gens.combine(n)
            q = float(np.sum(s.s0 ** 2 + s.s1 ** 2)) * gens.grid.cell_volume
            got = gens._quasifree[n] = complex(math.exp(-q / 4.0))
        return got

    def __call__(self, element: WeylElement) -> complex:
        total = 0.0 + 0.0j
        for n, c in element.terms.items():
            total += c * self.value(element.gens, n)
        return total

    def __repr__(self) -> str:
        return f"State({self.kind!r})"


def gram_matrix(state: State, elements) -> np.ndarray:
    """Matrix omega(a_i* a_j); positive semidefinite for any state."""
    elements = list(elements)
    k = len(elements)
    out = np.zeros((k, k), dtype=complex)
    adjoints = [a.adjoint() for a in elements]
    for i in range(k):
        for j in range(k):
            out[i, j] = state(adjoints[i] * elements[j])
    return out
