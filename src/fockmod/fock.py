"""Fermionic Fock bimodule and generalized field operators.

Levels are spans of normal-form tensors (basis tuple) . (Weyl element);
moving a coefficient past a slot twists every slot it crosses, so the
antisymmetrizer only ever permutes basis tuples and commutes with the
twisted structure.

Every level is a dict {basis tuple: coefficient map}, the map
{group label n: complex} being the bare store of a Weyl element; the
operators below compute on the maps with the helpers of ``fockmod.weyl``.
A FockElement stores one per level, on strictly increasing tuples only:
the stored map is the coefficient the increasing representative carries
in the full signed expansion.  WeylElement objects appear only at the
edges: the FockElement constructor takes them, and ``scalar`` and
``fock_inner`` return them.

Every operator moves the standing slots of a wedge through the twist by
reading ``Twist.wedge``, the cached exterior power of u(n); this module
computes no minors of u(n).  Creation inserts the one-particle vector
into that image with ``bimodule.wedge_insert``, the kernel that builds
the image itself (a Laplace expansion along the vector's column);
annihilation contracts against the bra vector, conjugate-twisting the
surviving slots and pulling the adjoint group unitary into the right
coefficient.  Both sum their complex weights per output tuple first and
scale the coefficient map once per tuple; both are exact on
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bimodule import (
    FreeBimodule,
    ModuleVector,
    conjugate_vector,
    wedge_insert,
)
from .weyl import (
    State,
    WeylElement,
    map_adjoint,
    map_merge,
    map_monomial_product,
    map_product,
    map_scaled,
    maps_close,
)

__all__ = [
    "FockElement",
    "vacuum",
    "create",
    "annihilate",
    "fock_left_action",
    "fock_right_mul",
    "fock_inner",
    "gns_inner",
    "gns_norm",
    "FieldOperator",
    "CreateOp",
    "AnnihilateOp",
    "LeftMultOp",
    "creation",
    "annihilation",
    "weyl_mult",
    "dirac",
    "anticommutator",
    "commutator",
    "operator_matrix",
    "OperatorMatrixResult",
]

SQRT2 = math.sqrt(2.0)
# relative Gram eigenvalue at or below which operator_matrix drops a direction
RANK_TOL = 1e-10

# ---------------------------------------------------------------------------
# truncated Fock elements

_ONE = complex(1.0)


def _accumulate(target: dict, s: tuple[int, ...], x: dict) -> None:
    """target[s] += x in place; the caller owns target's maps, and x is
    stored as it is when s is new.

    A map that cancels to empty keeps its key, so a later piece for s
    lands in the same place of the summation order; building the element
    drops it.
    """
    got = target.get(s)
    if got is None:
        target[s] = x
    else:
        map_merge(got, x)


class FockElement:
    """Finite-level element: level 0 holds a Weyl coefficient, level
    l >= 1 canonical antisymmetric terms.  Levels above the truncation
    are dropped by the operators, which then set the truncated flag.

    ``parts`` maps a level to {basis tuple: coefficient map}, level 0 to
    the single key (); a coefficient map is the store of a WeylElement
    (see ``weyl.map_product``).  The constructor takes WeylElement
    values and ``scalar`` returns one; no map inside an element changes
    after it is built.
    """

    __slots__ = ("space", "truncation", "parts", "truncated")

    def __init__(
        self,
        space: FreeBimodule,
        truncation: int,
        parts: dict | None = None,
        truncated: bool = False,
    ) -> None:
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        maps = {}
        for level, terms in (parts or {}).items():
            if not 0 <= level <= truncation:
                raise ValueError("level outside truncation window")
            maps[level] = {t: dict(a.terms) for t, a in terms.items()}
        self._fill(space, truncation, maps, truncated)

    @classmethod
    def _of(cls, space: FreeBimodule, truncation: int, maps: dict, truncated: bool):
        """Element over maps that nobody changes afterwards."""
        v = cls.__new__(cls)
        v._fill(space, truncation, maps, truncated)
        return v

    def _fill(self, space, truncation, maps, truncated) -> None:
        self.space = space
        self.truncation = truncation
        self.truncated = truncated
        self.parts: dict[int, dict[tuple[int, ...], dict]] = {}
        for level, terms in maps.items():
            kept = {t: x for t, x in terms.items() if x}
            if kept:
                self.parts[level] = kept

    # -- access ------------------------------------------------------

    @property
    def scalar(self) -> WeylElement:
        return WeylElement(self.space.gens, self.parts.get(0, {}).get((), {}))

    def is_zero(self) -> bool:
        return not self.parts

    # -- arithmetic --------------------------------------------------

    def _require_same(self, other: "FockElement") -> None:
        if self.space is not other.space or self.truncation != other.truncation:
            raise ValueError("fock elements are not compatible")

    def __add__(self, other: "FockElement") -> "FockElement":
        self._require_same(other)
        parts = {l: dict(ts) for l, ts in self.parts.items()}
        for l, ts in other.parts.items():
            mine = parts.setdefault(l, {})
            for t, x in ts.items():
                if t in mine:
                    mine[t] = dict(mine[t])
                _accumulate(mine, t, x)
        return FockElement._of(
            self.space, self.truncation, parts, self.truncated or other.truncated
        )

    def __sub__(self, other: "FockElement") -> "FockElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "FockElement":
        s = complex(scalar)
        parts = {
            l: {t: map_scaled(s, x) for t, x in ts.items()} for l, ts in self.parts.items()
        }
        return FockElement._of(self.space, self.truncation, parts, self.truncated)

    def close_to(self, other: "FockElement", tol: float = 1e-12) -> bool:
        self._require_same(other)
        for l in self.parts.keys() | other.parts.keys():
            a_terms = self.parts.get(l, {})
            b_terms = other.parts.get(l, {})
            for t in a_terms.keys() | b_terms.keys():
                if not maps_close(a_terms.get(t, {}), b_terms.get(t, {}), tol):
                    return False
        return True

    def __repr__(self) -> str:
        shape = {l: len(ts) for l, ts in sorted(self.parts.items())}
        flag = ", truncated" if self.truncated else ""
        return f"FockElement({shape}{flag})"


def vacuum(space: FreeBimodule, truncation: int, coeff: WeylElement | None = None) -> FockElement:
    """Level-0 element; the algebra itself is the zero-particle space."""
    if coeff is None:
        coeff = WeylElement.unit(space.gens)
    return FockElement(space, truncation, {0: {(): coeff}})


# ---------------------------------------------------------------------------
# creation / annihilation / left action


def create(f: ModuleVector, v: FockElement) -> FockElement:
    """Fermionic creation: sqrt(l+1) P_-(f x .) levelwise.

    Per group component f_n . W(n): rotate the standing slots by u(n)
    through ``Twist.wedge``, insert each entry of f_n in front and sort
    it into place with its sign (the Laplace expansion of the minors of
    [f_n | u(n) e_t] along f_n's column), multiply W(n) into the right
    coefficient.  The top level of the window is dropped and flagged,
    never folded back.
    """
    space = v.space
    if f.space is not space:
        raise ValueError("vector lives in a different bimodule")
    gens = space.gens
    groups = f.by_group()
    out: dict[int, dict[tuple[int, ...], dict]] = {}
    truncated = v.truncated
    for l, terms in v.parts.items():
        if l + 1 > v.truncation:
            truncated = True
            continue
        target = out.setdefault(l + 1, {})
        scale = 1.0 / math.sqrt(l + 1)
        for n, cvec in groups.items():
            for t, a in terms.items():
                coeff = map_monomial_product(gens, n, _ONE, a)
                img = wedge_insert(cvec.coeffs, space.twist.wedge(n, t))
                for s, x in img.items():
                    _accumulate(target, s, map_scaled(x * scale, coeff))
    return FockElement._of(space, v.truncation, out, truncated)


def annihilate(f: ModuleVector, v: FockElement) -> FockElement:
    """Fermionic annihilation: sqrt(l) times the slot-1 contraction.

    Contracting against f_n . W(n) conjugates the matched coefficient,
    rotates the surviving slots by u(-n) and pulls W(-n) into the right
    coefficient; alternating signs come from moving the matched slot to
    the front.  Level 0 is the kernel.
    """
    space = v.space
    if f.space is not space:
        raise ValueError("vector lives in a different bimodule")
    gens = space.gens
    groups = f.by_group()
    out: dict[int, dict[tuple[int, ...], dict]] = {}
    for l, terms in v.parts.items():
        if l == 0:
            continue
        target = out.setdefault(l - 1, {})
        scale = math.sqrt(l)
        for n, cvec in groups.items():
            neg = tuple(-x for x in n)
            coeffs = cvec.coeffs
            for t, a in terms.items():
                img: dict[tuple[int, ...], complex] = {}
                for k, b in enumerate(t):
                    z = coeffs.get(b)
                    if z is None:
                        continue
                    sign = -scale if k % 2 else scale
                    w = sign * z.conjugate()
                    for s, det in space.twist.wedge(neg, t[:k] + t[k + 1 :]).items():
                        x = w * det
                        got = img.get(s)
                        img[s] = x if got is None else got + x
                if not img:
                    continue
                coeff = map_monomial_product(gens, neg, _ONE, a)
                for s, x in img.items():
                    _accumulate(target, s, map_scaled(x, coeff))
    return FockElement._of(space, v.truncation, out, v.truncated)


def fock_left_action(a: WeylElement, v: FockElement) -> FockElement:
    """Diagonal left action: rotate every slot by u(n), multiply W(n)
    into the right coefficient; on level 0 it is the algebra product."""
    space = v.space
    if a.gens is not space.gens:
        raise ValueError("operator over wrong generator set")
    gens = space.gens
    out: dict[int, dict[tuple[int, ...], dict]] = {}
    for n, c in a.terms.items():
        for l, terms in v.parts.items():
            target = out.setdefault(l, {})
            for t, x in terms.items():
                coeff = map_monomial_product(gens, n, c, x)
                if l == 0:
                    _accumulate(target, (), coeff)
                    continue
                for s, det in space.twist.wedge(n, t).items():
                    _accumulate(target, s, map_scaled(det, coeff))
    return FockElement._of(space, v.truncation, out, v.truncated)


def fock_right_mul(v: FockElement, a: WeylElement) -> FockElement:
    """Right module action, coefficientwise on every level."""
    gens = v.space.gens
    if a.gens is not gens:
        raise ValueError("operator over wrong generator set")
    parts = {
        l: {t: map_product(gens, x, a.terms) for t, x in terms.items()}
        for l, terms in v.parts.items()
    }
    return FockElement._of(v.space, v.truncation, parts, v.truncated)


# ---------------------------------------------------------------------------
# GNS evaluation


def fock_inner(v: FockElement, w: FockElement) -> WeylElement:
    """Algebra-valued scalar product <v, w>, levelwise; a level-l pair of
    equal canonical tuples counts l! times, once per expansion term.

    Every GNS value of the checks is a state applied to this pairing.
    The oracle equivalence tests (acceptance 5 among them) compare it
    with the slot-by-slot nested product on dense signed expansions.
    """
    v._require_same(w)
    gens = v.space.gens
    total: dict[tuple[int, ...], complex] = {}
    for l in v.parts.keys() & w.parts.keys():
        scale = float(math.factorial(l))
        vt = v.parts[l]
        wt = w.parts[l]
        for t in (vt if len(vt) <= len(wt) else wt):
            a = vt.get(t)
            b = wt.get(t)
            if a is not None and b is not None:
                map_merge(total, map_scaled(scale, map_product(gens, map_adjoint(a), b)))
    return WeylElement(gens, total)


def gns_inner(v: FockElement, w: FockElement, state: State) -> complex:
    """State applied to the algebra-valued scalar product."""
    return state(fock_inner(v, w))


def gns_norm(v: FockElement, state: State) -> float:
    val = gns_inner(v, v, state)
    return math.sqrt(max(val.real, 0.0))


# ---------------------------------------------------------------------------
# symbolic field operators


@dataclass(frozen=True)
class CreateOp:
    vector: ModuleVector

    def apply(self, v: FockElement) -> FockElement:
        return create(self.vector, v)

    def adjoint(self) -> "AnnihilateOp":
        return AnnihilateOp(self.vector)


@dataclass(frozen=True)
class AnnihilateOp:
    vector: ModuleVector

    def apply(self, v: FockElement) -> FockElement:
        return annihilate(self.vector, v)

    def adjoint(self) -> "CreateOp":
        return CreateOp(self.vector)


@dataclass(frozen=True)
class LeftMultOp:
    element: WeylElement

    def apply(self, v: FockElement) -> FockElement:
        return fock_left_action(self.element, v)

    def adjoint(self) -> "LeftMultOp":
        return LeftMultOp(self.element.adjoint())


class FieldOperator:
    """Sum of scalar-weighted words in create/annihilate/left-multiply.

    Words apply right to left; the adjoint reverses each word and swaps
    creation with annihilation, so it is structural, not numerical.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: FreeBimodule, terms) -> None:
        self.space = space
        kept = []
        for scalar, prims in terms:
            scalar = complex(scalar)
            if scalar != 0:
                kept.append((scalar, tuple(prims)))
        self.terms = tuple(kept)

    # -- algebra -----------------------------------------------------

    def _require_same(self, other: "FieldOperator") -> None:
        if self.space is not other.space:
            raise ValueError("operators act on different bimodules")

    def __add__(self, other: "FieldOperator") -> "FieldOperator":
        self._require_same(other)
        return FieldOperator(self.space, list(self.terms) + list(other.terms))

    def __sub__(self, other: "FieldOperator") -> "FieldOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "FieldOperator":
        return FieldOperator(
            self.space, [(scalar * s, p) for s, p in self.terms]
        )

    def __matmul__(self, other: "FieldOperator") -> "FieldOperator":
        self._require_same(other)
        out = []
        for s1, p1 in self.terms:
            for s2, p2 in other.terms:
                out.append((s1 * s2, p1 + p2))
        return FieldOperator(self.space, out)

    def adjoint(self) -> "FieldOperator":
        out = []
        for s, prims in self.terms:
            out.append(
                (s.conjugate(), tuple(p.adjoint() for p in reversed(prims)))
            )
        return FieldOperator(self.space, out)

    # -- action ------------------------------------------------------

    def apply(self, v: FockElement) -> FockElement:
        """Sum of the words' images; truncated if v or any word's image is."""
        if v.space is not self.space:
            raise ValueError("fock elements are not compatible")
        parts: dict[int, dict[tuple[int, ...], dict]] = {}
        truncated = v.truncated
        for scalar, prims in self.terms:
            acc = v
            for prim in reversed(prims):
                acc = prim.apply(acc)
                if not acc.parts:
                    break
            truncated = truncated or acc.truncated
            for l, ts in acc.parts.items():
                mine = parts.setdefault(l, {})
                for t, x in ts.items():
                    _accumulate(mine, t, map_scaled(scalar, x))
                    if not mine[t]:
                        del mine[t]
                if not mine:
                    del parts[l]
        return FockElement._of(self.space, v.truncation, parts, truncated)

    def equivalent(self, other: "FieldOperator", tol: float = 1e-12) -> bool:
        """Structural equality up to term order and coefficient noise."""
        self._require_same(other)
        remaining = list(other.terms)
        for s, prims in self.terms:
            hit = None
            for i, (s2, prims2) in enumerate(remaining):
                if abs(s - s2) > tol or len(prims) != len(prims2):
                    continue
                if all(_prim_close(p, q, tol) for p, q in zip(prims, prims2)):
                    hit = i
                    break
            if hit is None:
                return False
            remaining.pop(hit)
        return not remaining

    def __repr__(self) -> str:
        names = {CreateOp: "a*", AnnihilateOp: "a", LeftMultOp: "W"}
        words = []
        for s, prims in self.terms:
            tag = ".".join(names[type(p)] for p in prims) or "1"
            words.append(f"({s:.4g})*{tag}")
        return "FieldOperator[" + " + ".join(words) + "]"


def _prim_close(p, q, tol: float) -> bool:
    if type(p) is not type(q):
        return False
    if isinstance(p, LeftMultOp):
        return p.element.close_to(q.element, tol)
    return p.vector.close_to(q.vector, tol)


def creation(f: ModuleVector) -> FieldOperator:
    return FieldOperator(f.space, [(1.0, (CreateOp(f),))])


def annihilation(f: ModuleVector) -> FieldOperator:
    return FieldOperator(f.space, [(1.0, (AnnihilateOp(f),))])


def weyl_mult(space: FreeBimodule, a: WeylElement) -> FieldOperator:
    return FieldOperator(space, [(1.0, (LeftMultOp(a),))])


def dirac(f: ModuleVector) -> FieldOperator:
    """Self-dual combination (a*(f) + a(kappa f)) / sqrt(2)."""
    kf = conjugate_vector(f)
    return FieldOperator(
        f.space,
        [(1.0 / SQRT2, (CreateOp(f),)), (1.0 / SQRT2, (AnnihilateOp(kf),))],
    )


def anticommutator(a: FieldOperator, b: FieldOperator) -> FieldOperator:
    return a @ b + b @ a


def commutator(a: FieldOperator, b: FieldOperator) -> FieldOperator:
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# numeric probes


@dataclass(frozen=True)
class OperatorMatrixResult:
    matrix: np.ndarray
    norm_estimate: float
    degenerate: bool
    rank: int


def operator_matrix(op: FieldOperator, basis: list[FockElement], state: State) -> OperatorMatrixResult:
    """Compression of op to the span of basis, orthonormalized via the
    GNS Gram matrix; the norm estimate is the largest singular value.

    A Gram eigenvalue at or below RANK_TOL (relative to the largest)
    drops that direction and flags the result as degenerate.
    """
    k = len(basis)
    gram = np.zeros((k, k), dtype=complex)
    images = [op.apply(b) for b in basis]
    tmat = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            gram[i, j] = gns_inner(basis[i], basis[j], state)
            tmat[i, j] = gns_inner(basis[i], images[j], state)
    eigvals, eigvecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    cutoff = RANK_TOL * max(1.0, float(eigvals.max(initial=0.0)))
    keep = eigvals > cutoff
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        return OperatorMatrixResult(np.zeros((0, 0)), 0.0, True, 0)
    basis_mat = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    compressed = basis_mat.conj().T @ tmat @ basis_mat
    norm = float(np.linalg.norm(compressed, 2))
    return OperatorMatrixResult(compressed, norm, rank < k, rank)
