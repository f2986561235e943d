"""Fermionic Fock bimodule and generalized field operators.

Levels are spans of normal-form tensors (basis tuple) . (Weyl element);
moving a coefficient past a slot twists every slot it crosses, so the
antisymmetrizer only ever permutes basis tuples and commutes with the
twisted structure.  Antisymmetric elements store one coefficient per
strictly increasing tuple: the stored value is the coefficient the
increasing representative carries in the full signed expansion.

Creation prepends a one-particle column and reantisymmetrizes through
exterior-algebra minors; annihilation contracts against the bra vector,
conjugate-twisting the surviving slots and pulling the adjoint group
unitary into the right coefficient.  Both are exact on coefficients.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .bimodule import (
    FreeBimodule,
    ModuleVector,
    OneParticleVector,
    Twist,
    conjugate_vector,
)
from .weyl import State, WeylElement, PRUNE_TOL

__all__ = [
    "TensorElement",
    "AntisymmetricElement",
    "FockElement",
    "vacuum",
    "tensor_of",
    "antisymmetrize",
    "project_antisymmetric",
    "tensor_inner",
    "antisym_inner",
    "create",
    "annihilate",
    "fock_left_action",
    "fock_right_mul",
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

# ---------------------------------------------------------------------------
# permutation and determinant helpers (levels stay tiny, <= 4)

_PERM_CACHE: dict[int, list[tuple[tuple[int, ...], int]]] = {}


def _perms(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All permutations of range(n) with parity signs."""
    got = _PERM_CACHE.get(n)
    if got is not None:
        return got
    out = []
    for p in itertools.permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if p[i] > p[j]
        )
        out.append((p, -1 if inv % 2 else 1))
    _PERM_CACHE[n] = out
    return out


def _sort_sign(t: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sorted copy of t and the parity of the sorting permutation.

    Returns None when t has a repeated entry (killed by antisymmetry).
    """
    n = len(t)
    order = sorted(range(n), key=lambda i: t[i])
    s = tuple(t[i] for i in order)
    for a, b in zip(s, s[1:]):
        if a == b:
            return None
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j])
    return s, (-1 if inv % 2 else 1)


def _det(mat: list[list[complex]]) -> complex:
    m = len(mat)
    if m == 0:
        return 1.0 + 0.0j
    if m == 1:
        return mat[0][0]
    if m == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if m == 3:
        a, b, c = mat[0]
        d, e, f = mat[1]
        g, h, i = mat[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0.0 + 0.0j
    for p, sign in _perms(m):
        prod = 1.0 + 0.0j
        for j in range(m):
            prod *= mat[p[j]][j]
            if prod == 0:
                break
        total += sign * prod
    return total


def _wedge_from_columns(cols: list[dict[int, complex]]) -> dict[tuple[int, ...], complex]:
    """Canonical coefficients {s: det M_s} of the exterior product.

    M_s[j][k] = cols[k][s_j]; the result equals m! P_-(v_1 x ... x v_m)
    read off in canonical storage, i.e. applying one operator slotwise to
    a canonical wedge needs no extra factorial.
    """
    m = len(cols)
    union = sorted(set().union(*[c.keys() for c in cols])) if cols else []
    out: dict[tuple[int, ...], complex] = {}
    for s in itertools.combinations(union, m):
        mat = [[cols[k].get(row, 0.0) for k in range(m)] for row in s]
        d = _det(mat)
        if abs(d) > PRUNE_TOL:
            out[s] = d
    return out


# per-twist memo of compound (exterior-power) images of basis wedges
_COMPOUND_CACHE: "weakref.WeakKeyDictionary[Twist, dict]" = weakref.WeakKeyDictionary()


def _compound_apply(twist: Twist, n: tuple[int, ...], t: tuple[int, ...]) -> dict[tuple[int, ...], complex]:
    """Image of the canonical wedge e_t under the exterior power of u(n)."""
    if all(v == 0 for v in n):
        return {t: 1.0 + 0.0j}
    memo = _COMPOUND_CACHE.setdefault(twist, {})
    key = (n, t)
    got = memo.get(key)
    if got is None:
        got = _wedge_from_columns([twist.column(n, b) for b in t])
        memo[key] = got
    return got


# ---------------------------------------------------------------------------
# tensor containers


class TensorElement:
    """Level-n span of (basis tuple) . (Weyl coefficient), no symmetry."""

    __slots__ = ("space", "level", "terms")

    def __init__(self, space: FreeBimodule, level: int, terms: dict | None = None) -> None:
        if level < 1:
            raise ValueError("tensor level must be >= 1")
        self.space = space
        self.level = level
        self.terms: dict[tuple[int, ...], WeylElement] = {}
        if terms:
            dim = space.basis.dim
            for t, a in terms.items():
                t = tuple(int(b) for b in t)
                if len(t) != level:
                    raise ValueError("key length does not match level")
                if any(not 0 <= b < dim for b in t):
                    raise IndexError("basis index out of range")
                if not a.is_zero():
                    self.terms[t] = a

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.space is not other.space or self.level != other.level:
            raise ValueError("tensor mismatch")
        out = dict(self.terms)
        for t, a in other.terms.items():
            out[t] = out[t] + a if t in out else a
        return TensorElement(self.space, self.level, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "TensorElement":
        return TensorElement(
            self.space, self.level, {t: scalar * a for t, a in self.terms.items()}
        )

    def close_to(self, other: "TensorElement", tol: float = 1e-12) -> bool:
        if self.space is not other.space or self.level != other.level:
            return False
        zero = WeylElement.zero(self.space.gens)
        for t in self.terms.keys() | other.terms.keys():
            if not self.terms.get(t, zero).close_to(other.terms.get(t, zero), tol):
                return False
        return True

    def __repr__(self) -> str:
        return f"TensorElement(level={self.level}, terms={len(self.terms)})"


class AntisymmetricElement:
    """Canonical antisymmetric level: strictly increasing tuples only."""

    __slots__ = ("space", "level", "terms")

    def __init__(self, space: FreeBimodule, level: int, terms: dict | None = None) -> None:
        if level < 1:
            raise ValueError("antisymmetric level must be >= 1")
        self.space = space
        self.level = level
        self.terms: dict[tuple[int, ...], WeylElement] = {}
        if terms:
            dim = space.basis.dim
            for t, a in terms.items():
                t = tuple(int(b) for b in t)
                if len(t) != level:
                    raise ValueError("key length does not match level")
                if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                    raise ValueError("keys must be strictly increasing")
                if any(not 0 <= b < dim for b in t):
                    raise IndexError("basis index out of range")
                if not a.is_zero():
                    self.terms[t] = a

    def expand(self) -> TensorElement:
        """Full signed expansion; emits level! keys per stored tuple."""
        out: dict[tuple[int, ...], WeylElement] = {}
        for t, a in self.terms.items():
            for p, sign in _perms(self.level):
                key = tuple(t[i] for i in p)
                piece = float(sign) * a
                out[key] = out[key] + piece if key in out else piece
        return TensorElement(self.space, self.level, out)

    def __add__(self, other: "AntisymmetricElement") -> "AntisymmetricElement":
        if self.space is not other.space or self.level != other.level:
            raise ValueError("level mismatch")
        out = dict(self.terms)
        for t, a in other.terms.items():
            out[t] = out[t] + a if t in out else a
        return AntisymmetricElement(self.space, self.level, out)

    def __rmul__(self, scalar: complex) -> "AntisymmetricElement":
        return AntisymmetricElement(
            self.space, self.level, {t: scalar * a for t, a in self.terms.items()}
        )

    def close_to(self, other: "AntisymmetricElement", tol: float = 1e-12) -> bool:
        if self.space is not other.space or self.level != other.level:
            return False
        zero = WeylElement.zero(self.space.gens)
        for t in self.terms.keys() | other.terms.keys():
            if not self.terms.get(t, zero).close_to(other.terms.get(t, zero), tol):
                return False
        return True

    def __repr__(self) -> str:
        return f"AntisymmetricElement(level={self.level}, terms={len(self.terms)})"


def antisymmetrize(t: TensorElement) -> TensorElement:
    """Projection P_- = (1/n!) sum_p sign(p) U_p on basis tuples."""
    n = t.level
    scale = 1.0 / math.factorial(n)
    out: dict[tuple[int, ...], WeylElement] = {}
    for key, a in t.terms.items():
        for p, sign in _perms(n):
            target = tuple(key[i] for i in p)
            piece = (sign * scale) * a
            out[target] = out[target] + piece if target in out else piece
    return TensorElement(t.space, n, out)


def project_antisymmetric(t: TensorElement) -> AntisymmetricElement:
    """P_- followed by canonical storage on increasing representatives."""
    n = t.level
    scale = 1.0 / math.factorial(n)
    out: dict[tuple[int, ...], WeylElement] = {}
    for key, a in t.terms.items():
        ss = _sort_sign(key)
        if ss is None:
            continue  # repeated slot, antisymmetry kills it
        s, sign = ss
        piece = (sign * scale) * a
        out[s] = out[s] + piece if s in out else piece
    return AntisymmetricElement(t.space, n, out)


def tensor_of(factors: list[ModuleVector]) -> TensorElement:
    """Normal form of f_1 x ... x f_m, coefficients pushed to the right.

    Each coefficient crossing a slot twists it, so a factor's group part
    u(n)-rotates every slot already to its right.
    """
    if not factors:
        raise ValueError("need at least one factor")
    space = factors[0].space
    for f in factors:
        if f.space is not space:
            raise ValueError("factors live in different bimodules")
    # rightmost factor seeds the suffix; walk left, twisting the suffix
    terms: dict[tuple[int, ...], WeylElement] = {
        (b,): a for b, a in factors[-1].entries.items()
    }
    for f in reversed(factors[:-1]):
        new: dict[tuple[int, ...], WeylElement] = {}
        for n, cvec in f.by_group().items():
            mono = WeylElement.monomial(space.gens, n)
            for t, a in terms.items():
                coeff = mono * a
                cols = [space.twist.column(n, b) for b in t]
                for combo in itertools.product(*[c.items() for c in cols]):
                    w = 1.0 + 0.0j
                    key_tail = []
                    for idx, val in combo:
                        w *= val
                        key_tail.append(idx)
                    if abs(w) <= PRUNE_TOL:
                        continue
                    tail = tuple(key_tail)
                    for b0, c0 in cvec.coeffs.items():
                        key = (b0,) + tail
                        piece = (c0 * w) * coeff
                        new[key] = new[key] + piece if key in new else piece
        terms = new
    return TensorElement(space, len(factors), terms)


def tensor_inner(v: TensorElement, w: TensorElement) -> WeylElement:
    """Algebra-valued scalar product of normal forms; nesting collapses
    to A* (slotwise deltas) B because slots hold plain basis vectors."""
    if v.space is not w.space or v.level != w.level:
        raise ValueError("tensor mismatch")
    total = WeylElement.zero(v.space.gens)
    for t, a in v.terms.items():
        b = w.terms.get(t)
        if b is not None:
            total = total + a.adjoint() * b
    return total


def antisym_inner(v: AntisymmetricElement, w: AntisymmetricElement) -> WeylElement:
    """Scalar product via expansions: equal tuples contribute level!."""
    if v.space is not w.space or v.level != w.level:
        raise ValueError("level mismatch")
    scale = float(math.factorial(v.level))
    total = WeylElement.zero(v.space.gens)
    for t, a in v.terms.items():
        b = w.terms.get(t)
        if b is not None:
            total = total + scale * (a.adjoint() * b)
    return total


# ---------------------------------------------------------------------------
# truncated Fock elements


class FockElement:
    """Finite-level element: level 0 holds a Weyl coefficient, level
    l >= 1 canonical antisymmetric terms.  Levels above the truncation
    are dropped by the operators, which then set the truncated flag."""

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
        self.space = space
        self.truncation = truncation
        self.truncated = truncated
        self.parts: dict[int, dict[tuple[int, ...], WeylElement]] = {}
        if parts:
            for level, terms in parts.items():
                if not 0 <= level <= truncation:
                    raise ValueError("level outside truncation window")
                kept = {t: a for t, a in terms.items() if not a.is_zero()}
                if kept:
                    self.parts[level] = kept

    # -- access ------------------------------------------------------

    @property
    def scalar(self) -> WeylElement:
        part = self.parts.get(0)
        if part:
            return part[()]
        return WeylElement.zero(self.space.gens)

    def level(self, l: int) -> AntisymmetricElement:
        if l < 1:
            raise ValueError("use .scalar for level 0")
        return AntisymmetricElement(self.space, l, self.parts.get(l, {}))

    def is_zero(self) -> bool:
        return not self.parts

    # -- arithmetic --------------------------------------------------

    def _require_same(self, other: "FockElement") -> None:
        if self.space is not other.space or self.truncation != other.truncation:
            raise ValueError("fock elements are not compatible")

    def __add__(self, other: "FockElement") -> "FockElement":
        self._require_same(other)
        parts: dict[int, dict] = {l: dict(ts) for l, ts in self.parts.items()}
        for l, ts in other.parts.items():
            mine = parts.setdefault(l, {})
            for t, a in ts.items():
                mine[t] = mine[t] + a if t in mine else a
        return FockElement(
            self.space, self.truncation, parts, self.truncated or other.truncated
        )

    def __sub__(self, other: "FockElement") -> "FockElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "FockElement":
        parts = {
            l: {t: scalar * a for t, a in ts.items()} for l, ts in self.parts.items()
        }
        return FockElement(self.space, self.truncation, parts, self.truncated)

    def close_to(self, other: "FockElement", tol: float = 1e-12) -> bool:
        self._require_same(other)
        zero = WeylElement.zero(self.space.gens)
        for l in self.parts.keys() | other.parts.keys():
            a_terms = self.parts.get(l, {})
            b_terms = other.parts.get(l, {})
            for t in a_terms.keys() | b_terms.keys():
                if not a_terms.get(t, zero).close_to(b_terms.get(t, zero), tol):
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


def fock_from_antisymmetric(a: AntisymmetricElement, truncation: int) -> FockElement:
    if a.level > truncation:
        raise ValueError("level above truncation")
    return FockElement(a.space, truncation, {a.level: dict(a.terms)})


# ---------------------------------------------------------------------------
# creation / annihilation / left action


def create(f: ModuleVector, v: FockElement) -> FockElement:
    """Fermionic creation: sqrt(l+1) P_-(f x .) levelwise.

    Per group component f_n . W(n): prepend the column f_n, rotate the
    standing slots by u(n), take exterior minors, multiply W(n) into the
    right coefficient.  The top level of the window is dropped and
    flagged, never folded back.
    """
    space = v.space
    if f.space is not space:
        raise ValueError("vector lives in a different bimodule")
    groups = f.by_group()
    out: dict[int, dict[tuple[int, ...], WeylElement]] = {}
    truncated = v.truncated
    for l, terms in v.parts.items():
        if l + 1 > v.truncation:
            truncated = True
            continue
        target = out.setdefault(l + 1, {})
        scale = 1.0 / math.sqrt(l + 1)
        for n, cvec in groups.items():
            mono = WeylElement.monomial(space.gens, n)
            for t, a in terms.items():
                coeff = mono * a
                cols = [dict(cvec.coeffs)]
                cols.extend(space.twist.column(n, b) for b in t)
                for s, det in _wedge_from_columns(cols).items():
                    piece = (det * scale) * coeff
                    target[s] = target[s] + piece if s in target else piece
    return FockElement(space, v.truncation, out, truncated)


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
    groups = f.by_group()
    out: dict[int, dict[tuple[int, ...], WeylElement]] = {}
    for l, terms in v.parts.items():
        if l == 0:
            continue
        target = out.setdefault(l - 1, {})
        scale = math.sqrt(l)
        for n, cvec in groups.items():
            neg = tuple(-x for x in n)
            mono = WeylElement.monomial(space.gens, neg)
            coeffs = cvec.coeffs
            for t, a in terms.items():
                coeff = None
                for k, b in enumerate(t):
                    z = coeffs.get(b)
                    if z is None:
                        continue
                    if coeff is None:
                        coeff = mono * a
                    sign = -scale if k % 2 else scale
                    w = sign * z.conjugate()
                    tail = t[:k] + t[k + 1 :]
                    for s, det in _compound_apply(space.twist, neg, tail).items():
                        piece = (w * det) * coeff
                        target[s] = target[s] + piece if s in target else piece
    return FockElement(space, v.truncation, out, v.truncated)


def fock_left_action(a: WeylElement, v: FockElement) -> FockElement:
    """Diagonal left action: rotate every slot by u(n), multiply W(n)
    into the right coefficient; on level 0 it is the algebra product."""
    space = v.space
    if a.gens is not space.gens:
        raise ValueError("operator over wrong generator set")
    out: dict[int, dict[tuple[int, ...], WeylElement]] = {}
    for n, c in a.terms.items():
        mono = WeylElement.monomial(space.gens, n, c)
        for l, terms in v.parts.items():
            target = out.setdefault(l, {})
            for t, coeff_in in terms.items():
                coeff = mono * coeff_in
                if l == 0:
                    target[()] = target[()] + coeff if () in target else coeff
                    continue
                for s, det in _compound_apply(space.twist, n, t).items():
                    piece = det * coeff
                    target[s] = target[s] + piece if s in target else piece
    return FockElement(space, v.truncation, out, v.truncated)


def fock_right_mul(v: FockElement, a: WeylElement) -> FockElement:
    """Right module action, coefficientwise on every level."""
    if a.gens is not v.space.gens:
        raise ValueError("operator over wrong generator set")
    parts = {
        l: {t: x * a for t, x in terms.items()} for l, terms in v.parts.items()
    }
    return FockElement(v.space, v.truncation, parts, v.truncated)


# ---------------------------------------------------------------------------
# GNS evaluation


def gns_inner(v: FockElement, w: FockElement, state: State) -> complex:
    """State applied to the algebra-valued scalar product, levelwise."""
    v._require_same(w)
    gens = v.space.gens
    total = WeylElement.zero(gens)
    for l in v.parts.keys() & w.parts.keys():
        scale = float(math.factorial(l))
        vt = v.parts[l]
        wt = w.parts[l]
        for t in (vt if len(vt) <= len(wt) else wt):
            a = vt.get(t)
            b = wt.get(t)
            if a is not None and b is not None:
                total = total + scale * (a.adjoint() * b)
    return state(total)


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

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, space: FreeBimodule) -> "FieldOperator":
        return cls(space, [(1.0, ())])

    @classmethod
    def zero(cls, space: FreeBimodule) -> "FieldOperator":
        return cls(space, [])

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
        total = FockElement(self.space, v.truncation, {}, v.truncated)
        for scalar, prims in self.terms:
            acc = v
            for prim in reversed(prims):
                acc = prim.apply(acc)
            total = total + scalar * acc
        return total

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


def operator_matrix(
    op: FieldOperator, basis: list[FockElement], state: State, tol: float = 1e-10
) -> OperatorMatrixResult:
    """Compression of op to the span of basis, orthonormalized via the
    GNS Gram matrix; the norm estimate is the largest singular value.

    A Gram eigenvalue at or below tol (relative to the largest) drops
    that direction and flags the result as degenerate.
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
    cutoff = tol * max(1.0, float(eigvals.max(initial=0.0)))
    keep = eigvals > cutoff
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        return OperatorMatrixResult(np.zeros((0, 0)), 0.0, True, 0)
    basis_mat = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    compressed = basis_mat.conj().T @ tmat @ basis_mat
    norm = float(np.linalg.norm(compressed, 2))
    return OperatorMatrixResult(compressed, norm, rank < k, rank)
