"""Fermionic Fock bimodule and generalized field operators.

A level holds the coefficients of its unit wedges e_t = a*(e_t1) ...
a*(e_tl) Omega, t strictly increasing: an orthonormal basis, so no
level weight is read anywhere.  WeylElement objects appear only at the
edges: the FockElement constructor takes them, and ``scalar`` and
``fock_inner`` return them.

A level is stored in buckets keyed (m, o): scalars {tuple t: x_t} that
stand for (Lambda u(m + o) x) . W(m), the exterior power of u(m + o)
applied to sum_t x_t e_t, at the right label m in the frame o.  Since
W(n) . (e_b A) = (u(n) e_b) . (W(n) A), no operator rotates a wedge:

* the left action by W(n) moves (m, o) to (n + m, o), times the phase;
* a*(f_n W(n)) inserts u(-(n + m + o)) f_n into x, to (n + m, o);
* a(f_n W(n)) contracts x with u(-(m + o)) f_n, to (m - n, o).

``ModuleVector.pulled`` caches the rotated vectors per frame.  A
bucket's frame is set where its element is built, and no operation
changes it afterwards: the constructor puts e_t . W(m) in the frame -m,
and ``wedge`` puts e_t . W(0), a probe, in the frame 0.  So the images
of two words that cancel on an input cancel entry by entry.

u(n) is read in one place, the GNS pairing of two buckets whose frames
m + o differ by k: ``Twist.pair``, a sum of the minors det u(k)[s, t]
over the tuples present.  Buckets in one frame pair by a tuple dot
product, and under the tracial state pairs of different labels are
skipped first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bimodule import (
    FreeBimodule,
    ModuleVector,
    conjugate_vector,
    wedge_insert,
)
from .weyl import PRUNE_TOL, State, WeylElement

__all__ = [
    "FockElement",
    "vacuum",
    "wedge",
    "create",
    "annihilate",
    "fock_left_action",
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
    "compression_norm",
]

SQRT2 = math.sqrt(2.0)

# ---------------------------------------------------------------------------
# Fock elements


class FockElement:
    """Element of the whole Fock space of h: level 0 holds a Weyl
    coefficient, level l >= 1 the coefficients of unit wedges.  h has
    dimension dim, so the levels are 0..dim and no cutoff is needed.

    ``parts[level][(m, o)][t]`` is the scalar x_t of the bucket at label
    m in the frame o (see the module docstring); level 0 uses the single
    tuple ().  {l: {t: A}} is e_t . A, the unit wedge with A on its
    right, of the norm of A: {1: {(b,): A}} is a*(e_b . A) Omega.  Entries
    at or below PRUNE_TOL, then empty buckets and empty levels, are
    dropped when an element is built.  The constructor takes
    {level: {tuple: WeylElement}} and ``scalar`` returns a WeylElement;
    no dict inside an element changes after it is built.
    The constructor raises ValueError for a tuple that is not canonical:
    not strictly increasing, not of its level's length, or holding an
    index outside [0, dim).
    """

    __slots__ = ("space", "parts")

    # The whole Fock space cuts nothing off; bench/tracing.py still reads
    # this flag, so it stays a constant.
    truncated = False

    def __init__(self, space: FreeBimodule, parts: dict | None = None) -> None:
        dim = space.basis.dim
        maps = {}
        for level, terms in (parts or {}).items():
            labels = maps[level] = {}
            for t, a in terms.items():
                _require_canonical(t, level, dim)
                for n, c in a.terms.items():
                    labels.setdefault((n, tuple(map(operator.neg, n))), {})[t] = c
        self._fill(space, maps)

    @classmethod
    def _of(cls, space: FreeBimodule, maps: dict):
        """Element over label-major levels {level: {(m, o): {t: complex}}}; it
        takes the dicts over, so the caller must have built them."""
        v = cls.__new__(cls)
        v._fill(space, maps)
        return v

    def _fill(self, space, maps) -> None:
        self.space = space
        # pruned in place: every caller hands over dicts it built
        for level, labels in list(maps.items()):
            for n, terms in list(labels.items()):
                if terms and min(map(abs, terms.values())) > PRUNE_TOL:
                    continue
                for t in [t for t, c in terms.items() if abs(c) <= PRUNE_TOL]:
                    del terms[t]
                if not terms:
                    del labels[n]
            if not labels:
                del maps[level]
        self.parts: dict[int, dict[tuple, dict[tuple[int, ...], complex]]] = maps

    # -- access ------------------------------------------------------

    @property
    def scalar(self) -> WeylElement:
        terms: dict[tuple[int, ...], complex] = {}
        for (m, _), ts in self.parts.get(0, {}).items():
            terms[m] = terms.get(m, 0.0) + ts[()]
        return WeylElement(self.space.gens, terms)

    def is_zero(self) -> bool:
        return not self.parts

    # -- arithmetic --------------------------------------------------

    def _require_same(self, other: "FockElement") -> None:
        if self.space is not other.space:
            raise ValueError("fock elements are not compatible")

    def __add__(self, other: "FockElement") -> "FockElement":
        self._require_same(other)
        parts = {l: {n: dict(ts) for n, ts in labels.items()} for l, labels in self.parts.items()}
        for l, labels in other.parts.items():
            _add_level(parts.setdefault(l, {}), labels, 1.0)
        return FockElement._of(self.space, parts)

    def __sub__(self, other: "FockElement") -> "FockElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "FockElement":
        s = complex(scalar)
        parts = {
            l: {n: {t: s * c for t, c in ts.items()} for n, ts in labels.items()}
            for l, labels in self.parts.items()
        }
        return FockElement._of(self.space, parts)

    def __repr__(self) -> str:
        shape = {
            l: len({t for ts in labels.values() for t in ts})
            for l, labels in sorted(self.parts.items())
        }
        return f"FockElement({shape})"


def _require_canonical(t: tuple[int, ...], level: int, dim: int) -> None:
    if len(t) != level:
        raise ValueError(f"tuple {t} does not have length {level}")
    if any(i >= j for i, j in zip(t, t[1:])):
        raise ValueError(f"tuple {t} is not strictly increasing")
    if t and not (0 <= t[0] and t[-1] < dim):
        raise ValueError(f"tuple {t} has an index outside [0, {dim})")


def _add_level(level: dict, labels: dict, scalar: complex) -> None:
    """level += scalar * labels in place, entry by entry; the caller owns
    level's dicts."""
    for n, ts in labels.items():
        target = level.setdefault(n, {})
        for t, c in ts.items():
            target[t] = target.get(t, 0.0) + scalar * c


def vacuum(space: FreeBimodule, coeff: WeylElement | None = None) -> FockElement:
    """Level-0 element; the algebra itself is the zero-particle space."""
    if coeff is None:
        coeff = WeylElement.unit(space.gens)
    return FockElement(space, {0: {(): coeff}})


def wedge(space: FreeBimodule, t: tuple[int, ...]) -> FockElement:
    """The unit wedge e_t . W(0) = a*(e_t1) ... a*(e_tl) Omega of a
    canonical tuple t: the scalar 1 at t in the bucket (W(0), frame 0),
    where the constructor puts it; () gives the vacuum.  It builds no
    WeylElement.  Raises ValueError for a tuple that is not canonical, as
    the constructor does."""
    _require_canonical(t, len(t), space.basis.dim)
    zero = space.gens.zero()
    return FockElement._of(space, {len(t): {(zero, zero): {t: 1.0 + 0.0j}}})


# ---------------------------------------------------------------------------
# creation / annihilation / left action


def create(f: ModuleVector, v: FockElement) -> FockElement:
    """Fermionic creation: a*(e_b) e_t is the unit wedge of b inserted
    into t, signed by its position.

    Per group component f_n . W(n) and bucket (m, o), one
    ``wedge_insert`` call inserts u(-(n + m + o)) f_n into the scalars
    and the bucket moves to (n + m, o).  A level-dim tuple holds every
    slot, so ``wedge_insert`` gives it no image and the top level maps to 0.
    """
    space = v.space
    if f.space is not space:
        raise ValueError("vector lives in a different bimodule")
    gens = space.gens
    groups = f.by_group()
    out: dict[int, dict] = {}
    for l, buckets in v.parts.items():
        level = out.setdefault(l + 1, {})
        for n in groups:
            for (m, o), terms in buckets.items():
                key, phase = gens.product(n, m)
                col = f.pulled(tuple(map(operator.add, key, o)) if any(o) else key)[n]
                img = wedge_insert(col, {t: b * phase for t, b in terms.items()})
                target = level.get((key, o))
                if target is None:
                    level[key, o] = img  # a fresh dict, owned from here on
                    continue
                for s, x in img.items():
                    target[s] = target.get(s, 0.0) + x
    return FockElement._of(space, out)


def annihilate(f: ModuleVector, v: FockElement) -> FockElement:
    """Fermionic annihilation, the adjoint of ``create``.

    Per group component f_n . W(n) and bucket (m, o), every slot k of a
    tuple t that g = u(-(m + o)) f_n reaches adds (-1)^k conj(g(t_k)) x_t
    onto the surviving tuple, and the bucket moves to (m - n, o).  Level 0
    is the kernel.
    """
    space = v.space
    if f.space is not space:
        raise ValueError("vector lives in a different bimodule")
    gens = space.gens
    negs = [(n, tuple(map(operator.neg, n))) for n in f.by_group()]
    out: dict[int, dict] = {}
    for l, buckets in v.parts.items():
        if l == 0:
            continue
        level = out.setdefault(l - 1, {})
        for (m, o), terms in buckets.items():
            pulled = f.pulled(tuple(map(operator.add, m, o)) if any(o) else m)
            for n, neg in negs:
                coeffs = pulled[n]
                contracted: dict[tuple[int, ...], complex] = {}
                for t, b in terms.items():
                    for k, e in enumerate(t):
                        z = coeffs.get(e)
                        if z is None:
                            continue
                        r = t[:k] + t[k + 1 :]
                        x = z.conjugate() * b
                        contracted[r] = contracted.get(r, 0.0) + (-x if k % 2 else x)
                if not contracted:
                    continue  # f_n reaches no slot of the bucket
                key, phase = gens.product(neg, m)
                target = level.setdefault((key, o), {})
                for r, c in contracted.items():
                    target[r] = target.get(r, 0.0) + c * phase
    return FockElement._of(space, out)


def fock_left_action(a: WeylElement, v: FockElement) -> FockElement:
    """Diagonal left action: W(n) multiplies into the right coefficient
    and the bucket keeps its frame, so no slot is rotated; on level 0 it
    is the algebra product."""
    space = v.space
    if a.gens is not space.gens:
        raise ValueError("operator over wrong generator set")
    gens = space.gens
    out: dict[int, dict] = {}
    for n, c in a.terms.items():
        for l, buckets in v.parts.items():
            level = out.setdefault(l, {})
            for (m, o), terms in buckets.items():
                key, phase = gens.product(n, m)
                w = c * phase
                target = level.setdefault((key, o), {})
                for t, b in terms.items():
                    target[t] = target.get(t, 0.0) + b * w
    return FockElement._of(space, out)


# ---------------------------------------------------------------------------
# GNS evaluation


def _pairing(v: FockElement, w: FockElement, tracial: bool = False) -> dict:
    """The pairing's per-label sums {n: complex}, before any pruning.

    Per level and pair of buckets (n, o) of v and (m, p) of w, the sum of
    conj(x_s) y_t det u(k)[s, t], k = (m + p) - (n + o), is taken first
    and lands on W(-n) W(m) once: a dot product over the shared tuples
    when k = 0, ``Twist.pair`` otherwise; unit wedges are orthonormal.
    With ``tracial`` the pairs with m != n, which that state sends to 0,
    are skipped first.  Buckets in different frames always pair through
    ``Twist.pair``, exactly 0 when their tuples share no signature; an
    exact 0 adds nothing.
    """
    v._require_same(w)
    gens = v.space.gens
    twist = v.space.twist
    total: dict[tuple[int, ...], complex] = {}
    for l in v.parts.keys() & w.parts.keys():
        w_buckets = w.parts[l]
        for kv, vt in v.parts[l].items():
            for kw, wt in w_buckets.items():
                acc = None
                if kw != kv:
                    (n, o), (m, p) = kv, kw
                    if tracial and m != n:
                        continue
                    # the frames' gap (m + p) - (n + o); level 0 has no frame
                    k = tuple(a + b - c - d for a, b, c, d in zip(m, p, n, o))
                    if l and any(k):
                        acc = twist.pair(k, vt, wt)
                        if not acc:
                            continue  # exactly 0, as with no shared signature
                if acc is None:
                    # a dot product over the smaller bucket's tuples, in its order
                    for t in vt if len(vt) <= len(wt) else wt:
                        c, d = vt.get(t), wt.get(t)
                        if c is not None and d is not None:
                            x = c.conjugate() * d
                            acc = x if acc is None else acc + x
                if acc is not None:
                    key, phase = gens.product(tuple(map(operator.neg, kv[0])), kw[0])
                    total[key] = total.get(key, 0.0) + acc * phase
    return total


def fock_inner(v: FockElement, w: FockElement) -> WeylElement:
    """Algebra-valued scalar product <v, w>, levelwise (see ``_pairing``).

    The oracle equivalence tests (acceptance 5 among them) compare it
    with the slot-by-slot nested product on dense signed expansions.
    """
    return WeylElement(v.space.gens, _pairing(v, w))


def gns_inner(v: FockElement, w: FockElement, state: State) -> complex:
    """State applied to the algebra-valued scalar product.

    The state reads the raw per-label sums, not ``fock_inner``'s pruned
    WeylElement, so a sum at or below PRUNE_TOL still counts and a vector
    of tiny norm does not read 0; labels the state sends to 0 are
    skipped.  Every GNS value of the checks is this pairing.
    """
    gens = v.space.gens
    total = 0.0 + 0.0j
    for n, c in _pairing(v, w, state.kind == "tracial").items():
        value = state.value(gens, n)
        if value:
            total += c * value
    return total


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

    Words that end alike share their images.  On its first ``apply`` an
    operator builds its suffix plan once: one node per distinct word
    suffix, keyed by (primitive identity, parent node), and each word's
    scalar with its top node.  Primitives are keyed by identity, not by
    dataclass equality, since ``LeftMultOp`` compares Weyl elements
    within a tolerance.  ``apply`` evaluates every node once, in creation
    order, then adds the word images in term order; the plan holds no
    image.
    """

    __slots__ = ("space", "terms", "_plan")

    def __init__(self, space: FreeBimodule, terms) -> None:
        self.space = space
        kept = []
        for scalar, prims in terms:
            scalar = complex(scalar)
            if scalar != 0:
                kept.append((scalar, tuple(prims)))
        self.terms = tuple(kept)
        self._plan = None

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

    def _suffix_plan(self) -> tuple[list, list]:
        """(nodes, words): nodes[i] = (prim, parent node or -1 for the
        input), every distinct suffix once and after its parent; words
        lists (scalar, top node or -1 for the empty word) in term order."""
        nodes: list[tuple] = []
        index: dict[tuple[int, int], int] = {}
        words = []
        for scalar, prims in self.terms:
            node = -1
            for prim in reversed(prims):
                key = (id(prim), node)
                got = index.get(key)
                if got is None:
                    got = index[key] = len(nodes)
                    nodes.append((prim, node))
                node = got
            words.append((scalar, node))
        self._plan = nodes, words
        return self._plan

    def apply(self, v: FockElement) -> FockElement:
        """Sum of the words' images.

        Each shared suffix is evaluated once; an empty image passes
        through the primitives above it unchanged."""
        if v.space is not self.space:
            raise ValueError("fock elements are not compatible")
        nodes, words = self._plan or self._suffix_plan()
        images: list[FockElement] = []
        for prim, parent in nodes:
            src = v if parent < 0 else images[parent]
            images.append(prim.apply(src) if src.parts else src)
        parts: dict[int, dict] = {}
        for scalar, node in words:
            img = v if node < 0 else images[node]
            for l, labels in img.parts.items():
                _add_level(parts.setdefault(l, {}), labels, scalar)
        return FockElement._of(self.space, parts)

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
    """Self-dual combination (a*(f) + a(kappa f)) / SQRT2."""
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


def compression_norm(op: FieldOperator, slots: list[tuple[int, ...]]) -> float:
    """The largest singular value of op compressed to the span of the unit
    basis wedges e_t . W(0) (``wedge``) of the distinct canonical tuples
    ``slots``.

    op must keep the bucket (W(0), frame 0) of a wedge, as a(f) does when
    f has the unit coefficient.  There every pairing reads only the label
    0, where each state is 1, and unit wedges are orthonormal: the Gram
    matrix is I, and the norm is ||T||_2 with T[i, j] = (op e_j)[t_i],
    read off the image with no GNS pairing.  Raises ValueError for a
    repeated tuple, or for an image outside that bucket.
    """
    row = {t: i for i, t in enumerate(slots)}
    if len(row) != len(slots):
        raise ValueError("compression_norm needs distinct tuples")
    zero = op.space.gens.zero()
    tmat = np.zeros((len(slots), len(slots)), dtype=complex)
    for j, t in enumerate(slots):
        for buckets in op.apply(wedge(op.space, t)).parts.values():
            if buckets.keys() != {(zero, zero)}:
                raise ValueError("image has a bucket outside (W(0), frame 0)")
            for s, y in buckets[zero, zero].items():
                i = row.get(s)
                if i is not None:
                    tmat[i, j] = y
    return float(np.linalg.norm(tmat, 2))
