"""Brute-force reference implementations for the Fock-level operators.

Everything here is written straight from the defining formulas on full
dense index arrays, one slot at a time, with no canonical forms, no
minors and no sparsity tricks.  Only the exact Weyl algebra is shared
with the engine; twists enter as raw unitary matrices supplied by the
caller.  Deliberately slow, so sizes are guarded.
"""

from __future__ import annotations

import itertools
import math

from .weyl import GeneratorSet, WeylElement, PRUNE_TOL

__all__ = [
    "DenseTensor",
    "oracle_antisymmetrize",
    "oracle_left_mult",
    "oracle_nested_inner",
    "oracle_create",
    "oracle_annihilate",
    "oracle_fermi_create",
    "oracle_fermi_annihilate",
]

MAX_DIM = 6
# level 4 reaches the deepest random case (--truncation 4) and one
# creation above a level-3 wedge
MAX_LEVEL = 4


def _guard(dim: int, level: int) -> None:
    if dim > MAX_DIM or level > MAX_LEVEL:
        raise ValueError(
            f"oracle handles dim <= {MAX_DIM} and level <= {MAX_LEVEL} only"
        )


def _parity(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


class DenseTensor:
    """Level-n array of Weyl coefficients over every index tuple."""

    __slots__ = ("gens", "dim", "level", "entries")

    def __init__(self, gens: GeneratorSet, dim: int, level: int) -> None:
        if level < 1:
            raise ValueError("dense tensor level must be >= 1")
        _guard(dim, level)
        self.gens = gens
        self.dim = dim
        self.level = level
        zero = WeylElement.zero(gens)
        self.entries: dict[tuple[int, ...], WeylElement] = {
            idx: zero for idx in itertools.product(range(dim), repeat=level)
        }

    @classmethod
    def from_terms(cls, gens: GeneratorSet, dim: int, level: int, terms: dict) -> "DenseTensor":
        out = cls(gens, dim, level)
        for t, a in terms.items():
            t = tuple(int(b) for b in t)
            out.entries[t] = out.entries[t] + a
        return out

    def nonzero(self):
        for t, a in self.entries.items():
            if not a.is_zero():
                yield t, a

    def to_terms(self) -> dict[tuple[int, ...], WeylElement]:
        return {t: a for t, a in self.nonzero()}

    def copy_like(self) -> "DenseTensor":
        return DenseTensor(self.gens, self.dim, self.level)

    def add_into(self, idx: tuple[int, ...], a: WeylElement) -> None:
        self.entries[idx] = self.entries[idx] + a

    def close_to(self, other: "DenseTensor", tol: float = 1e-12) -> bool:
        if self.dim != other.dim or self.level != other.level:
            return False
        return all(
            self.entries[t].close_to(other.entries[t], tol) for t in self.entries
        )

    def max_deviation(self, other: "DenseTensor") -> float:
        worst = 0.0
        for t in self.entries:
            a, b = self.entries[t], other.entries[t]
            for n in a.terms.keys() | b.terms.keys():
                worst = max(worst, abs(a.terms.get(n, 0.0) - b.terms.get(n, 0.0)))
        return worst


def oracle_antisymmetrize(t: DenseTensor) -> DenseTensor:
    """(1/n!) sum over permutations of signed slot shuffles."""
    n = t.level
    scale = 1.0 / math.factorial(n)
    out = t.copy_like()
    for perm in itertools.permutations(range(n)):
        sign = _parity(perm)
        for idx, a in t.nonzero():
            target = tuple(idx[p] for p in perm)
            out.add_into(target, (sign * scale) * a)
    return out


def _left_mult_column(a: WeylElement, col: int, row: int, u_of) -> WeylElement:
    """Component <e_row, a . e_col> of the twisted action on one slot."""
    out = WeylElement.zero(a.gens)
    for n, c in a.terms.items():
        mat = u_of(n)
        w = mat[row, col]
        if abs(w) > PRUNE_TOL:
            out = out + WeylElement.monomial(a.gens, n, c * w)
    return out


def _rotations(mat, slots: tuple[int, ...], dim: int) -> list[tuple[tuple[int, ...], complex]]:
    """Every (target tuple, weight) of mat applied to e_slots, rotating
    slot by slot, each slot independently over the matrix columns."""
    targets: list[tuple[tuple[int, ...], complex]] = [((), 1.0 + 0.0j)]
    for col in slots:
        grown = []
        for prefix, w in targets:
            for row in range(dim):
                z = mat[row, col]
                if abs(z * w) > PRUNE_TOL:
                    grown.append((prefix + (row,), w * z))
        targets = grown
    return targets


def oracle_left_mult(a: WeylElement, t: DenseTensor, u_of) -> DenseTensor:
    """Move a across every slot in turn, then into the coefficient.

    One monomial at a time: c W(n) . (e_s . A) rotates slot after slot
    by u(n) and lands as c W(n) A on the right.
    """
    out = t.copy_like()
    for n, c in a.terms.items():
        mat = u_of(n)
        mono = WeylElement.monomial(t.gens, n, c)
        for idx, coeff in t.nonzero():
            shifted = mono * coeff
            for full, w in _rotations(mat, idx, t.dim):
                out.add_into(full, w * shifted)
    return out


def oracle_nested_inner(v: DenseTensor, w: DenseTensor, u_of) -> WeylElement:
    """Slot-by-slot nested scalar product with explicit left actions.

    For each pair of elementary tensors the innermost bracket opens
    first; its algebra value left-acts on the next ket slot before the
    next bra slot closes.  Extended sesquilinearly over all entries.
    """
    if v.dim != w.dim or v.level != w.level:
        raise ValueError("tensor mismatch")
    gens = v.gens
    total = WeylElement.zero(gens)
    for s, a in v.nonzero():
        for t, b in w.nonzero():
            x = WeylElement.unit(gens)
            for k in range(v.level):
                # left-act the accumulated bracket on ket slot k, then
                # project onto bra slot k
                x = _left_mult_column(x, t[k], s[k], u_of)
                if x.is_zero():
                    break
            if not x.is_zero():
                total = total + a.adjoint() * x * b
    return total


def oracle_create(f_entries: dict[int, WeylElement], t: DenseTensor, u_of) -> DenseTensor:
    """Plain creation sqrt(n+1) f x t, coefficients walked to the right."""
    gens = t.gens
    level = t.level + 1
    _guard(t.dim, level)
    out = DenseTensor(gens, t.dim, level)
    scale = math.sqrt(level)
    for b, fb in f_entries.items():
        if fb.is_zero():
            continue
        for n, c in fb.terms.items():
            mat = u_of(n)
            mono = WeylElement.monomial(gens, n, c * scale)
            for idx, coeff in t.nonzero():
                shifted = mono * coeff
                for tail, w in _rotations(mat, idx, t.dim):
                    out.add_into((b,) + tail, w * shifted)
    return out


def oracle_annihilate(f_entries: dict[int, WeylElement], t: DenseTensor, u_of) -> DenseTensor | WeylElement:
    """Plain annihilation sqrt(n) <f| t, contracting the first slot.

    The bracket <f, e_{s_1}> left-acts on the surviving slots; at level
    one the result is the bare algebra element.
    """
    gens = t.gens
    scale = math.sqrt(t.level)
    if t.level == 1:
        total = WeylElement.zero(gens)
        for idx, coeff in t.nonzero():
            fb = f_entries.get(idx[0])
            if fb is not None:
                total = total + scale * (fb.adjoint() * coeff)
        return total
    out = DenseTensor(gens, t.dim, t.level - 1)
    for idx, coeff in t.nonzero():
        fb = f_entries.get(idx[0])
        if fb is None or fb.is_zero():
            continue
        for n, c in fb.adjoint().terms.items():
            mat = u_of(n)
            mono = WeylElement.monomial(gens, n, c * scale)
            shifted = mono * coeff
            for full, w in _rotations(mat, idx[1:], t.dim):
                out.add_into(full, w * shifted)
    return out


def oracle_fermi_create(f_entries: dict[int, WeylElement], t: DenseTensor, u_of) -> DenseTensor:
    """Antisymmetrized creation on an (already antisymmetric) input."""
    return oracle_antisymmetrize(oracle_create(f_entries, t, u_of))


def oracle_fermi_annihilate(f_entries: dict[int, WeylElement], t: DenseTensor, u_of):
    """Annihilation after projecting the input, matching the fermionic
    restriction; the output is antisymmetric on antisymmetric input."""
    return oracle_annihilate(f_entries, oracle_antisymmetrize(t), u_of)
