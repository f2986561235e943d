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

import itertools
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


def _worst(stacks: np.ndarray) -> np.ndarray:
    """The largest Frobenius norm of a block per (blocks, size, size) stack,
    at most sqrt(size) above the operator norm and equal on 1 x 1 blocks."""
    return np.sqrt(np.sum(stacks.real**2 + stacks.imag**2, axis=(-2, -1)).max(axis=-1))


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


class _Signatures(dict):
    """{tuple t: the sorted block names of its slots}, filled on first use."""

    def __missing__(self, t: tuple[int, ...]) -> tuple[int, ...]:
        got = self[t] = tuple(sorted(map(self.names.__getitem__, t)))
        return got


class Twist:
    """Commuting unitaries U_k, one per Weyl generator, defining u(n).

    Each U_k is a d x d matrix or, if diagonal, the length-d vector of
    its diagonal; the forms mix freely.  The twist keeps one stack per
    generator of its coupling blocks (the components of the exact
    off-diagonal nonzero pattern of the matrices, named by their smallest
    slots, in name order, slots ascending, identity-padded to the largest
    block); a diagonal family is a stack of 1 x 1 blocks.  u(n) maps each
    block into itself, so det u(n)[s, t] = 0 unless ``signature(s) ==
    signature(t)``: the sorted block names of the slots, t itself on
    one-slot blocks.  Construction checks unitarity, commutativity and
    charge conjugation (U K = K conj(U) for the sector swap K, i.e.
    U[kappa i, kappa j] = conj U[i, j]) per block within 1e-12 in
    Frobenius norm, and rejects non-finite entries.
    """

    __slots__ = (
        "basis", "gens", "signature", "_zero", "_factors", "_cache", "_block", "_pos", "_members",
        "_phase_at", "__weakref__",
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
        # union-find over the off-diagonal nonzeros; each root is the
        # smallest slot of its block
        root = np.arange(d)

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for u in unitaries:
            if u.ndim == 2:
                rows, cols = np.nonzero(u)
                for i, j in zip(rows[rows != cols].tolist(), cols[rows != cols].tolist()):
                    i, j = find(i), find(j)
                    root[max(i, j)] = min(i, j)
        # point every slot at its root, the name of its block
        while not np.array_equal(root[root], root):
            root = root[root]
        block = np.searchsorted(np.flatnonzero(root == np.arange(d)), root)
        sizes = np.bincount(block)
        size = int(sizes.max())
        pos = np.empty(d, dtype=np.intp)
        pos[np.argsort(block, kind="stable")] = np.arange(d) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        members = np.full((len(sizes), size), -1)
        members[block, pos] = np.arange(d)
        self._block, self._pos, self._members = block, pos, members
        signatures = _Signatures()
        signatures.names = root.tolist()
        self.signature = signatures.__getitem__
        # where a slot's phase sits in a flattened power when its block
        # holds it alone, else -1
        self._phase_at = np.where(sizes[block] == 1, block * size * size, -1).tolist()

        valid, eye = members >= 0, np.eye(size, dtype=complex)
        at = np.where(valid, members, 0)
        f = np.zeros((len(unitaries), len(sizes), size, size), dtype=complex)
        for k, u in enumerate(unitaries):
            if u.ndim == 2:
                f[k] = u[at[:, :, None], at[:, None, :]]
            else:
                f[k][:, range(size), range(size)] = u[at]
        self._factors = f = np.where(valid[:, :, None] & valid[:, None, :], f, eye)
        self._cache = {self._zero: np.broadcast_to(eye, f.shape[1:])}
        # U[kappa i, kappa j] at each block entry, exactly 0 where the two
        # partners sit in two blocks; a pad stands for itself
        kappa = (members + d // 2) % d
        kb = np.where(valid, block[kappa], np.arange(len(sizes))[:, None])
        kp = np.where(valid, pos[kappa], np.arange(size))
        swapped = f[:, kb[:, :, None], kp[:, :, None], kp[:, None, :]]
        swapped = np.where(kb[:, :, None] == kb[:, None, :], swapped, 0)
        unitary = _worst(f @ f.conj().swapaxes(-2, -1) - eye)
        conjugation = _worst(swapped - f.conj())
        for idx in range(len(f)):
            if unitary[idx] > TWIST_TOL:
                raise ValueError(f"twist generator {idx} is not unitary")
            if conjugation[idx] > TWIST_TOL:
                raise ValueError(f"twist generator {idx} breaks charge conjugation")
        for a, b in itertools.combinations(range(len(f)), 2):
            if _worst(f[a] @ f[b] - f[b] @ f[a]) > TWIST_TOL:
                raise ValueError(f"twist generators {a} and {b} do not commute")

    def _assemble(self, stack: np.ndarray) -> np.ndarray:
        """The d x d matrix whose coupling blocks the stack holds; a pad's
        slot -1 writes into a last row and column that are cut off."""
        out = np.zeros((self.basis.dim + 1,) * 2, dtype=complex)
        out[self._members[:, :, None], self._members[:, None, :]] = stack
        return out[:-1, :-1].copy()

    @property
    def unitaries(self) -> tuple[np.ndarray, ...]:
        """The generators U_k as dense matrices."""
        return tuple(self._assemble(f) for f in self._factors)

    def closure(self, slots) -> set[int]:
        """The slots together with every coupling block they meet."""
        slots = set(slots)
        met = self._members[self._block[list(slots)]]
        return slots.union(met[met >= 0].tolist())

    def _power(self, n: tuple[int, ...]) -> np.ndarray:
        """Cached u(n) as a stack of its blocks; any sequence of ints
        labels it."""
        if type(n) is not tuple:
            n = tuple(int(v) for v in n)
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        if len(n) != len(self.gens):
            raise ValueError("exponent length mismatch")
        out = self._cache[self._zero]
        for k, power in enumerate(n):
            if power == 0:
                continue
            # inverse = adjoint
            base = self._factors[k] if power > 0 else self._factors[k].conj().swapaxes(-2, -1)
            for _ in range(abs(power)):
                out = np.matmul(base, out)
        self._cache[n] = out
        return out

    def matrix(self, n: tuple[int, ...]) -> np.ndarray:
        """u(n) = prod_k U_k^{n_k}; u(0) is the exact identity."""
        return self._assemble(self._power(n))

    def column(self, n: tuple[int, ...], b: int) -> dict[int, complex]:
        """Sparse column u(n) e_b."""
        return {b: 1.0 + 0.0j} if n == self._zero else self._column(self._power(n), b)

    def _column(self, u: np.ndarray, b: int) -> dict[int, complex]:
        """u e_b for a power u, read from the block of b."""
        at = self._phase_at[b]
        if at >= 0:
            return {b: u.item(at)}
        i = self._block[b]
        col = u[i, :, self._pos[b]].tolist()
        return {s: c for s, c in zip(self._members[i].tolist(), col) if s >= 0 and abs(c) > PRUNE_TOL}

    def pair(self, k: tuple[int, ...], x: dict, y: dict) -> complex:
        """sum conj(x_s) y_t det u(k)[s, t] over the tuples x and y carry,
        both {canonical tuple: complex} on one level, taking minors only
        within one ``signature`` (exactly 0 with none shared): on one-slot
        blocks the product of the phases in slot order, else gathered from
        the blocks, at most PAIR_BLOCK per determinant call."""
        sig = self.signature
        gx: dict[tuple[int, ...], list] = {}
        gy: dict[tuple[int, ...], list] = {}
        for s in x:
            gx.setdefault(sig(s), []).append(s)
        for t in y:
            gy.setdefault(sig(t), []).append(t)
        total = 0.0 + 0.0j
        shared = gx.keys() & gy.keys()
        if not shared:
            return total
        u, at = self._power(k), self._phase_at
        for g in shared:
            if min(map(at.__getitem__, g), default=0) >= 0:
                # one-slot blocks only: g is the one tuple on both sides
                z = x[g].conjugate() * y[g]
                for b in g:
                    z *= u.item(at[b])
                total += z
                continue
            rows, cols = np.array(gx[g]), np.array(gy[g])
            xs, ys = np.conj([x[s] for s in gx[g]]), np.array([y[t] for t in gy[g]])
            bx, px = self._block[rows][:, None, :, None], self._pos[rows][:, None, :, None]
            by, py = self._block[cols][None, :, None, :], self._pos[cols][None, :, None, :]
            step = max(1, PAIR_BLOCK // len(cols))
            for i in range(0, len(rows), step):
                b = bx[i : i + step]
                minors = np.where(b == by, u[b, px[i : i + step], py], 0)
                total += complex(xs[i : i + step] @ np.linalg.det(minors) @ ys)
        return total

    def apply(self, n: tuple[int, ...], vec: OneParticleVector) -> OneParticleVector:
        u, out = self._power(n), {}
        for b, c in vec.coeffs.items():
            for i, uc in self._column(u, b).items():
                got = out.get(i)
                out[i] = uc * c if got is None else got + uc * c
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
