"""Block-matrix *-algebra core.

Elements of A = M_{n_1}(C) + ... + M_{n_k}(C) (direct sum) are tuples of
complex matrices.  This module supplies the arithmetic, the C*-norm,
positivity and polar decomposition, exp/log, the universal trace into
A/[A,A]-closure and the quotient norm on that space.

All operations are pure; Element arrays are frozen on construction, so
an element is immutable and can be shared between computations, and an
invariant of its blocks (singular values, log det) is computed once and
kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.linalg loads on its first use, not at import

from .errors import (
    BranchCut,
    DescriptorMismatch,
    NotPositive,
    SingularInput,
)

# log_unitary_principal rejects an eigenvalue phase this close to the cut at -1
BRANCH_GAP = 1e-6
SINGULARITY_RTOL = 1e-12
POSITIVITY_RTOL = 1e-12
# a value v with ||v*v - 1|| at or below this is unitary
UNITARITY_TOL = 1e-8
# a path whose values at both ends have ||v - 1|| at or below this is a loop
LOOP_ENDPOINT_TOL = 1e-8
# a member of the closure has |arg det x_i| at or below this in each block
MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class AlgebraDescriptor:
    """A finite direct sum of matrix blocks, given by its block sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.block_sizes)
        if len(sizes) < 1:
            raise ValueError("need at least one block")
        if any(n < 1 for n in sizes):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def rank(self) -> int:
        return len(self.block_sizes)

    def identity(self) -> "Element":
        return Element(self, tuple(np.eye(n, dtype=complex) for n in self.block_sizes))

    def zero(self) -> "Element":
        return Element(self, tuple(np.zeros((n, n), dtype=complex) for n in self.block_sizes))

    def __str__(self):
        return " + ".join(f"M{n}" for n in self.block_sizes)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Element:
    """A block-diagonal tuple of complex matrices."""

    algebra: AlgebraDescriptor
    blocks: tuple[np.ndarray, ...]
    _invariants: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(_freeze(b) for b in self.blocks)
        sizes = self.algebra.block_sizes
        if len(blocks) != len(sizes):
            raise DescriptorMismatch(
                f"expected {len(sizes)} blocks, got {len(blocks)}"
            )
        for b, n in zip(blocks, sizes):
            if b.shape != (n, n):
                raise DescriptorMismatch(f"block shape {b.shape} != ({n}, {n})")
            if not np.isfinite(b).all():
                raise ValueError("non-finite entry in element")
        object.__setattr__(self, "blocks", blocks)

    # the operators are the one API of block arithmetic, one numpy expression per block
    def __add__(self, other):
        _same_algebra(self, other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other):
        return self + (-1.0 * other)

    def __neg__(self):
        return -1.0 * self

    def __matmul__(self, other):
        _same_algebra(self, other)
        return Element(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def __rmul__(self, lam):
        return self.map_blocks(lambda b: lam * b)

    def map_blocks(self, fn) -> "Element":
        return Element(self.algebra, tuple(fn(b) for b in self.blocks))

    def _once(self, fn):
        """fn(self), computed on the first call and kept: the blocks are
        read-only, so no invariant of them can change.  An exception is
        not kept; it is raised again on the next call."""
        if self._invariants is None:  # made on first use: most elements never need it
            object.__setattr__(self, "_invariants", {})
        if fn not in self._invariants:
            self._invariants[fn] = fn(self)
        return self._invariants[fn]


@dataclass(frozen=True)
class TraceValue:
    """An element of A/[A,A]-closure: one block trace per block."""

    algebra: AlgebraDescriptor
    coords: tuple[complex, ...]

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        if len(coords) != self.algebra.rank:
            raise DescriptorMismatch("coordinate count != block count")
        object.__setattr__(self, "coords", coords)

    def __add__(self, other):
        _same_algebra(self, other)
        return TraceValue(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        _same_algebra(self, other)
        return TraceValue(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, lam):
        return TraceValue(self.algebra, tuple(lam * a for a in self.coords))


@dataclass(frozen=True)
class AffFunction:
    """An affine function on the trace simplex, recorded by its values at
    the extreme traces.  Entries may be floats or exact Fractions."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __add__(self, other):
        return AffFunction(tuple(a + b for a, b in zip(self.values, other.values)))


def _same_algebra(x, y):
    if x.algebra != y.algebra:
        raise DescriptorMismatch(f"{x.algebra} != {y.algebra}")


# ---------------------------------------------------------------------------
# arithmetic


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack: the
    one spelling of it in the package."""
    return a.conj().swapaxes(-1, -2)


def adjoint(x: Element) -> Element:
    return x.map_blocks(_ct)


# ---------------------------------------------------------------------------
# norms, invertibility and positivity


def _binary_exponent(b: np.ndarray) -> int:
    """e with every real and imaginary part of the block b below 2^e, the
    largest at or above 2^(e-1): b * 2.0**-e is b at an exact scale,
    short of underflow, whose entries no longer overflow what is formed
    from them."""
    return math.frexp(float(np.abs(b.view(np.float64)).max()))[1]


def _scaled_singular_values(x: Element) -> tuple[tuple[np.ndarray, int], ...]:
    """(s, e) per block, with s * 2^e its singular values, descending,
    and s finite: e = 0 where one SVD of the block is finite, and where
    that SVD overflows, s is the SVD of b * 2.0**-e (_binary_exponent);
    kept through x._once."""
    out = []
    for b in x.blocks:
        s, e = np.linalg.svd(b, compute_uv=False), 0
        if not np.isfinite(s).all():
            e = _binary_exponent(b)
            s = np.linalg.svd(b * 2.0**-e, compute_uv=False)
        out.append((s, e))
    return tuple(out)


def _singular_values(x: Element) -> tuple[np.ndarray, ...]:
    """Each block's singular values, descending, inf past the float
    range; kept through x._once."""
    out = []
    for s, e in x._once(_scaled_singular_values):
        if e:
            with np.errstate(over="ignore"):  # inf: past the float range
                s = np.ldexp(s, e)
        out.append(s)
    return tuple(out)


def op_norm(x: Element) -> float:
    """Largest singular value over all blocks (the C*-norm)."""
    return max(float(s[0]) for s in x._once(_singular_values))


def _singular(smallest, norm):
    """The invertibility rule: singular where the smallest singular value,
    or a positive's lowest eigenvalue, is at most SINGULARITY_RTOL op_norm."""
    return smallest <= SINGULARITY_RTOL * norm


def _require_invertible(x: Element) -> None:
    """SingularInput when a block of x is singular by _singular, read at
    the largest scale 2^top of _scaled_singular_values: with no overflow,
    top = 0 and the rule reads the singular values themselves."""
    scaled = x._once(_scaled_singular_values)
    top = max(e for _, e in scaled)
    norm = max(math.ldexp(float(s[0]), e - top) for s, e in scaled)
    for s, e in scaled:
        smallest = math.ldexp(float(s[-1]), e - top)
        if _singular(smallest, norm):
            scale = f" at scale 2^{top}" if top else ""
            raise SingularInput(
                f"smallest singular value {smallest:.3e} <= {SINGULARITY_RTOL * norm:.3e}{scale}"
            )


# Stacks: k values at once, one (k, n, n) array per block; their
# singular values are one descending (k, n) array per block.


def _op_norms(svals) -> np.ndarray:
    """op_norm at each point of a stack, from its singular values."""
    return functools.reduce(np.maximum, [s[:, 0] for s in svals])


def _singular_at(svals) -> np.ndarray:
    """_singular at each point of a stack, from its singular values."""
    norms = _op_norms(svals)
    return np.any([_singular(s[:, -1], norms) for s in svals], axis=0)


def _identity_distances(blocks) -> np.ndarray:
    """op_norm(v - 1) at each point v of a stack: one SVD per block."""
    return _op_norms(
        [np.linalg.svd(b - np.eye(b.shape[-1]), compute_uv=False) for b in blocks]
    )


def _unitarity_defects(svals) -> np.ndarray:
    """||v*v - 1|| = max |s^2 - 1| at each point of a stack where it
    exceeds UNITARITY_TOL, and 0 where the point is unitary: from its
    singular values, without forming v*v, which may overflow."""
    with np.errstate(over="ignore"):  # s**2 = inf is the answer: not unitary
        errs = functools.reduce(np.maximum, [np.abs(s**2 - 1).max(axis=-1) for s in svals])
    return np.where(errs <= UNITARITY_TOL, 0.0, errs)


def _entry_above(stacks, tols) -> bool:
    """Whether some matrix in the stacks has a NaN entry or one of modulus
    above its tol (tols broadcasts against each stack): then its op_norm
    is above tol too, as |a_ij| <= ||a||, with no SVD to say so."""
    return any(not (np.abs(s) <= tols).all() for s in stacks)


def _identity_at(blocks, tol) -> bool:
    """Whether every value v of a stack has op_norm(v - 1) <= tol: no by
    an entry of some v - 1 (_entry_above), else by _identity_distances."""
    if _entry_above((b - np.eye(b.shape[-1]) for b in blocks), tol):
        return False
    return bool((_identity_distances(blocks) <= tol).all())


def _herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + _ct(m))


def is_positive(x: Element, tol: float | None = None) -> bool:
    """Self-adjoint up to tol with spectrum bounded below by -tol, by
    _positive_at (an entry of x/2 - x*/2 above tol/2 says no).

    tol=None uses the relative default 1e-12 * op_norm(x), and an x whose
    op_norm overflows is not positive.
    """
    if tol is None:
        tol = POSITIVITY_RTOL * op_norm(x)
        if not np.isfinite(tol):
            return False
    return _positive_at(tuple(b[None] for b in x.blocks), tol)


def _positive_at(blocks, tols) -> bool:
    """Whether every value v of a stack is positive within its tol, tols
    a scalar or one per point: ||v - v*|| <= tol and (v + v*)/2 >= -tol,
    read at half scale from v/2 and v*/2, which cannot overflow.  An
    entry of some v/2 - v*/2 above tol/2 says no (_entry_above); else,
    block by block, the largest singular value of v/2 - v*/2 (none for
    an exactly zero stack, as the construction's factors) and the
    lowest eigenvalue of (v + v*)/2 decide."""
    half_tols = 0.5 * tols
    entry_tols = np.reshape(half_tols, (-1, 1, 1))
    parts = []
    for b in blocks:
        half = 0.5 * b
        skew = half - _ct(half)
        if _entry_above([skew], entry_tols):
            return False
        parts.append((half, skew))
    for half, skew in parts:
        if skew.any() and (np.linalg.svd(skew, compute_uv=False)[:, 0] > half_tols).any():
            return False
        if (np.linalg.eigvalsh(half + _ct(half))[:, 0] < -tols).any():
            return False
    return True


def polar(x: Element) -> tuple[Element, Element]:
    """x = u p with u unitary and p = |x| positive invertible.

    Route: SVD per block, x = V S W*, u = V W*, p = W S W*.
    """
    _require_invertible(x)
    us, ps = [], []
    for b in x.blocks:
        v, s, wt = np.linalg.svd(b)  # the vectors make u and p
        us.append(v @ wt)
        ps.append(_herm(_ct(wt) @ (s[:, None] * wt)))
    return Element(x.algebra, tuple(us)), Element(x.algebra, tuple(ps))


# ---------------------------------------------------------------------------
# exp and log


def _symmetry(m, rtol=1e-13) -> str:
    """"h" (hermitian) when every entry of m - m* is within rtol max(1,
    max |m_ij|), else "s" when every entry of m + m* is, else "g"; read at
    half scale, from m/2 and m*/2, which cannot overflow (inf scale: "g")."""
    half = 0.5 * m
    half_h = _ct(half)
    bound = rtol * max(0.5, float(np.abs(half).max()))
    if not math.isfinite(bound):
        return "g"
    if float(np.abs(half - half_h).max()) <= bound:
        return "h"
    return "s" if float(np.abs(half + half_h).max()) <= bound else "g"


# Every exponential in the package is formed here: e^{tb} of a block b
# by _exp_mode and _exp_values, q diag(f) q* by _spectral, and the Pade
# route for a block neither hermitian nor skew-hermitian by _expm alone.


def _spectral(q: np.ndarray, f: np.ndarray, qh: np.ndarray | None = None) -> np.ndarray:
    """q diag(f) q*, or q_j diag(f_j) q_j* for each row f_j of a stack of
    vectors, q one matrix or a stack of them; qh is _ct(q) where the
    caller already has it."""
    return (q * f[..., None, :]) @ (_ct(q) if qh is None else qh)


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scipy's scaling and squaring Pade, for a matrix or each
    matrix of a stack."""
    return scipy.linalg.expm(a)


def _exp_mode(b: np.ndarray) -> tuple:
    """How e^{tb} is formed, from one _symmetry(b): ("h", w, q) with b =
    q diag(w) q* hermitian, ("s", w, q) with b = i q diag(w) q*
    skew-hermitian, each from one eigh, else ("g", None, None)."""
    kind = _symmetry(b)
    if kind == "g":
        return kind, None, None
    return (kind, *np.linalg.eigh(_herm(b if kind == "h" else -1j * b)))


def _exp_values(b: np.ndarray, mode: tuple, ts: np.ndarray) -> np.ndarray:
    """e^{tb} for each t of the array ts (one matrix for a 0-d ts, a
    stack for a 1-d one) on the route mode = _exp_mode(b) picked:
    q diag(e^{tw}) q*, q diag(e^{itw}) q*, or _expm(tb)."""
    kind, w, q = mode
    if kind == "g":
        return _expm(ts[..., None, None] * b)
    return _spectral(q, np.exp(ts[..., None] * w if kind == "h" else 1j * ts[..., None] * w))


def exp_element(h: Element) -> Element:
    """Blockwise matrix exponential, on the route of _exp_mode: hermitian
    and skew-hermitian blocks through one eigendecomposition (a hermitian
    block's exponential is then exactly self-adjoint), any other block
    through _expm."""
    return h.map_blocks(lambda b: _exp_values(b, _exp_mode(b), np.float64(1.0)))


def log_positive(a: Element) -> Element:
    """Self-adjoint c with e^c = a, for positive invertible a."""
    norm = op_norm(a)
    tol = POSITIVITY_RTOL * norm
    if not is_positive(a, tol=max(tol, 1e-10 * max(norm, 1.0))):
        raise NotPositive("log_positive needs a positive element")
    out = []
    for b in a.blocks:
        w, q = np.linalg.eigh(_herm(b))
        if _singular(w[0], norm):
            raise NotPositive(
                f"log_positive needs an invertible element (eigenvalue {w[0]:.3e})"
            )
        out.append(_herm(_spectral(q, np.log(w))))
    return Element(a.algebra, tuple(out))


def _unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, phases) with u = q diag(e^{i phases}) q* for a unitary block,
    phases in (-pi, pi], from the complex Schur form, which is diagonal
    for unitary input."""
    t, q = scipy.linalg.schur(u, output="complex")
    return q, np.angle(np.diag(t))


def _log_unitary_block(u: np.ndarray) -> np.ndarray:
    """Principal log of a unitary block: self-adjoint h, e^{ih} = u,
    eigenvalue phases inside (-pi, pi)."""
    q, phases = _unitary_eig(u)
    if np.any(np.abs(phases) >= np.pi - BRANCH_GAP):
        raise BranchCut(
            f"eigenvalue phase within {BRANCH_GAP:.1e} of the cut at -1"
        )
    return _herm(_spectral(q, phases))


def log_unitary_principal(u: Element) -> Element:
    """Self-adjoint h with e^{ih} = u and spectrum in (-pi, pi).

    BranchCut if any eigenvalue phase comes within BRANCH_GAP of -1.
    """
    return Element(u.algebra, tuple(_log_unitary_block(b) for b in u.blocks))


# ---------------------------------------------------------------------------
# the universal trace and the commutator quotient


def universal_trace(x: Element) -> TraceValue:
    """The quotient map A -> A/[A,A]-closure: the tuple of block traces."""
    return TraceValue(x.algebra, tuple(complex(np.trace(b)) for b in x.blocks))


def quotient_norm(v: TraceValue) -> float:
    """Quotient norm on A/[A,A]-closure: max over blocks of |tr_i| / n_i.

    For a single block the operator-norm distance from x to the traceless
    subspace is |tr x| / n, attained by subtracting (tr x / n) 1; block
    distances maximize under the sup norm of the direct sum.
    """
    return max(
        abs(c) / n for c, n in zip(v.coords, v.algebra.block_sizes)
    )
