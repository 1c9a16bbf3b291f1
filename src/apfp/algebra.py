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

    def __neg__(self):
        return TraceValue(self.algebra, tuple(-a for a in self.coords))

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

    def __sub__(self, other):
        return AffFunction(tuple(a - b for a, b in zip(self.values, other.values)))


def _same_algebra(x, y):
    if x.algebra != y.algebra:
        raise DescriptorMismatch(f"{x.algebra} != {y.algebra}")


# ---------------------------------------------------------------------------
# arithmetic


def adjoint(x: Element) -> Element:
    return x.map_blocks(lambda b: b.conj().T)


# ---------------------------------------------------------------------------
# norms, invertibility and positivity


def _singular_values(x: Element) -> tuple[np.ndarray, ...]:
    """Each block's singular values, descending; one SVD per block, kept
    through x._once."""
    return tuple(np.linalg.svd(b, compute_uv=False) for b in x.blocks)


def op_norm(x: Element) -> float:
    """Largest singular value over all blocks (the C*-norm)."""
    return max(float(s[0]) for s in x._once(_singular_values))


def _singular(smallest, norm):
    """The invertibility rule: singular where the smallest singular value,
    or a positive's lowest eigenvalue, is at most SINGULARITY_RTOL op_norm."""
    return smallest <= SINGULARITY_RTOL * norm


def _require_invertible(x: Element) -> None:
    """SingularInput when a block of x is singular by _singular."""
    norm = op_norm(x)
    for s in x._once(_singular_values):
        if _singular(s[-1], norm):
            raise SingularInput(f"smallest singular value {s[-1]:.3e} <= {SINGULARITY_RTOL * norm:.3e}")


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
    """Whether some matrix in the stacks has an entry of modulus above its
    tol (tols broadcasts against each stack): then its op_norm is above
    tol too, as |a_ij| <= ||a||, and no SVD is needed to say so.  One
    pass per stack, stopping at the first stack that has one."""
    return any((np.abs(s) > tols).any() for s in stacks)


def _half_skews(blocks):
    """v/2 - v*/2 at each point v of each stack, one stack at a time:
    formed from halves, it cannot overflow."""
    for b in blocks:
        half = 0.5 * b
        yield half - half.conj().swapaxes(-1, -2)


def _herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def is_positive(x: Element, tol: float | None = None) -> bool:
    """Self-adjoint up to tol with spectrum bounded below by -tol.

    tol=None uses the relative default 1e-12 * op_norm(x), and an x whose
    op_norm overflows is not positive.
    """
    if tol is None:
        tol = POSITIVITY_RTOL * op_norm(x)
        if not np.isfinite(tol):
            return False
    return bool(_positive_at(tuple(b[None] for b in x.blocks), np.array([tol]))[0])


def _positive_at(blocks, tols) -> np.ndarray:
    """is_positive(v, tol) at each point v of a stack, tol from tols: the
    norm of v - v* (its largest singular value) and the lowest eigenvalue
    of (v + v*)/2, one batched call each per block while some point is
    left positive, the second only while some point is self-adjoint
    within its tol.  Both are formed from v/2 and v*/2, which cannot
    overflow: the defect is compared at half scale.  A stack whose
    v/2 - v*/2 is exactly zero (the construction's factors) takes no
    SVD: its norm is 0."""
    ok = np.ones(len(tols), dtype=bool)
    half_tols = 0.5 * tols
    for b in blocks:
        if not np.count_nonzero(ok):
            break
        half = 0.5 * b
        half_h = half.conj().swapaxes(-1, -2)
        skew = half - half_h
        norms = np.linalg.svd(skew, compute_uv=False)[:, 0] if skew.any() else 0.0
        ok &= ~(norms > half_tols)
        if np.count_nonzero(ok):
            ok &= ~(np.linalg.eigvalsh(half + half_h)[:, 0] < -tols)
    return ok


def polar(x: Element) -> tuple[Element, Element]:
    """x = u p with u unitary and p = |x| positive invertible.

    Route: SVD per block, x = V S W*, u = V W*, p = W S W*.
    """
    _require_invertible(x)
    us, ps = [], []
    for b in x.blocks:
        v, s, wt = np.linalg.svd(b)  # the vectors make u and p
        us.append(v @ wt)
        ps.append(_herm(wt.conj().T @ (s[:, None] * wt)))
    return Element(x.algebra, tuple(us)), Element(x.algebra, tuple(ps))


# ---------------------------------------------------------------------------
# exp and log


def _expm_herm(h: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(h)
    return (q * np.exp(w)) @ q.conj().T


def _is_herm(m, rtol=1e-13):
    scale_ = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    return float(np.abs(m - m.conj().T).max()) <= rtol * scale_


def exp_element(h: Element) -> Element:
    """Blockwise matrix exponential.

    Hermitian blocks go through the eigendecomposition (keeps the result
    exactly self-adjoint); general blocks use the Pade route.
    """
    out = []
    for b in h.blocks:
        if _is_herm(b):
            out.append(_expm_herm(_herm(b)))
        else:
            out.append(scipy.linalg.expm(b))
    return Element(h.algebra, tuple(out))


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
        out.append(_herm((q * np.log(w)) @ q.conj().T))
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
    return _herm((q * phases) @ q.conj().T)


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
