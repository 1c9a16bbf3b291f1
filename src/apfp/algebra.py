"""Block-matrix *-algebra core.

Elements of A = M_{n_1}(C) + ... + M_{n_k}(C) (direct sum) are tuples of
complex matrices.  This module supplies the arithmetic, the C*-norm,
positivity and polar decomposition, exp/log, the universal trace into
A/[A,A]-closure and the quotient norm on that space.

All operations are pure; Element arrays are frozen on construction, so
an element is immutable and can be shared between computations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .errors import (
    BranchCut,
    DescriptorMismatch,
    NotPositive,
    SingularInput,
)

DEFAULT_BRANCH_GAP = 1e-6
SINGULARITY_RTOL = 1e-12
POSITIVITY_RTOL = 1e-12


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

    # arithmetic sugar; the named module functions below are the real API
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1.0, other))

    def __neg__(self):
        return scale(-1.0, self)

    def __matmul__(self, other):
        return mul(self, other)

    def __rmul__(self, lam):
        return scale(lam, self)

    def map_blocks(self, fn) -> "Element":
        return Element(self.algebra, tuple(fn(b) for b in self.blocks))


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


def _same_algebra(x, y):
    if x.algebra != y.algebra:
        raise DescriptorMismatch(f"{x.algebra} != {y.algebra}")


# ---------------------------------------------------------------------------
# arithmetic


def adjoint(x: Element) -> Element:
    return x.map_blocks(lambda b: b.conj().T)


def mul(x: Element, y: Element) -> Element:
    _same_algebra(x, y)
    return Element(x.algebra, tuple(a @ b for a, b in zip(x.blocks, y.blocks)))


def add(x: Element, y: Element) -> Element:
    _same_algebra(x, y)
    return Element(x.algebra, tuple(a + b for a, b in zip(x.blocks, y.blocks)))


def scale(lam: complex, x: Element) -> Element:
    return x.map_blocks(lambda b: lam * b)


def commutator(x: Element, y: Element) -> Element:
    """xy - yx."""
    _same_algebra(x, y)
    return Element(
        x.algebra, tuple(a @ b - b @ a for a, b in zip(x.blocks, y.blocks))
    )


def inverse(x: Element) -> Element:
    """Blockwise inverse; SingularInput below the degeneracy threshold."""
    thresh = SINGULARITY_RTOL * op_norm(x)
    out = []
    for b in x.blocks:
        smin = np.linalg.svd(b, compute_uv=False)[-1]
        if smin <= thresh:
            raise SingularInput(f"smallest singular value {smin:.3e} <= {thresh:.3e}")
        out.append(np.linalg.inv(b))
    return Element(x.algebra, tuple(out))


# ---------------------------------------------------------------------------
# norms and positivity


def op_norm(x: Element) -> float:
    """Largest singular value over all blocks (the C*-norm)."""
    return max(float(np.linalg.svd(b, compute_uv=False)[0]) for b in x.blocks)


# Stacks: k values at once, one (k, n, n) array per block; their
# singular values are one descending (k, n) array per block.


def _op_norms(svals) -> np.ndarray:
    """op_norm at each point of a stack, from its singular values."""
    return functools.reduce(np.maximum, [s[:, 0] for s in svals])


def _identity_distances(blocks) -> np.ndarray:
    """op_norm(v - 1) at each point v of a stack: one SVD per block."""
    return _op_norms(
        [np.linalg.svd(b - np.eye(b.shape[-1]), compute_uv=False) for b in blocks]
    )


def _unitarity_errors(svals) -> np.ndarray:
    """||v*v - 1|| = max |s^2 - 1| at each point of a stack, from its
    singular values, without forming v*v, which may overflow."""
    return functools.reduce(np.maximum, [np.abs(s**2 - 1).max(axis=-1) for s in svals])


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
    of (v + v*)/2, one batched call each per block, until no point is
    left positive.  Both are formed from v/2 and v*/2, which cannot
    overflow: the defect is compared at half scale."""
    ok = np.ones(len(tols), dtype=bool)
    half_tols = 0.5 * tols
    for b in blocks:
        half = 0.5 * b
        half_h = half.conj().swapaxes(-1, -2)
        half_defect = np.linalg.svd(half - half_h, compute_uv=False)[:, 0]
        lowest = np.linalg.eigvalsh(half + half_h)[:, 0]
        ok &= ~(half_defect > half_tols) & ~(lowest < -tols)
        if not np.count_nonzero(ok):
            break
    return ok


def polar(x: Element) -> tuple[Element, Element]:
    """x = u p with u unitary and p = |x| positive invertible.

    Route: SVD per block, x = V S W*, u = V W*, p = W S W*.
    """
    thresh = SINGULARITY_RTOL * op_norm(x)
    us, ps = [], []
    for b in x.blocks:
        v, s, wt = np.linalg.svd(b)
        if s[-1] <= thresh:
            raise SingularInput(
                f"polar: smallest singular value {s[-1]:.3e} <= {thresh:.3e}"
            )
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
            out.append(sla.expm(b))
    return Element(h.algebra, tuple(out))


def log_positive(a: Element) -> Element:
    """Self-adjoint c with e^c = a, for positive invertible a."""
    norm = op_norm(a)
    tol = POSITIVITY_RTOL * norm
    if not is_positive(a, tol=max(tol, 1e-10 * max(norm, 1.0))):
        raise NotPositive("log_positive needs a positive element")
    floor = SINGULARITY_RTOL * norm
    out = []
    for b in a.blocks:
        w, q = np.linalg.eigh(_herm(b))
        if w[0] <= floor:
            raise NotPositive(
                f"log_positive needs an invertible element (eigenvalue {w[0]:.3e})"
            )
        out.append(_herm((q * np.log(w)) @ q.conj().T))
    return Element(a.algebra, tuple(out))


def _log_unitary_block(u: np.ndarray, branch_gap: float) -> np.ndarray:
    """Principal log of a unitary block: self-adjoint h, e^{ih} = u,
    eigenvalue phases inside (-pi, pi).  Uses the complex Schur form,
    which is diagonal for unitary input."""
    t, q = sla.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    if np.any(np.abs(phases) >= np.pi - branch_gap):
        raise BranchCut(
            f"eigenvalue phase within {branch_gap:.1e} of the cut at -1"
        )
    return _herm((q * phases) @ q.conj().T)


def log_unitary_principal(u: Element, branch_gap: float = DEFAULT_BRANCH_GAP) -> Element:
    """Self-adjoint h with e^{ih} = u and spectrum in (-pi, pi).

    BranchCut if any eigenvalue phase comes within branch_gap of -1.
    """
    return Element(
        u.algebra, tuple(_log_unitary_block(b, branch_gap) for b in u.blocks)
    )


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


def project_traceless(x: Element) -> Element:
    """Nearest point of [A,A]-closure: subtract the normalized block trace."""
    out = []
    for b, n in zip(x.blocks, x.algebra.block_sizes):
        out.append(b - (np.trace(b) / n) * np.eye(n))
    return Element(x.algebra, tuple(out))
