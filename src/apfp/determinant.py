"""Paths of invertibles and the de la Harpe-Skandalis determinant.

The determinant of a smooth path a(t) of invertibles is the integral of
T(a'(t) a(t)^{-1}) over the parameter interval, where T is the universal
trace.  In a block algebra Jacobi's formula T(a'a^{-1}) = (log det a)'
makes it the change of blockwise log det along the path, and each path
kind has that change in closed form:

- ExpLine, t -> e^{tc} on [t1, t2]: (t2 - t1) T(c);
- ProductPolar: 0, because every value has determinant one;
- Sampled: sum_j T(L_j) over its geodesic segments a_j e^{s L_j};
- PointwiseProduct and Concatenation: the sum over the two parts;
- Reversal: the negative of the inner path.

On elements (rather than paths) the determinant is well defined modulo
the lattice 2 pi i T(K0(A)), which for a block algebra with k blocks is
exactly 2 pi i Z^k: the determinant of an element x is blockwise
log det x_i modulo 2 pi i Z^k, with no path at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .algebra import (
    AlgebraDescriptor,
    Element,
    TraceValue,
    _herm,
    _is_herm,
    _unitarity_error,
    op_norm,
    SINGULARITY_RTOL,
)
from .checker import AffFunction
from .errors import (
    DescriptorMismatch,
    NonFiniteValue,
    NotALoop,
    NotUnitaryPath,
    OutOfDomain,
    SingularInput,
    SingularValueOnPath,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# path kinds
#
# Internal protocol: _value(t) evaluates the path; _det() returns its
# determinant as a complex vector with one coordinate per block.


class InvertiblePath:
    """Base class; use the concrete kinds below."""

    algebra: AlgebraDescriptor
    domain: tuple[float, float]

    def _value(self, t: float) -> Element:
        raise NotImplementedError

    def _det(self) -> np.ndarray:
        raise NotImplementedError


def _traces(blocks) -> np.ndarray:
    return np.array([np.trace(b) for b in blocks], dtype=complex)


def _check_domain(path, t):
    t1, t2 = path.domain
    if not (min(t1, t2) - 1e-12 <= t <= max(t1, t2) + 1e-12):
        raise OutOfDomain(f"t={t} outside [{t1}, {t2}]")


def evaluate(path: InvertiblePath, t: float) -> Element:
    """Evaluate the path, checking the domain, finiteness and
    invertibility."""
    try:
        val = evaluate_unchecked(path, t)
    except ValueError as exc:  # a non-finite entry, or LinAlgError on one
        raise NonFiniteValue(f"path value at t={t}: {exc}") from exc
    # one SVD per block gives op_norm(val) and the smallest singular values
    svals = [np.linalg.svd(b, compute_uv=False) for b in val.blocks]
    thresh = SINGULARITY_RTOL * max(float(s[0]) for s in svals)
    if any(s[-1] <= thresh for s in svals):
        raise SingularValueOnPath(f"singular value at t={t}")
    return val


def evaluate_unchecked(path: InvertiblePath, t: float) -> Element:
    _check_domain(path, t)
    return path._value(t)


@dataclass(frozen=True)
class ExpLine(InvertiblePath):
    """t -> e^{tc} for a fixed element c (self-adjoint or general)."""

    c: Element
    domain: tuple[float, float] = (0.0, 1.0)

    @property
    def algebra(self):
        return self.c.algebra

    @cached_property
    def _modes(self):
        # hermitian and skew-hermitian generators exponentiate through a
        # single eigendecomposition; anything else falls back to expm
        modes = []
        for b in self.c.blocks:
            if _is_herm(b):
                w, q = np.linalg.eigh(_herm(b))
                modes.append(("h", w, q))
            elif _is_herm(-1j * b):
                w, q = np.linalg.eigh(_herm(-1j * b))
                modes.append(("s", w, q))
            else:
                modes.append(("g", None, None))
        return modes

    def _value(self, t):
        out = []
        for b, (kind, w, q) in zip(self.c.blocks, self._modes):
            if kind == "h":
                out.append((q * np.exp(t * w)) @ q.conj().T)
            elif kind == "s":
                out.append((q * np.exp(1j * t * w)) @ q.conj().T)
            else:
                out.append(sla.expm(t * b))
        return Element(self.algebra, tuple(out))

    def _det(self):
        # a'(t) a(t)^{-1} = c for every t
        t1, t2 = self.domain
        return (t2 - t1) * _traces(self.c.blocks)


@dataclass(frozen=True)
class ProductPolar(InvertiblePath):
    """The unitary path t -> e^{tc} e^{td} |e^{tc} e^{td}|^{-1} on [0,1]."""

    c: Element
    d: Element
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.c.algebra != self.d.algebra:
            raise DescriptorMismatch("ProductPolar needs c and d in one algebra")
        for b in (*self.c.blocks, *self.d.blocks):
            if not _is_herm(b, rtol=1e-10):
                raise ValueError("ProductPolar needs self-adjoint c and d")

    @property
    def algebra(self):
        return self.c.algebra

    @cached_property
    def _eigs(self):
        pairs = []
        for cb, db in zip(self.c.blocks, self.d.blocks):
            pairs.append((np.linalg.eigh(_herm(cb)), np.linalg.eigh(_herm(db))))
        return pairs

    def _product(self, t, i):
        (wc, qc), (wd, qd) = self._eigs[i]
        ec = (qc * np.exp(t * wc)) @ qc.conj().T
        ed = (qd * np.exp(t * wd)) @ qd.conj().T
        return ec @ ed

    def _value(self, t):
        # the polar factor of g = V S W* is V W*, from the SVD of g itself:
        # forming (g*g)^{-1/2} would square the condition number of g
        out = []
        for i in range(self.algebra.rank):
            v, _, wh = np.linalg.svd(self._product(t, i))
            out.append(v @ wh)
        return Element(self.algebra, tuple(out))

    def _det(self):
        # det u = det g / |det g| = 1, since det g = e^{t T(c + d)} > 0
        return np.zeros(self.algebra.rank, dtype=complex)


@dataclass(frozen=True)
class Sampled(InvertiblePath):
    """Samples (t_j, a_j), interpolated geodesically:
    a(t) = a_j exp(s L_j) with s = (t - t_j)/(t_{j+1} - t_j) and
    L_j = log(a_j^{-1} a_{j+1}).  On segment j the logarithmic derivative
    is a_j L_j a_j^{-1} / (t_{j+1} - t_j), so the determinant is the sum
    of the T(L_j)."""

    samples: tuple[tuple[float, Element], ...]

    def __post_init__(self):
        samples = tuple((float(t), v) for t, v in self.samples)
        if len(samples) < 2:
            raise ValueError("need at least two samples")
        ts = [t for t, _ in samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("sample parameters must strictly increase")
        alg = samples[0][1].algebra
        for _, v in samples:
            if v.algebra != alg:
                raise ValueError("samples share one algebra")
        for (_, a), (_, b) in zip(samples, samples[1:]):
            step = max(
                np.linalg.norm(bb @ np.linalg.inv(ab) - np.eye(len(ab)), 2)
                for ab, bb in zip(a.blocks, b.blocks)
            )
            if step >= 0.5:
                raise ValueError(
                    f"consecutive samples too far apart (step {step:.3f} >= 1/2)"
                )
        for t, v in samples:
            cut = SINGULARITY_RTOL * op_norm(v)
            for b in v.blocks:
                if np.linalg.svd(b, compute_uv=False)[-1] <= cut:
                    raise SingularValueOnPath(f"singular sample at t={t}")
        object.__setattr__(self, "samples", samples)

    @property
    def algebra(self):
        return self.samples[0][1].algebra

    @property
    def domain(self):
        return (self.samples[0][0], self.samples[-1][0])

    @cached_property
    def _steps(self):
        """a_j^{-1} a_{j+1} per segment and block."""
        return [
            tuple(np.linalg.solve(ab, bb) for ab, bb in zip(a.blocks, b.blocks))
            for (_, a), (_, b) in zip(self.samples, self.samples[1:])
        ]

    @cached_property
    def _seg_logs(self):
        return [tuple(sla.logm(g) for g in steps) for steps in self._steps]

    def _value(self, t):
        ts = [tt for tt, _ in self.samples]
        j = int(np.searchsorted(ts, t))
        if j < len(ts) and ts[j] == t:
            return self.samples[j][1]
        j = max(0, min(j - 1, len(ts) - 2))
        (t0, a), (t1, _) = self.samples[j], self.samples[j + 1]
        s = (t - t0) / (t1 - t0)
        return Element(
            self.algebra,
            tuple(ab @ sla.expm(s * lb) for ab, lb in zip(a.blocks, self._seg_logs[j])),
        )

    def _det(self):
        # T(L_j) = sum_k log lambda_k(a_j^{-1} a_{j+1}): the eigenvalues of
        # logm(g) are the principal logs of those of g, none of which lies
        # on (-inf, 0] since |lambda - 1| <= ||g - 1|| < 1/2
        return sum(
            np.array([np.log(np.linalg.eigvals(g)).sum() for g in steps], dtype=complex)
            for steps in self._steps
        )


@dataclass(frozen=True)
class PointwiseProduct(InvertiblePath):
    """t -> first(t) second(t) on a common domain."""

    first: InvertiblePath
    second: InvertiblePath

    def __post_init__(self):
        if self.first.domain != self.second.domain:
            raise ValueError("pointwise product needs a common domain")
        if self.first.algebra != self.second.algebra:
            raise ValueError("pointwise product needs a common algebra")

    @property
    def algebra(self):
        return self.first.algebra

    @property
    def domain(self):
        return self.first.domain

    def _value(self, t):
        a = self.first._value(t)
        b = self.second._value(t)
        return Element(self.algebra, tuple(x @ y for x, y in zip(a.blocks, b.blocks)))

    def _det(self):
        # T((ab)'(ab)^{-1}) = T(a'a^{-1}) + T(a (b'b^{-1}) a^{-1}) = T(a'a^{-1}) + T(b'b^{-1})
        return self.first._det() + self.second._det()


@dataclass(frozen=True)
class Concatenation(InvertiblePath):
    """first on its own domain, then second with its parameter shifted to
    start where first ends."""

    first: InvertiblePath
    second: InvertiblePath

    def __post_init__(self):
        if self.first.algebra != self.second.algebra:
            raise ValueError("concatenation needs a common algebra")

    @property
    def algebra(self):
        return self.first.algebra

    @property
    def domain(self):
        a, b = self.first.domain
        c, d = self.second.domain
        return (a, b + (d - c))

    def _value(self, t):
        joint = self.first.domain[1]
        if t < joint:
            return self.first._value(t)
        return self.second._value(self.second.domain[0] + (t - joint))

    def _det(self):
        return self.first._det() + self.second._det()


@dataclass(frozen=True)
class Reversal(InvertiblePath):
    """The same track traversed backwards."""

    inner: InvertiblePath

    @property
    def algebra(self):
        return self.inner.algebra

    @property
    def domain(self):
        return self.inner.domain

    def _value(self, t):
        t1, t2 = self.inner.domain
        return self.inner._value(t1 + t2 - t)

    def _det(self):
        return -self.inner._det()


def path_determinant(path: InvertiblePath) -> TraceValue:
    """The integral of T(a'(t) a(t)^{-1}) dt along the path, in the
    closed form of its kind.  NonFiniteValue when it overflows."""
    det = path._det()
    if not np.isfinite(det).all():
        raise NonFiniteValue("path determinant is not finite")
    return TraceValue(path.algebra, tuple(det))


# ---------------------------------------------------------------------------
# the lattice quotient


@dataclass(frozen=True)
class LatticeQuotientValue:
    """A trace value modulo the lattice 2 pi i Z^k, stored through its
    canonical representative (imaginary parts in [0, 2 pi))."""

    representative: TraceValue
    lattice_rank: int

    @property
    def coords(self):
        return self.representative.coords


def lattice_reduce(v: TraceValue) -> LatticeQuotientValue:
    """Canonical representative modulo 2 pi i Z^k."""
    coords = []
    for c in v.coords:
        m = np.floor(c.imag / TWO_PI)
        coords.append(complex(c.real, c.imag - TWO_PI * m))
    return LatticeQuotientValue(TraceValue(v.algebra, tuple(coords)), v.algebra.rank)


def lattice_distance(v: TraceValue) -> float:
    """Max-norm distance from v to the lattice 2 pi i Z^k."""
    return max(
        abs(c - 2j * np.pi * np.round(c.imag / TWO_PI)) for c in v.coords
    )


def log_det(x: Element) -> TraceValue:
    """Blockwise log det x_i, imaginary parts in (-pi, pi].

    By Jacobi's formula T(a'a^{-1}) = (log det a)', so this is the
    determinant of every path of invertibles from 1 to x, modulo the
    lattice.  SingularInput when a block's smallest singular value is at
    or below SINGULARITY_RTOL * op_norm(x), the test polar applies.
    """
    svals = [np.linalg.svd(b, compute_uv=False) for b in x.blocks]
    thresh = SINGULARITY_RTOL * max(float(s[0]) for s in svals)
    coords = []
    for b, s in zip(x.blocks, svals):
        if s[-1] <= thresh:
            raise SingularInput(f"smallest singular value {s[-1]:.3e} <= {thresh:.3e}")
        sign, logabs = np.linalg.slogdet(b)
        if not (np.isfinite(sign) and np.isfinite(logabs)):
            # the LU overflowed: b / s_1 has entries of modulus at most 1
            sign, logabs = np.linalg.slogdet(b / s[0])
            logabs += len(b) * np.log(s[0])
        coords.append(complex(logabs, np.angle(sign)))
    return TraceValue(x.algebra, tuple(coords))


def determinant_mod_lattice(x: Element) -> LatticeQuotientValue:
    """Determinant of an element modulo 2 pi i Z^k: blockwise log det."""
    return lattice_reduce(log_det(x))


def delta_1_0(loop: InvertiblePath, endpoint_tol: float = 1e-8) -> AffFunction:
    """The loop invariant: h = Delta/(2 pi i) read as an affine function
    on the trace simplex, value h_i / n_i at the i-th extreme trace.

    The loop is checked first (identity endpoints, unitary at 17 points)."""
    t1, t2 = loop.domain
    ident = loop.algebra.identity()
    for t in (t1, t2):
        if op_norm(loop._value(t) - ident) > endpoint_tol:
            raise NotALoop(f"endpoint at t={t} is not the identity")
    for t in np.linspace(t1, t2, 17):
        err = _unitarity_error(loop._value(float(t)))
        if err > 1e-8:
            raise NotUnitaryPath(f"value at t={t} is not unitary ({err:.3e})")
    h = [complex(c) / (2j * np.pi) for c in loop._det()]
    return AffFunction(tuple(c.real / n for c, n in zip(h, loop.algebra.block_sizes)))
