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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy  # scipy.linalg loads on its first use, not at import

from .algebra import (
    LOOP_ENDPOINT_TOL,
    AffFunction,
    AlgebraDescriptor,
    Element,
    TraceValue,
    _binary_exponent,
    _exp_mode,
    _exp_values,
    _expm,
    _herm,
    _identity_at,
    _identity_distances,
    _require_invertible,
    _singular_at,
    _spectral,
    _symmetry,
    _unitarity_defects,
)
from .errors import (
    DescriptorMismatch,
    NonFiniteValue,
    NotALoop,
    NotUnitaryPath,
    OutOfDomain,
    SingularValueOnPath,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# path kinds
#
# Internal protocol: _values(ts) evaluates the path at a 1-d array of
# parameters, one (len(ts), n, n) stack per block, and is the one route
# to a path's values.  _det() returns the determinant as a complex
# vector with one coordinate per block.


class InvertiblePath:
    """Base class; use the concrete kinds below."""

    algebra: AlgebraDescriptor
    domain: tuple[float, float]

    def _values(self, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _det(self) -> np.ndarray:
        raise NotImplementedError


def _traces(blocks) -> np.ndarray:
    return np.array([np.trace(b) for b in blocks], dtype=complex)


def _empty(algebra, k):
    return tuple(np.empty((k, n, n), dtype=complex) for n in algebra.block_sizes)


@dataclass(frozen=True)
class PathValues:
    """A path's values at some parameters, one (k, n, n) stack per
    block, and their singular values, one descending (k, n) stack per
    block."""

    blocks: tuple[np.ndarray, ...]
    svals: tuple[np.ndarray, ...]


def evaluate_many(path: InvertiblePath, ts) -> PathValues:
    """Evaluate the path at the parameters ts, one stack per block,
    checking the domain, then finiteness and invertibility at each t in
    order, so an error names the first t that fails."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    t1, t2 = path.domain
    outside = ~((min(t1, t2) - 1e-12 <= ts) & (ts <= max(t1, t2) + 1e-12))
    if outside.any():
        raise OutOfDomain(f"t={float(ts[outside.argmax()])} outside [{t1}, {t2}]")
    failed = [None] * len(ts)  # None, or why the value at ts[i] failed
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is a failure, not a warning
        try:
            blocks = path._values(ts)
        except ValueError:  # a non-finite input, or LinAlgError, at some t
            blocks = _empty(path.algebra, len(ts))
            for i in range(len(ts)):
                try:
                    for b, v in zip(blocks, path._values(ts[i : i + 1])):
                        b[i] = v[0]
                except ValueError as exc:
                    failed[i] = str(exc)
    finite = np.all([np.isfinite(b).all(axis=(1, 2)) for b in blocks], axis=0)
    if not finite.all():  # a failed value reads as zero in the SVD
        failed = [f or (None if ok else "non-finite entry in element") for f, ok in zip(failed, finite)]
        blocks = tuple(np.where(finite[:, None, None], b, 0) for b in blocks)
    # one SVD per block stack gives op_norm and the smallest singular values
    svals = tuple(np.linalg.svd(b, compute_uv=False) for b in blocks)
    singular = _singular_at(svals)
    if singular.any() or any(failed):
        i = next(i for i, f in enumerate(failed) if f or singular[i])
        if failed[i]:
            raise NonFiniteValue(f"path value at t={float(ts[i])}: {failed[i]}")
        raise SingularValueOnPath(f"singular value at t={float(ts[i])}")
    return PathValues(blocks, svals)


def _unitary_blocks(ts, got: PathValues) -> tuple[np.ndarray, ...]:
    """got.blocks when each value evaluate_many read at ts is unitary
    (algebra._unitarity_defects), else NotUnitaryPath at the first t that is not."""
    defects = _unitarity_defects(got.svals)
    if defects.any():
        i = int((defects > 0).argmax())
        raise NotUnitaryPath(f"value at t={float(ts[i])} is not unitary ({defects[i]:.3e})")
    return got.blocks


def evaluate(path: InvertiblePath, t: float) -> Element:
    """Evaluate the path at one t, checking the domain, finiteness and
    invertibility: evaluate_many at [t]."""
    return Element(path.algebra, tuple(b[0] for b in evaluate_many(path, [t]).blocks))


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
        return tuple(_exp_mode(b) for b in self.c.blocks)

    def _values(self, ts):
        return tuple(_exp_values(b, mode, ts) for b, mode in zip(self.c.blocks, self._modes))

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
        if any(_symmetry(b, rtol=1e-10) != "h" for b in (*self.c.blocks, *self.d.blocks)):
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

    def _values(self, ts):
        # the polar factor of g = V S W* is V W*, from the SVD of g itself:
        # forming (g*g)^{-1/2} would square the condition number of g
        out = []
        for (wc, qc), (wd, qd) in self._eigs:
            g = _spectral(qc, np.exp(ts[:, None] * wc)) @ _spectral(qd, np.exp(ts[:, None] * wd))
            v, _, wh = np.linalg.svd(g)
            out.append(v @ wh)
        return tuple(out)

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
        object.__setattr__(self, "samples", samples)
        singular = _singular_at([np.linalg.svd(s, compute_uv=False) for s in self._stacks])
        if singular.any():
            raise SingularValueOnPath(f"singular sample at t={ts[singular.argmax()]}")
        # ||a_j^{-1} a_{j+1} - 1|| for every step the path reads
        steps = _identity_distances(self._steps)
        far = steps >= 0.5
        if far.any():
            raise ValueError(f"consecutive samples too far apart (step {steps[far.argmax()]:.3f} >= 1/2)")

    @property
    def algebra(self):
        return self.samples[0][1].algebra

    @property
    def domain(self):
        return (self.samples[0][0], self.samples[-1][0])

    @cached_property
    def _times(self):
        return np.array([t for t, _ in self.samples])

    @cached_property
    def _stacks(self):
        """The samples, one (N, n, n) stack per block."""
        return tuple(np.array(bs) for bs in zip(*(v.blocks for _, v in self.samples)))

    @cached_property
    def _steps(self):
        """a_j^{-1} a_{j+1}, one (N - 1, n, n) stack per block."""
        return tuple(np.linalg.solve(s[:-1], s[1:]) for s in self._stacks)

    @cached_property
    def _seg_logs(self):
        try:
            return tuple(np.array([scipy.linalg.logm(g) for g in steps]) for steps in self._steps)
        except Exception as exc:
            if type(exc) is not Exception:
                raise
            # logm raises a bare Exception when a nan reaches its triangular
            # factor, as on a step whose eigenvalues differ by a subnormal
            # amount; evaluate_many reports a ValueError at the t that read it
            raise ValueError(f"the logarithm of a step failed: {exc}") from exc

    def _values(self, ts):
        times = self._times
        j = np.searchsorted(times, ts)
        at = np.minimum(j, len(times) - 1)
        # a sample time gives its sample: no logarithm runs for it
        hit = times[at] == ts
        seg = np.where(hit, -1, np.clip(j - 1, 0, len(times) - 2))
        out = _empty(self.algebra, len(ts))
        for o, s in zip(out, self._stacks):
            o[hit] = s[at[hit]]
        for k in np.unique(seg[~hit]):
            mask = seg == k
            s = (ts[mask] - times[k]) / (times[k + 1] - times[k])
            for o, a, logs in zip(out, self._stacks, self._seg_logs):
                o[mask] = a[k] @ _expm(s[:, None, None] * logs[k])
        return out

    def _det(self):
        # T(L_j) = sum_k log lambda_k(a_j^{-1} a_{j+1}): the eigenvalues of
        # logm(g) are the principal logs of those of g, none of which lies
        # on (-inf, 0] since |lambda - 1| <= ||g - 1|| < 1/2; summed over
        # the segments in order
        per_block = [np.log(np.linalg.eigvals(g)).sum(axis=-1) for g in self._steps]
        return sum(np.stack(per_block, axis=1))


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

    def _values(self, ts):
        return tuple(a @ b for a, b in zip(self.first._values(ts), self.second._values(ts)))

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
        if not math.isfinite(self.domain[1]):
            raise ValueError(f"concatenation domain {self.domain} is not finite")

    @property
    def algebra(self):
        return self.first.algebra

    @property
    def domain(self):
        a, b = self.first.domain
        c, d = self.second.domain
        return (a, b + (d - c))

    def _values(self, ts):
        joint = self.first.domain[1]
        before = ts < joint
        after = ~before
        out = _empty(self.algebra, len(ts))
        pieces = (
            (before, self.first, ts[before]),
            (after, self.second, self.second.domain[0] + (ts[after] - joint)),
        )
        for mask, part, at in pieces:
            if mask.any():
                for o, v in zip(out, part._values(at)):
                    o[mask] = v
        return out

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

    def _values(self, ts):
        t1, t2 = self.inner.domain
        return self.inner._values(t1 + t2 - ts)

    def _det(self):
        return -self.inner._det()


def path_determinant(path: InvertiblePath) -> TraceValue:
    """The integral of T(a'(t) a(t)^{-1}) dt along the path, in the
    closed form of its kind.  NonFiniteValue when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is a failure, not a warning
        det = path._det()
    if not np.isfinite(det).all():
        raise NonFiniteValue("path determinant is not finite")
    return TraceValue(path.algebra, tuple(det))


# ---------------------------------------------------------------------------
# the lattice quotient


def lattice_reduce(v: TraceValue) -> TraceValue:
    """The canonical representative of v modulo 2 pi i Z^k: imaginary
    parts in [0, TWO_PI)."""
    coords = []
    for c in v.coords:
        y = c.imag - TWO_PI * np.floor(c.imag / TWO_PI)
        if not 0.0 <= y < TWO_PI:  # the quotient rounded across an integer
            y %= TWO_PI  # a tiny negative y rounds up to TWO_PI here
            y = 0.0 if y == TWO_PI else y
        coords.append(complex(c.real, y))
    return TraceValue(v.algebra, tuple(coords))


def lattice_distance(v: TraceValue) -> float:
    """Max-norm distance from v to the lattice 2 pi i Z^k."""
    return max(
        abs(c - 2j * np.pi * np.round(c.imag / TWO_PI)) for c in v.coords
    )


def log_det(x: Element) -> TraceValue:
    """Blockwise log det x_i, imaginary parts in (-pi, pi].

    By Jacobi's formula T(a'a^{-1}) = (log det a)', so this is the
    determinant of every path of invertibles from 1 to x, modulo the
    lattice.  SingularInput when x is singular (algebra._singular).
    """
    _require_invertible(x)
    return TraceValue(x.algebra, x._once(_block_log_dets))


def _block_log_dets(x: Element) -> tuple[complex, ...]:
    """log det x_i, imaginary part in (-pi, pi], one slogdet per block kept
    through x._once; untested for invertibility, a singular LU reads -inf.
    Where that slogdet overflows (a sign that is not finite, or log |det|
    +inf or NaN), the block is read at the exact scale b * 2.0**-e of
    algebra._binary_exponent, and log |det| gains n e log 2."""
    out = []
    for b in x.blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            sign, logabs = np.linalg.slogdet(b)
        if not (np.isfinite(sign) and logabs < np.inf):
            e = _binary_exponent(b)
            sign, logabs = np.linalg.slogdet(b * 2.0**-e)
            logabs += len(b) * e * np.log(2.0)
        out.append(complex(logabs, np.angle(sign)))
    return tuple(out)


def determinant_mod_lattice(x: Element) -> TraceValue:
    """Determinant of an element modulo 2 pi i Z^k: blockwise log det,
    reduced by lattice_reduce."""
    return lattice_reduce(log_det(x))


def delta_1_0(loop: InvertiblePath, endpoint_tol: float = LOOP_ENDPOINT_TOL) -> AffFunction:
    """The loop invariant: h = Delta/(2 pi i) read as an affine function
    on the trace simplex, value h_i / n_i at the i-th extreme trace.

    The loop is checked first, on evaluate_many at 17 equally spaced
    points: a finite invertible value at each point in order, then
    identity endpoints, then a unitary value at each point in order."""
    t1, t2 = loop.domain
    ts = np.linspace(t1, t2, 17)
    got = evaluate_many(loop, ts)
    ends = [b[[0, -1]] for b in got.blocks]
    if not _identity_at(ends, endpoint_tol):
        t = t2 if _identity_at([e[:1] for e in ends], endpoint_tol) else t1
        raise NotALoop(f"endpoint at t={t} is not the identity")
    _unitary_blocks(ts, got)
    h = [complex(c) / (2j * np.pi) for c in loop._det()]
    return AffFunction(tuple(c.real / n for c, n in zip(h, loop.algebra.block_sizes)))
