"""Paths of invertibles and the de la Harpe-Skandalis determinant.

The determinant of a smooth path a(t) of invertibles is the integral of
T(a'(t) a(t)^{-1}) over the parameter interval, where T is the universal
trace.  On elements (rather than paths) it is well defined modulo the
lattice 2 pi i T(K0(A)), which for a block algebra with k blocks is
exactly 2 pi i Z^k.  There it has a closed form: by Jacobi's formula
T(a'a^{-1}) = (log det a)', so the determinant of an element x is
blockwise log det x_i modulo 2 pi i Z^k, with no path to integrate.

Path kinds carry exact logarithmic derivatives where a closed form
exists; sampled paths interpolate geodesically and differentiate the
interpolant by fourth-order finite differences.  Quadrature is composite
Simpson with step doubling until two successive refinements agree.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .algebra import (
    AlgebraDescriptor,
    Element,
    TraceValue,
    _herm,
    _is_herm,
    op_norm,
    SINGULARITY_RTOL,
)
from .checker import AffFunction
from .errors import (
    NoConvergence,
    NotALoop,
    NotUnitaryPath,
    OutOfDomain,
    SingularInput,
    SingularValueOnPath,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class QuadratureConfig:
    steps: int = 256
    tol: float = 1e-9
    max_steps: int = 2 ** 20

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("quad.steps must be >= 2")


def _worker_count() -> int:
    raw = os.environ.get("APFP_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# path kinds
#
# Internal protocol: _value(t, side) evaluates the path, _dlog(t, side)
# returns the matrix a'(t) a(t)^{-1} as an Element.  `side` (+1 or -1)
# picks the right or left one-sided branch when t sits on an interior
# breakpoint; away from breakpoints it is irrelevant.


class InvertiblePath:
    """Base class; use the concrete kinds below."""

    algebra: AlgebraDescriptor
    domain: tuple[float, float]

    def breakpoints(self) -> tuple[float, ...]:
        """Interior parameters where the derivative may jump."""
        return ()

    def _value(self, t: float, side: int = 1) -> Element:
        raise NotImplementedError

    def _dlog(self, t: float, side: int = 1) -> Element:
        raise NotImplementedError


def _check_domain(path, t):
    t1, t2 = path.domain
    if not (min(t1, t2) - 1e-12 <= t <= max(t1, t2) + 1e-12):
        raise OutOfDomain(f"t={t} outside [{t1}, {t2}]")


def evaluate(path: InvertiblePath, t: float) -> Element:
    """Evaluate the path, checking the domain and invertibility."""
    _check_domain(path, t)
    val = evaluate_unchecked(path, t)
    thresh = SINGULARITY_RTOL * op_norm(val)
    for b in val.blocks:
        if np.linalg.svd(b, compute_uv=False)[-1] <= thresh:
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

    def _value(self, t, side=1):
        out = []
        for b, (kind, w, q) in zip(self.c.blocks, self._modes):
            if kind == "h":
                out.append((q * np.exp(t * w)) @ q.conj().T)
            elif kind == "s":
                out.append((q * np.exp(1j * t * w)) @ q.conj().T)
            else:
                out.append(sla.expm(t * b))
        return Element(self.algebra, tuple(out))

    def _dlog(self, t, side=1):
        # a'(t) a(t)^{-1} = c, exactly, for every generator
        return self.c


def _sqrt_and_derivative(m, mp):
    """Given m = a*a positive definite and its derivative mp, return
    (s, sp, s_inv) for s = sqrt(m) by solving X s + s X = mp in the
    eigenbasis of m."""
    w, q = np.linalg.eigh(_herm(m))
    sq = np.sqrt(w)
    x = (q.conj().T @ mp @ q) / np.add.outer(sq, sq)
    sp = q @ x @ q.conj().T
    s = (q * sq) @ q.conj().T
    s_inv = (q * (1.0 / sq)) @ q.conj().T
    return s, sp, s_inv


@dataclass(frozen=True)
class ProductPolar(InvertiblePath):
    """The unitary path t -> e^{tc} e^{td} |e^{tc} e^{td}|^{-1} on [0,1]."""

    c: Element
    d: Element
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
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

    def _block_data(self, t, i):
        (wc, qc), (wd, qd) = self._eigs[i]
        ec = (qc * np.exp(t * wc)) @ qc.conj().T
        ed = (qd * np.exp(t * wd)) @ qd.conj().T
        g = ec @ ed
        gp = self.c.blocks[i] @ g + ec @ self.d.blocks[i] @ ed
        return g, gp

    def _value(self, t, side=1):
        out = []
        for i in range(self.algebra.rank):
            g, _ = self._block_data(t, i)
            m = g.conj().T @ g
            w, q = np.linalg.eigh(_herm(m))
            out.append(g @ ((q * (w ** -0.5)) @ q.conj().T))
        return Element(self.algebra, tuple(out))

    def _dlog(self, t, side=1):
        # u = g s^{-1} with s = sqrt(g* g); u' = (g' - u s') s^{-1};
        # then u' u^{-1} = u' u* since u is unitary
        out = []
        for i in range(self.algebra.rank):
            g, gp = self._block_data(t, i)
            m = g.conj().T @ g
            mp = gp.conj().T @ g + g.conj().T @ gp
            _, sp, s_inv = _sqrt_and_derivative(m, mp)
            u = g @ s_inv
            up = (gp - u @ sp) @ s_inv
            out.append(up @ u.conj().T)
        return Element(self.algebra, tuple(out))


_FD_STEP = Fraction(1, 32)  # in segment units; error ~ (|L|/32)^4 per node


@dataclass(frozen=True)
class Sampled(InvertiblePath):
    """Uniformly dense samples (t_j, a_j), interpolated geodesically:
    a(t) = a_j exp(s L_j) with s = (t - t_j)/(t_{j+1} - t_j) and
    L_j = log(a_j^{-1} a_{j+1})."""

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

    def breakpoints(self):
        return tuple(t for t, _ in self.samples[1:-1])

    @cached_property
    def _seg_logs(self):
        logs = []
        for (_, a), (_, b) in zip(self.samples, self.samples[1:]):
            logs.append(
                tuple(
                    sla.logm(np.linalg.solve(ab, bb))
                    for ab, bb in zip(a.blocks, b.blocks)
                )
            )
        return logs

    def _segment(self, t, side):
        ts = [tt for tt, _ in self.samples]
        j = int(np.searchsorted(ts, t, side="right")) - 1
        j = max(0, min(j, len(ts) - 2))
        if side < 0 and j > 0 and t <= ts[j] + 1e-15:
            j -= 1
        return j

    def _seg_value(self, j, s):
        _, a = self.samples[j]
        return tuple(
            ab @ sla.expm(s * lb) for ab, lb in zip(a.blocks, self._seg_logs[j])
        )

    def _value(self, t, side=1):
        j = self._segment(t, side)
        t0, t1 = self.samples[j][0], self.samples[j + 1][0]
        s = (t - t0) / (t1 - t0)
        return Element(self.algebra, self._seg_value(j, s))

    def _dlog(self, t, side=1):
        # fourth-order central stencil on the segment's own smooth
        # extension; kinks at sample points never enter the stencil
        j = self._segment(t, side)
        t0, t1 = self.samples[j][0], self.samples[j + 1][0]
        dt = t1 - t0
        s = (t - t0) / dt
        h = float(_FD_STEP)
        f = {k: self._seg_value(j, s + k * h) for k in (-2, -1, 1, 2)}
        val = self._seg_value(j, s)
        out = []
        for i in range(self.algebra.rank):
            dfds = (-f[2][i] + 8 * f[1][i] - 8 * f[-1][i] + f[-2][i]) / (12 * h)
            out.append((dfds / dt) @ np.linalg.inv(val[i]))
        return Element(self.algebra, tuple(out))


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

    def breakpoints(self):
        return tuple(sorted(set(self.first.breakpoints()) | set(self.second.breakpoints())))

    def _value(self, t, side=1):
        a = self.first._value(t, side)
        b = self.second._value(t, side)
        return Element(self.algebra, tuple(x @ y for x, y in zip(a.blocks, b.blocks)))

    def _dlog(self, t, side=1):
        # (ab)'(ab)^{-1} = a'a^{-1} + a (b'b^{-1}) a^{-1}
        a = self.first._value(t, side)
        da = self.first._dlog(t, side)
        db = self.second._dlog(t, side)
        out = []
        for ab, dab, dbb in zip(a.blocks, da.blocks, db.blocks):
            out.append(dab + (ab @ dbb) @ np.linalg.inv(ab))
        return Element(self.algebra, tuple(out))


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

    def _joint(self):
        return self.first.domain[1]

    def breakpoints(self):
        joint = self._joint()
        shift = joint - self.second.domain[0]
        pts = list(self.first.breakpoints()) + [joint]
        pts += [t + shift for t in self.second.breakpoints()]
        return tuple(sorted(set(pts)))

    def _dispatch(self, t, side):
        joint = self._joint()
        if t < joint or (t == joint and side < 0):
            return self.first, t
        return self.second, self.second.domain[0] + (t - joint)

    def _value(self, t, side=1):
        path, s = self._dispatch(t, side)
        return path._value(s, side)

    def _dlog(self, t, side=1):
        path, s = self._dispatch(t, side)
        return path._dlog(s, side)


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

    def _mirror(self, t):
        t1, t2 = self.inner.domain
        return t1 + t2 - t

    def breakpoints(self):
        return tuple(sorted(self._mirror(t) for t in self.inner.breakpoints()))

    def _value(self, t, side=1):
        return self.inner._value(self._mirror(t), -side)

    def _dlog(self, t, side=1):
        d = self.inner._dlog(self._mirror(t), -side)
        return Element(d.algebra, tuple(-b for b in d.blocks))


# ---------------------------------------------------------------------------
# quadrature


def _simpson_sum(values, width):
    # composite Simpson over n panels; values has n+1 rows
    n = len(values) - 1
    arr = np.stack(values)
    total = arr[0] + arr[-1] + 4.0 * arr[1:-1:2].sum(axis=0) + 2.0 * arr[2:-2:2].sum(axis=0)
    return total * (width / (3.0 * n))


def _integrate_interval(fn, a, b, n0, tol, nmax):
    """Adaptive composite Simpson with node reuse across doublings."""
    cache: dict[Fraction, np.ndarray] = {}

    def node(frac):
        got = cache.get(frac)
        if got is None:
            got = cache[frac] = fn(a + (b - a) * float(frac))
        return got

    n = max(2, n0 + (n0 % 2))
    prev = _simpson_sum([node(Fraction(i, n)) for i in range(n + 1)], b - a)
    while True:
        n *= 2
        cur = _simpson_sum([node(Fraction(i, n)) for i in range(n + 1)], b - a)
        if float(np.max(np.abs(cur - prev))) <= tol:
            return cur
        if n >= nmax:
            raise NoConvergence(
                f"quadrature on [{a}, {b}] still moving by "
                f"{float(np.max(np.abs(cur - prev))):.3e} at {n} panels"
            )
        prev = cur


def path_determinant(path: InvertiblePath, quad: QuadratureConfig | None = None) -> TraceValue:
    """The integral of T(a'(t) a(t)^{-1}) dt along the path."""
    quad = quad or QuadratureConfig()
    t1, t2 = path.domain
    cuts = [t1] + [t for t in path.breakpoints() if t1 < t < t2] + [t2]
    intervals = list(zip(cuts, cuts[1:]))
    k = path.algebra.rank
    if t1 == t2:
        return TraceValue(path.algebra, (0.0,) * k)
    per_tol = quad.tol / len(intervals)
    n0 = max(2, quad.steps // len(intervals))

    def run(ab):
        a, b = ab

        def integrand(t):
            side = -1 if t == b else 1
            d = path._dlog(t, side)
            return np.array([np.trace(blk) for blk in d.blocks])

        return _integrate_interval(integrand, a, b, n0, per_tol, quad.max_steps)

    workers = _worker_count()
    if workers > 1 and len(intervals) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, intervals))
    else:
        parts = [run(ab) for ab in intervals]
    total = np.zeros(k, dtype=complex)
    for p in parts:  # fixed interval order keeps the sum bit-stable
        total = total + p
    return TraceValue(path.algebra, tuple(total))


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
        coords.append(complex(logabs, np.angle(sign)))
    return TraceValue(x.algebra, tuple(coords))


def determinant_mod_lattice(x: Element) -> LatticeQuotientValue:
    """Determinant of an element modulo 2 pi i Z^k: blockwise log det."""
    return lattice_reduce(log_det(x))


def delta_1_0(
    loop: InvertiblePath,
    quad: QuadratureConfig | None = None,
    endpoint_tol: float = 1e-8,
    det: TraceValue | None = None,
) -> AffFunction:
    """The loop invariant: h = Delta/(2 pi i) read as an affine function
    on the trace simplex, value h_i / n_i at the i-th extreme trace.

    The loop is checked first (identity endpoints, unitary at 17 points).
    det, when given, is path_determinant(loop) already computed, and the
    loop is not integrated again."""
    t1, t2 = loop.domain
    ident = loop.algebra.identity()
    for t in (t1, t2):
        if op_norm(loop._value(t) - ident) > endpoint_tol:
            raise NotALoop(f"endpoint at t={t} is not the identity")
    for t in np.linspace(t1, t2, 17):
        v = loop._value(float(t))
        err = max(
            np.linalg.norm(b.conj().T @ b - np.eye(len(b)), 2) for b in v.blocks
        )
        if err > 1e-8:
            raise NotUnitaryPath(f"value at t={t} is not unitary ({err:.3e})")
    if det is None:
        det = path_determinant(loop, quad)
    h = [c / (2j * np.pi) for c in det.coords]
    values = tuple(
        c.real / n for c, n in zip(h, loop.algebra.block_sizes)
    )
    return AffFunction(values)
