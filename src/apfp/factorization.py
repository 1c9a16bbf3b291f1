"""Constructive membership in the closure of products of positives.

A block-invertible x = u|x| lies in the closure of P(A) exactly when
every block of the unitary part has determinant 1 (the closed-form
description of the closed commutator subgroup of the unitaries at block
scale).  As det |x_i| > 0, the test reads the phase of det x_i itself,
the imaginary part of the element determinant log det x_i.  This module
provides the membership test, the witnesses used on
the positive side (the unitary polar path of e^{tc} e^{td}, its
exponential splitting with trace-zero log sums, explicit commutator
factorizations of determinant-one unitaries), exact factorizations of
members into m >= 4 positive factors in closed form, an optimizer that
produces factorizations for every m, and the distance from elements
outside the closure to it, in closed form, with a search only for
products of fewer than four positives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy  # scipy.optimize loads on the first search, not at import
import scipy.linalg as sla

from .algebra import (
    AlgebraDescriptor,
    Element,
    TraceValue,
    _herm,
    _identity_distances,
    _positive_at,
    _same_algebra,
    _unitarity_errors,
    exp_element,
    is_positive,
    log_positive,
    log_unitary_principal,
    mul,
    op_norm,
    polar,
    universal_trace,
)
from .determinant import InvertiblePath, ProductPolar, evaluate_many, log_det
from .errors import (
    APFPError,
    DeterminantNotOne,
    NoConvergence,
    NotInClosure,
    NotPositive,
    NotUnitaryPath,
    PartitionOverflow,
)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-10
    target_residual: float = 1e-6  # relative to op_norm of the target
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        for name in ("gradient_tolerance", "target_residual"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


# ---------------------------------------------------------------------------
# polar paths and exponential splitting


def polar_path(c: Element, d: Element) -> ProductPolar:
    """The unitary-valued path t -> e^{tc} e^{td} |e^{tc} e^{td}|^{-1}."""
    return ProductPolar(c, d)


@dataclass(frozen=True)
class ExponentialSplitting:
    """A partition 0 = t_0 < ... < t_N = 1 with self-adjoint logs h_k of
    the incremental steps, e^{i h_k} = u(t_{k-1})^* u(t_k)."""

    partition: tuple[float, ...]
    logs: tuple[Element, ...]
    endpoint: Element

    def reconstruct(self) -> Element:
        out = self.endpoint.algebra.identity()
        for h in self.logs:
            out = mul(out, exp_element(1j * h))
        return out

    def log_sum(self) -> Element:
        total = self.endpoint.algebra.zero()
        for h in self.logs:
            total = total + h
        return total

    def trace_sum(self) -> TraceValue:
        return universal_trace(self.log_sum())


MAX_SPLIT_SEGMENTS = 2 ** 16


def _unitary_values(path: InvertiblePath, ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """evaluate_many at ts, then unitarity to 1e-8 at each t in order."""
    got = evaluate_many(path, ts)
    errs = _unitarity_errors(got.svals)
    bad = errs > 1e-8
    if bad.any():
        i = int(bad.argmax())
        raise NotUnitaryPath(f"path value at t={float(ts[i])} is not unitary ({errs[i]:.3e})")
    return got.blocks


def split_into_exponentials(
    path: InvertiblePath, max_step_norm: float = 0.5
) -> ExponentialSplitting:
    """Coarsest dyadic partition with every unitary increment within
    max_step_norm of the identity; only offending sub-intervals are
    refined.

    The refinement runs one dyadic level at a time: the steps
    u(t_{k-1})^* u(t_k) of a level are one stack per block, and the
    midpoints of all offending steps are evaluated in one evaluate_many
    call.  Raises ValueError when the path does not start at the
    identity, NonFiniteValue or SingularValueOnPath (from evaluate_many)
    and NotUnitaryPath (beyond 1e-8) for a value it reads,
    PartitionOverflow when the partition would pass MAX_SPLIT_SEGMENTS
    segments, and BranchCut when a step's logarithm reaches the cut.
    """
    t1, t2 = path.domain
    s = np.array([0.0, 1.0])  # the cuts, normalized to [0, 1]
    vals = _unitary_values(path, t1 + (t2 - t1) * s)
    if _identity_distances([v[:1] for v in vals])[0] > 1e-8:
        raise ValueError("split_into_exponentials needs a path starting at the identity")
    while True:
        steps = tuple(v[:-1].conj().swapaxes(-1, -2) @ v[1:] for v in vals)
        # not "> max_step_norm": a NaN threshold accepts no step
        over = np.flatnonzero(~(_identity_distances(steps) <= max_step_norm))
        if not over.size:
            break
        if len(s) - 1 + over.size > MAX_SPLIT_SEGMENTS:
            raise PartitionOverflow(
                f"dyadic refinement would exceed {MAX_SPLIT_SEGMENTS} segments"
            )
        mids = 0.5 * (s[over] + s[over + 1])
        new = _unitary_values(path, t1 + (t2 - t1) * mids)
        s = np.insert(s, over + 1, mids)
        vals = tuple(np.insert(v, over + 1, w, axis=0) for v, w in zip(vals, new))
    logs = tuple(
        log_unitary_principal(Element(path.algebra, tuple(st[k] for st in steps)))
        for k in range(len(s) - 1)
    )
    partition = tuple((t1 + (t2 - t1) * s[:-1]).tolist()) + (t2,)
    return ExponentialSplitting(partition, logs, Element(path.algebra, tuple(v[-1] for v in vals)))


# ---------------------------------------------------------------------------
# commutator factorization of determinant-one unitaries


def _balanced_phases(u_block: np.ndarray):
    """Schur-diagonalize a unitary block and pick eigenvalue phases that
    sum to (numerically) zero: the principal phases, with round(sum/2pi)
    of the extreme ones shifted by a full turn."""
    t, q = sla.schur(u_block, output="complex")
    phases = np.angle(np.diag(t))
    s = int(np.round(phases.sum() / (2 * np.pi)))
    if s:
        order = np.argsort(phases)
        if s > 0:
            phases = phases.copy()
            phases[order[::-1][:s]] -= 2 * np.pi
        else:
            phases = phases.copy()
            phases[order[:-s]] += 2 * np.pi
    return q, phases


def commutator_factor_su(u: Element, tol: float = 1e-8) -> tuple[Element, Element]:
    """Write a blockwise determinant-one unitary as a single multiplicative
    commutator u = v w v* w*.

    Per block: with u = Q diag(e^{i theta_j}) Q* and the phases balanced
    to sum to zero, set phi_j as the running sums, M = diag(e^{i phi_j})
    and S the cyclic shift.  Then diag(e^{i theta}) = M (S M* S*), so
    v = Q M Q* and w = Q S Q*.
    """
    vs, ws = [], []
    for b in u.blocks:
        n = len(b)
        det = np.linalg.det(b)
        if abs(det - 1.0) > tol:
            raise DeterminantNotOne(f"block determinant {det:.6f} is not 1")
        q, phases = _balanced_phases(b)
        if n == 1 or np.max(np.abs(phases)) <= 1e-12:
            vs.append(np.eye(n, dtype=complex))
            ws.append(np.eye(n, dtype=complex))
            continue
        phi = np.cumsum(phases)
        mm = np.diag(np.exp(1j * phi))
        shift = np.zeros((n, n), dtype=complex)
        shift[np.arange(n), np.arange(-1, n - 1)] = 1.0
        vs.append(q @ mm @ q.conj().T)
        ws.append(q @ shift @ q.conj().T)
    return Element(u.algebra, tuple(vs)), Element(u.algebra, tuple(ws))


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    det_phases: tuple[float, ...]  # phase of det x_i per block, in (-pi, pi]
    tol: float

    def __bool__(self):
        return self.member


def membership_test(x: Element, tol: float = 1e-8) -> MembershipResult:
    """Decide membership of an invertible in the closure of P(A): every
    block determinant det x_i must have phase 0.  Since det |x_i| > 0,
    that is the phase of det of the unitary polar part; it is read off
    the imaginary parts of log_det(x), with no polar decomposition."""
    phases = tuple(float(c.imag) for c in log_det(x).coords)
    member = all(abs(p) <= tol for p in phases)
    return MembershipResult(member, phases, tol)


# ---------------------------------------------------------------------------
# the positive-product optimizer
#
# Factors are parameterized as p_j = exp(h_j) with h_j self-adjoint, in
# unconstrained coordinates: per factor and then per block, the real
# diagonal, the real parts and the imaginary parts of the strict upper
# triangle.  The objective works on one block at a time and holds block i
# of all m factors as one (m, n, n) stack, gathered from theta through an
# (m, n*n) index array made once per objective.  One batched eigh then
# gives every exp(h_j) of the block, and the gradient of a residual goes
# back through one batched Daleckii-Krein kernel for the Frechet
# derivative of exp; only the prefix and suffix products of the factors
# remain a loop over m.  Coordinates are scattered and gathered by index,
# not through a basis-matrix product, so each entry takes the same scalar
# arithmetic however the factors are batched, and a non-finite coordinate
# cannot spread into other entries.

# PositiveFactorization's positivity tolerance on each factor; a restart
# whose factors miss it cannot become a factorization.
FACTOR_POSITIVITY_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _upper(n: int):
    """Row and column indices of the strict upper triangle of n x n."""
    return np.triu_indices(n, 1)


def _coord_count(alg: AlgebraDescriptor) -> int:
    return sum(n * n for n in alg.block_sizes)


def _layout(alg: AlgebraDescriptor, m: int) -> list[np.ndarray]:
    """Per block i, the (m, n_i^2) positions of its coordinates in theta,
    one row per factor."""
    ends = np.cumsum([n * n for n in alg.block_sizes])
    rows = _coord_count(alg) * np.arange(m)[:, None]
    return [rows + np.arange(end - n * n, end) for n, end in zip(alg.block_sizes, ends)]


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _hermitian(coords: np.ndarray, n: int) -> np.ndarray:
    """(m, n^2) coordinates -> (m, n, n) stack of hermitian matrices."""
    rows, cols = _upper(n)
    k = n + len(rows)
    h = np.zeros((len(coords), n, n), dtype=complex)
    h[:, rows, cols] = coords[:, n:k] + 1j * coords[:, k:]
    h = h + _ct(h)
    h[:, np.arange(n), np.arange(n)] = coords[:, :n]
    return h


def _coordinates(h: np.ndarray) -> np.ndarray:
    """(m, n, n) stack of hermitian matrices -> (m, n^2) coordinates."""
    rows, cols = _upper(h.shape[-1])
    upper = h[:, rows, cols]
    diag = np.diagonal(h, axis1=1, axis2=2)
    return np.concatenate([np.real(diag), np.real(upper), np.imag(upper)], axis=1)


def _pack(hs, alg: AlgebraDescriptor) -> np.ndarray:
    """Coordinates of factors given as a list (factor) of lists (block)
    of hermitian matrices."""
    theta = np.zeros(len(hs) * _coord_count(alg))
    for i, idx in enumerate(_layout(alg, len(hs))):
        theta[idx] = _coordinates(np.array([blocks[i] for blocks in hs]))
    return theta


class _Block(NamedTuple):
    """Block i of the m factors at one theta: eigenpairs (w, q) of the
    h_j, the factors p_j, prefix products pre[j] = p_0 ... p_{j-1} (pre[m]
    is the product), suffix products suf[j] = p_j ... p_{m-1}, and the
    residual r = pre[m] - x_i; all but r are stacked along axis 0."""

    w: np.ndarray
    q: np.ndarray
    p: np.ndarray
    pre: np.ndarray
    suf: np.ndarray
    r: np.ndarray


class _Objective:
    """Frobenius-squared residual of prod_j exp(h_j) - x and its gradient."""

    def __init__(self, x: Element, m: int):
        self.x = x
        self.alg = x.algebra
        self.m = m
        self.layout = _layout(self.alg, m)

    def _block(self, theta, i) -> _Block:
        n, m = self.alg.block_sizes[i], self.m
        w, q = np.linalg.eigh(_hermitian(theta[self.layout[i]], n))
        p = (q * np.exp(w)[:, None, :]) @ _ct(q)
        pre = np.empty((m + 1, n, n), dtype=complex)
        suf = np.empty_like(pre)
        pre[0] = suf[m] = np.eye(n)
        for j in range(m):
            np.matmul(pre[j], p[j], out=pre[j + 1])
            np.matmul(p[m - 1 - j], suf[m - j], out=suf[m - 1 - j])
        return _Block(w, q, p, pre, suf, pre[m] - self.x.blocks[i])

    def _blocks(self, theta) -> list[_Block]:
        return [self._block(theta, i) for i in range(self.alg.rank)]

    @staticmethod
    def _gradient(b: _Block, e: np.ndarray, scale: float) -> np.ndarray:
        """(m, n^2) gradient coordinates of scale * Re tr(e* prod) in the
        h_j: e pulled back through the prefix and suffix products, then
        through the Frechet derivative of exp at h_j, which in the
        eigenbasis is the kernel exp((wa+wb)/2) * sinhc((wa-wb)/2)."""
        w, q = b.w, b.q
        qh = _ct(q)
        c = _ct(b.pre[:-1]) @ e @ _ct(b.suf[1:])
        half = 0.5 * (w[:, :, None] - w[:, None, :])
        mean = 0.5 * (w[:, :, None] + w[:, None, :])
        small = np.abs(half) < 1e-7
        safe = np.where(small, 1.0, half)
        sinhc = np.where(small, 1.0 + half * half / 6.0, np.sinh(safe) / safe)
        phi = np.exp(mean) * sinhc
        g = scale * (q @ (phi * (qh @ c @ q)) @ qh)
        coords = _coordinates(0.5 * (g + _ct(g)))
        coords[:, w.shape[-1] :] *= 2.0  # each off-diagonal coordinate sits in two entries
        return coords

    def _factors(self, blocks: list[_Block]) -> list[Element]:
        return [Element(self.alg, tuple(b.p[j] for b in blocks)) for j in range(self.m)]

    def factors(self, theta) -> list[Element]:
        return self._factors(self._blocks(theta))

    def value_and_grad(self, theta):
        blocks = self._blocks(theta)
        val = sum(float(np.linalg.norm(b.r, "fro") ** 2) for b in blocks)
        grad = np.empty(len(theta))
        for idx, b in zip(self.layout, blocks):
            grad[idx] = self._gradient(b, b.r, 2.0)
        return val, grad

    def op_residual(self, theta) -> float:
        """Operator-norm residual of the product; inf unless the factors
        and the residual are finite and every factor is positive within
        FACTOR_POSITIVITY_TOL."""
        blocks = self._blocks(theta)
        if not all(np.isfinite(b.p).all() and np.isfinite(b.r).all() for b in blocks):
            return np.inf
        if not all(is_positive(p, FACTOR_POSITIVITY_TOL) for p in self._factors(blocks)):
            return np.inf
        return op_norm(Element(self.alg, tuple(b.pre[-1] for b in blocks)) - self.x)

    def opnorm_value_and_grad(self, theta):
        """Largest-singular-value residual over blocks; gradient flows
        through the top singular pair of the worst block only."""
        blocks = self._blocks(theta)
        svds = [np.linalg.svd(b.r) for b in blocks]
        worst = max(range(self.alg.rank), key=lambda i: svds[i][1][0])
        uu, ss, vvh = svds[worst]
        grad = np.zeros(len(theta))
        wmat = np.outer(uu[:, 0], vvh[0, :].conj())
        grad[self.layout[worst]] = self._gradient(blocks[worst], wmat, 1.0)
        return float(ss[0]), grad


def _lbfgs(fun, x0, maxiter, gtol):
    return scipy.optimize.minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        options=dict(maxiter=maxiter, maxcor=50, maxls=60, ftol=1e-18, gtol=gtol),
    )


def _polar_logs(x: Element):
    """(c, h) with |x| = e^c and the unitary part e^{ih}, phases balanced
    blockwise so that e^{ith} keeps each block determinant's winding at
    zero along the whole homotopy."""
    u, p = polar(x)
    c = log_positive(p)
    hb = []
    for b in u.blocks:
        q, phases = _balanced_phases(b)
        hb.append(_herm((q * phases) @ q.conj().T))
    return c, Element(x.algebra, tuple(hb))


_CONTINUATION_STEPS = 8
_CONTINUATION_ITERS = 400
_GAUSSIAN_SCALES = (0.3, 1.0, 0.1, 2.0)


def _continuation_start(obj: _Objective, opt: OptimizerConfig):
    """Deterministic warm start: follow targets e^{i t h} |x| from the
    positive part (t=0, exactly factorable) up to x (t=1)."""
    c, h = _polar_logs(obj.x)
    theta = _pack([[b / obj.m for b in c.blocks]] * obj.m, obj.alg)
    for step in range(1, _CONTINUATION_STEPS + 1):
        t = step / _CONTINUATION_STEPS
        target = mul(exp_element(1j * t * h), exp_element(c))
        stage = _Objective(target, obj.m)
        iters = _CONTINUATION_ITERS if step < _CONTINUATION_STEPS else opt.max_iterations
        theta = _lbfgs(stage.value_and_grad, theta, iters, opt.gradient_tolerance).x
    return theta


def _gaussian_start(obj: _Objective, opt: OptimizerConfig, index: int):
    rng = np.random.default_rng((opt.seed, index))
    try:
        c, h = _polar_logs(obj.x)
        base = op_norm(c) + op_norm(h) + 0.3
        center = [b / obj.m for b in c.blocks]
    except Exception:
        base = op_norm(obj.x) + 0.3
        center = [np.zeros((n, n), dtype=complex) for n in obj.alg.block_sizes]
    sigma = base / obj.m * _GAUSSIAN_SCALES[index % len(_GAUSSIAN_SCALES)]
    hs = []
    for _ in range(obj.m):
        blocks = []
        for cb, n in zip(center, obj.alg.block_sizes):
            noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            blocks.append(cb + sigma * _herm(noise))
        hs.append(blocks)
    return _pack(hs, obj.alg)


def _run_restart(obj, opt, index, polish):
    theta = None
    if index == 0:
        try:
            theta = _continuation_start(obj, opt)
        except APFPError:
            pass  # no polar data (singular or non-positive routes); plain start
    if theta is None:
        theta = _gaussian_start(obj, opt, index)
        theta = _lbfgs(obj.value_and_grad, theta, opt.max_iterations, opt.gradient_tolerance).x
    best = obj.op_residual(theta)
    if polish:
        polished = _lbfgs(obj.opnorm_value_and_grad, theta, 300, opt.gradient_tolerance).x
        cand = obj.op_residual(polished)
        if cand < best:
            best, theta = cand, polished
    return best, theta


def _search(obj, opt, polish, stop_at=None):
    """Run restarts in index order; return (residual, theta, index) of the
    first restart reaching stop_at, else of the global minimum with index
    tie-break."""
    best = None
    for i in range(opt.restarts):
        r, theta = _run_restart(obj, opt, i, polish)
        if stop_at is not None and r <= stop_at:
            return r, theta, i
        if best is None or r < best[0]:
            best = (r, theta, i)
    return best


@dataclass(frozen=True)
class PositiveFactorization:
    """m positive factors with the product's operator-norm residual
    against the target, recomputed on construction.  route says how the
    factors were found: "positive" (x itself), "construction" or
    "search"."""

    factors: tuple[Element, ...]
    target: Element
    residual: float = field(init=False)
    restarts_used: int = field(default=0, compare=False)
    route: str = field(default="search", compare=False)

    def __post_init__(self):
        stacks = self._stacks()
        tols = np.full(len(self.factors), FACTOR_POSITIVITY_TOL)
        if not _positive_at(stacks, tols).all():
            raise NotPositive("factorization contains a non-positive factor")
        prods = []
        for stack in stacks:
            prod = np.eye(stack.shape[-1], dtype=complex)
            for p in stack:
                prod = prod @ p
            prods.append(prod)
        product = Element(self.target.algebra, tuple(prods))
        object.__setattr__(self, "residual", op_norm(product - self.target))

    def _stacks(self) -> tuple[np.ndarray, ...]:
        """Block i of every factor as one (m, n_i, n_i) stack per block
        (shaped so, too, when there are no factors)."""
        for p in self.factors:
            _same_algebra(p, self.target)
        return tuple(
            np.array([p.blocks[i] for p in self.factors]).reshape(len(self.factors), n, n)
            for i, n in enumerate(self.target.algebra.block_sizes)
        )

    @property
    def max_factor_norm(self) -> float:
        return max(
            float(np.linalg.svd(stack, compute_uv=False)[:, 0].max()) for stack in self._stacks()
        )


# ---------------------------------------------------------------------------
# exact factorization into four or five positives
#
# Sourour, "A factorization theorem for matrices" (Linear Multilinear
# Algebra 19, 1986): a non-scalar invertible T with det T = prod_k
# beta_k gamma_k is X B C X^-1, with B lower-triangular (diagonal beta)
# and C upper-triangular (diagonal gamma).  Each of n-1 rank-one
# Schur-complement steps takes a basis [v, N] of the current complement
# S whose dual first row w* has w* v = 1 and w* S v = beta_k gamma_k, so
# that the next LU pivot of X^-1 T X is beta_k gamma_k.  Wu, "Products of
# positive semidefinite matrices" (Linear Algebra Appl. 111, 1988): V L
# V^-1 with L > 0 diagonal is the product of the positives V L V* and
# (V V*)^-1.  So T = P1 P2 P3 P4; a non-positive scalar block, and at m
# >= 5 any block near one, takes a fifth factor in front, T = P0 (P0^-1
# T).  Conditioning is kept down by geometric spectra (beta increasing,
# gamma decreasing, every pivot the same), unit eigenvectors, equal norms
# across the factors of a block, and the best of a few seeded choices of
# the first vectors, all carried through every step as one stack.

SPECTRUM_RATIO = 3.0
CONSTRUCTION_CANDIDATES = 4
# a block within this relative distance of a scalar takes the scalar route
_SCALAR_RTOL = 1e-12
# at m >= 5, a block within this relative distance of a scalar off the
# positive ray takes the lead P0: the direct route fails below about 3e-3,
# and its factor norm grows like 1.5 / distance (148 at 0.05)
_NEAR_SCALAR_RTOL = 0.1


def _ramp(n: int) -> np.ndarray:
    """n geometric steps of SPECTRUM_RATIO with product 1."""
    return SPECTRUM_RATIO ** (np.arange(n) - (n - 1) / 2)


def _triangular_eigvecs(t: np.ndarray) -> np.ndarray:
    """Unit upper-triangular V with t = V diag(t) V^-1, for each
    upper-triangular t of a stack, with distinct diagonal."""
    n = t.shape[-1]
    d = np.diagonal(t, axis1=-2, axis2=-1)
    v = np.broadcast_to(np.eye(n, dtype=complex), t.shape).copy()
    for i in range(n - 2, -1, -1):
        row = t[:, i, None, i + 1 :] @ v[:, i + 1 :, i + 1 :]
        v[:, i, i + 1 :] = row[:, 0] / (d[:, i + 1 :] - d[:, i, None])
    return v


def _wu_pair(v: np.ndarray, lam: np.ndarray) -> list[np.ndarray]:
    """The positives (V L V*, (V V*)^-1) whose product is V L V^-1, with
    the columns of V scaled to unit norm, for each V of a stack."""
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    vi = np.linalg.inv(v)
    return [_herm((v * lam[..., None, :]) @ _ct(v)), _herm(_ct(vi) @ vi)]


def _sourour_wu(t: np.ndarray, beta: np.ndarray, draws: np.ndarray) -> list[np.ndarray]:
    """Four stacks of positives, each (len(draws), n, n): one
    factorization of t per candidate, for a non-scalar block with det t >
    0, B's spectrum beta and C's spectrum |det t| / beta in pivot order.
    Row c of draws holds candidate c's first vectors, for each step k the
    real and then the imaginary parts of its n - k entries."""
    n = len(t)
    pivot = np.exp(np.linalg.slogdet(t)[1] / n)
    x = np.broadcast_to(np.eye(n, dtype=complex), (len(draws), n, n)).copy()
    s = t
    at = 0
    for k in range(n - 1):
        size = n - k
        v = draws[:, at : at + size] + 1j * draws[:, at + size : at + 2 * size]
        at += 2 * size
        g = np.stack([v, (s @ v[..., None])[..., 0]], axis=-1)
        w = g @ np.linalg.solve(_ct(g) @ g, [1.0, pivot])[..., None]
        eye = np.broadcast_to(np.eye(size), (len(v), size, size))
        q = np.linalg.qr(np.concatenate([w, eye], axis=-1))[0]
        y = np.concatenate([v[..., None], q[..., 1:]], axis=-1)  # q[..., 1:] spans w-perp
        x[..., k:] = x[..., k:] @ y
        a = np.linalg.solve(y, s @ y)
        s = a[:, 1:, 1:] - a[:, 1:, :1] * a[:, None, 0, 1:] / a[:, :1, :1]
    # LU of X^-1 t X without pivoting; its pivots are the chosen ones up
    # to rounding, except the last, which is det t / pivot^(n-1)
    u = np.linalg.solve(x, t @ x)
    lower = np.broadcast_to(np.eye(n, dtype=complex), u.shape).copy()
    for k in range(n - 1):
        lower[:, k + 1 :, k] = u[:, k + 1 :, k] / u[:, k, k, None]
        u[:, k + 1 :] -= lower[:, k + 1 :, k, None] * u[:, None, k]
    d = np.diagonal(u, axis1=-2, axis2=-1).copy()
    gamma = np.abs(d) / beta
    b = lower * beta
    c = gamma[..., None] * (u / d[..., None])
    # B's eigenvectors from those of the flipped (upper-triangular) B
    vb = _triangular_eigvecs(b[:, ::-1, ::-1])[:, ::-1, ::-1]
    return _wu_pair(x @ vb, beta) + _wu_pair(x @ _triangular_eigvecs(c), gamma)


def _balanced(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale the factors of each candidate in a (C, f, n, n) stack by
    positive scalars with product 1 to equal norms; returns the stack and
    each candidate's common norm, the geometric mean of its norms."""
    norms = np.linalg.norm(stack, 2, axis=(-2, -1))
    mean = np.exp(np.mean(np.log(norms), axis=-1))
    return stack * (mean[:, None] / norms)[..., None, None], mean


def _lead(t: np.ndarray, m: int) -> tuple[list[np.ndarray], np.ndarray | None] | None:
    """The route of a block: None for a non-positive scalar when m < 5;
    otherwise the leading factors and the rest of t that Sourour and Wu
    factor, or None for the rest when the lead is the whole
    factorization (a positive scalar).  At m >= 5, a block whose mean
    eigenvalue mu = tr t / n lies nearer a ray exp(2 pi i k / n) with k !=
    0 than the positive one, and with ||t - mu 1||_F <= _NEAR_SCALAR_RTOL
    |mu| n, takes the lead P0 = diag(ramp), which moves the rest away from
    the scalars."""
    n = len(t)
    mu = np.trace(t) / n
    gap = np.linalg.norm(t - mu * np.eye(n))
    # det t > 0 puts a scalar's mu on a ray exp(2 pi i k / n); k = 0 is positive
    positive = round(n * np.angle(mu) / (2 * np.pi)) == 0
    if gap <= _SCALAR_RTOL * abs(mu) * n:
        if positive:
            return [abs(mu) * np.eye(n, dtype=complex)], None
        if m < 5:
            return None
    if m >= 5 and not positive and gap <= _NEAR_SCALAR_RTOL * abs(mu) * n:
        lead = np.diag(_ramp(n)).astype(complex)
        return [lead], np.linalg.solve(lead, t)
    return [], t


def _construct_block(t: np.ndarray, m: int, rng) -> list[np.ndarray] | None:
    """At most m positive factors with product t (det t > 0), or None
    when the block is a non-positive scalar and m < 5, or when no
    candidate gave finite factors.  All CONSTRUCTION_CANDIDATES choices
    of the first vectors run as one stack, and the one with the smallest
    finite norm wins, ties to the lower index.  A LinAlgError in a
    stacked step raises for the whole stack, so one failing candidate
    leaves the element to the search."""
    route = _lead(t, m)
    if route is None:
        return None
    lead, t = route
    if t is None:
        return lead
    n = len(t)
    beta = np.exp(np.linalg.slogdet(t)[1] / (2 * n)) * _ramp(n)
    # 2 (n - k) normals at each step k < n - 1, per candidate in turn
    draws = rng.normal(size=(CONSTRUCTION_CANDIDATES, (n - 1) * (n + 2)))
    factors = _sourour_wu(t, beta, draws)
    lead = [np.broadcast_to(p, factors[0].shape) for p in lead]
    stack, norms = _balanced(np.stack(lead + factors, axis=1))
    finite = np.isfinite(norms)
    if not finite.any():
        return None
    return list(stack[np.argmin(np.where(finite, norms, np.inf))])


def _construct(x: Element, m: int, seed: int) -> tuple[Element, ...] | None:
    """m positive factors of a member x in closed form (m >= 4), padded
    with the identity, or None where the construction does not apply."""
    per_block = []
    for i, (t, n) in enumerate(zip(x.blocks, x.algebra.block_sizes)):
        factors = _construct_block(t, m, np.random.default_rng((seed, i)))
        if factors is None:
            return None
        per_block.append(factors + [np.eye(n, dtype=complex)] * (m - len(factors)))
    return tuple(Element(x.algebra, tuple(b[j] for b in per_block)) for j in range(m))


def factor_positive_products(
    x: Element, m: int = 5, opt: OptimizerConfig | None = None
) -> PositiveFactorization:
    """Factor an invertible member of the closure of P(A) into m positive
    factors.

    A positive x is its own first factor.  For m >= 4 the factors are
    constructed in closed form (Sourour, then Wu; see above) and returned
    when they pass PositiveFactorization's checks and reach the target,
    with restarts_used 0.  Otherwise a multi-start quasi-Newton search
    runs: restart 0 is a deterministic continuation from the positive
    part of x; later restarts are seeded Gaussian perturbations.  Success
    is a residual within opt.target_residual * op_norm(x); otherwise
    NoConvergence carries the best run found, or best=None and
    best_residual=inf when no restart gave finite positive factors.
    """
    if m < 1:
        raise ValueError("need at least one factor")
    opt = opt or OptimizerConfig()
    membership = membership_test(x)
    if not membership:
        raise NotInClosure(
            "a block determinant phase is off zero: "
            + ", ".join(f"{p:+.3e}" for p in membership.det_phases),
            diagnostics=membership,
        )
    if is_positive(x, FACTOR_POSITIVITY_TOL):  # the tolerance PositiveFactorization checks
        factors = (x,) + tuple(x.algebra.identity() for _ in range(m - 1))
        return PositiveFactorization(factors, x, route="positive")
    target = opt.target_residual * op_norm(x)
    if m >= 4:
        try:
            factors = _construct(x, m, opt.seed)
            if factors is not None:
                result = PositiveFactorization(factors, x, route="construction")
                if result.residual <= target:
                    return result
        except (np.linalg.LinAlgError, NotPositive):
            pass  # the search below decides
    obj = _Objective(x, m)
    residual, theta, index = _search(obj, opt, polish=False, stop_at=target)
    if residual == np.inf:
        raise NoConvergence(
            f"no restart of {opt.restarts} gave finite positive factors",
            best_residual=np.inf,
            best=None,
        )
    result = PositiveFactorization(
        tuple(obj.factors(theta)), x, restarts_used=index + 1
    )
    if result.residual > target:
        raise NoConvergence(
            f"best residual {result.residual:.3e} above target {target:.3e} "
            f"after {opt.restarts} restarts",
            best_residual=result.residual,
            best=result,
        )
    return result


# ---------------------------------------------------------------------------
# the distance to the closure, in closed form
#
# For m >= 4 the closure of P(A) is {y : det y_i >= 0 in every block}
# (Sourour and Wu, as above; scalar blocks are limits of non-scalar ones),
# and for every m it lies in that set.  For block x_i = U diag(s) V* let
# phi_i be the distance from arg det x_i to 2 pi Z (0 when det x_i = 0)
# and r_i the smallest r with sum_j arcsin(min(1, r / s_j)) >= phi_i; the
# left side increases with r.  Witness: turn each s_j by theta_j =
# arcsin(min(1, r_i / s_j)) against arg det x_i and project it onto that
# ray, s_j cos theta_j; y_i - x_i is diagonal in the singular basis, so
# ||y_i - x_i|| = max_j s_j sin theta_j = r_i, and det y_i >= 0.  When no
# r < s_n reaches phi_i, zeroing s_n costs s_n instead.  Lower bound: a
# y_i with ||y_i - x_i|| = r < s_n is x_i (1 + z) with sigma_j(z) <= r /
# s_{n-j+1}; the eigenvalues mu_j of z are log-majorized by sigma(z) and
# arcsin(e^t) is convex and increasing, so by Weyl's majorant theorem
# |arg det(1 + z)| <= sum_j arcsin|mu_j| <= sum_j arcsin(r / s_j), and
# det y_i >= 0 needs r >= r_i.  So the distance from x to that set is r* =
# max_i min(s_n, r_i): exact for m >= 4, and a lower bound for every m.


class ClosureDistance(NamedTuple):
    """The operator-norm distance from x to {y : det y_i >= 0 in every
    block}, the closure of P(A) for m >= 4 factors, and a witness at that
    distance, with det witness_i real and >= 0 in every block."""

    distance: float
    witness: Element


def _singular_split(b):
    """b = (u * s) @ vh with s descending up to near-ties.  A hermitian
    block is split through its eigenvalues, a negative one placed after
    any positive one whose |lambda| is within 1e-12 of its own, so a
    witness that zeroes the last singular value drops the negative
    eigenvalue where the two tie; LAPACK's SVD leaves ties in any order."""
    if not np.array_equal(b, b.conj().T):
        return np.linalg.svd(b)
    lam, q = np.linalg.eigh(b)
    order = np.argsort(-abs(lam) * np.where(lam < 0, 1 - 1e-12, 1.0), kind="stable")
    lam, q = lam[order], q[:, order]
    return q * np.where(lam < 0, -1.0, 1.0), abs(lam), q.conj().T


def _closure_block(b) -> tuple[float, np.ndarray]:
    """min(s_n, r_i) and the witness y_i for one block (see above); r_i by
    bisection in floats, down to adjacent floats."""
    u, s, vh = _singular_split(b)
    angle = float(np.angle(np.linalg.slogdet(b)[0]))  # sign 0 when det = 0
    phi = abs(angle)
    sv = [float(v) for v in s]
    turn = lambda r: sum(math.asin(min(1.0, r / v)) for v in sv)
    if sv[-1] == 0.0 or turn(sv[-1]) <= phi:
        d = s.astype(complex)
        d[-1] = 0.0
        return sv[-1], (u * d) @ vh
    lo, hi = 0.0, sv[-1] if phi > 0 else 0.0  # det > 0 needs no turn: r_i = 0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if turn(mid) >= phi else (mid, hi)
    theta = np.arcsin(np.minimum(1.0, hi / s))
    theta[-1] = phi - theta[:-1].sum()  # the largest angle takes the rest: the turn is phi
    sin = np.sin(theta)
    d = s * np.sqrt(1.0 - sin * sin) * np.exp(-1j * np.copysign(theta, angle))
    return float((s * sin).max()), (u * d) @ vh


def distance_to_closure(x: Element) -> ClosureDistance:
    """The distance from x to the closure of P(A) for m >= 4 factors in
    closed form, from one SVD (eigh for a hermitian block) and one slogdet
    per block (see above)."""
    blocks = [_closure_block(b) for b in x.blocks]
    return ClosureDistance(
        max(d for d, _ in blocks), Element(x.algebra, tuple(y for _, y in blocks))
    )


def best_approx_distance(x: Element, m: int = 5, opt: OptimizerConfig | None = None) -> float:
    """Operator-norm distance from x to products of m positive factors,
    from above, and never below distance_to_closure(x).distance.
    Positive x returns 0.  For m >= 4 the answer is
    distance_to_closure(x).distance, exact and with no search; for m < 4
    too when that witness is positive.  Otherwise the multi-start search
    runs with the op-norm polish and its value is the answer; a
    LinAlgError in the search propagates.  An x whose closed form
    overflows returns inf."""
    return _distance_probe(x, m, opt or OptimizerConfig())[0]


def _distance_probe(x: Element, m: int, opt: OptimizerConfig):
    """best_approx_distance(x, m, opt), distance_to_closure(x) (None where
    it overflows) and the route of the first: "closed_form" or "search"."""
    if m < 1:
        raise ValueError("need at least one factor")
    try:
        closure = distance_to_closure(x)
    except ValueError:  # a non-finite witness (or SVD)
        closure = None
    if is_positive(x):
        return 0.0, closure, "closed_form"
    if closure is None:  # inf is the one upper bound left
        return np.inf, None, "closed_form"
    if m >= 4 or is_positive(closure.witness):
        return closure.distance, closure, "closed_form"
    return _search(_Objective(x, m), opt, polish=True)[0], closure, "search"


def residual_curve(x: Element, ms, opt: OptimizerConfig | None = None):
    """Residuals over a sweep of factor counts; members go through the
    factorizer, everything else through best_approx_distance, which is
    exact in closed form for every m >= 4, and for every m where the
    closed-form witness is positive (-1 in M1 and diag(1, -1) in M2)."""
    opt = opt or OptimizerConfig()
    out = []
    for m in ms:
        if membership_test(x):
            try:
                out.append((m, factor_positive_products(x, m, opt).residual))
            except NoConvergence as exc:
                out.append((m, float(exc.best_residual)))
        else:
            out.append((m, best_approx_distance(x, m, opt)))
    return out
