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
produces factorizations for every m one block at a time, and the distance
from elements outside the closure to it, in closed form, with a search,
block by block, only for products of fewer than four positives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy  # scipy.optimize loads on the first search, not at import

from .algebra import (
    LOOP_ENDPOINT_TOL,
    MEMBERSHIP_TOL,
    POSITIVITY_RTOL,
    AlgebraDescriptor,
    Element,
    TraceValue,
    _freeze,
    _herm,
    _identity_distances,
    _positive_at,
    _singular_values,
    _unitary_eig,
    exp_element,
    is_positive,
    log_positive,
    log_unitary_principal,
    op_norm,
    polar,
    universal_trace,
)
from .determinant import InvertiblePath, _block_log_dets, _unitary_blocks, evaluate_many, log_det
from .errors import (
    APFPError,
    DescriptorMismatch,
    DeterminantNotOne,
    NoConvergence,
    NonFiniteValue,
    NotInClosure,
    NotPositive,
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
            out = out @ exp_element(1j * h)
        return out

    def trace_sum(self) -> TraceValue:
        total = self.endpoint.algebra.zero()
        for h in self.logs:
            total = total + h
        return universal_trace(total)


MAX_SPLIT_SEGMENTS = 2 ** 16
# each step of a splitting lies within this operator-norm distance of the
# identity, which keeps its eigenvalues off the logarithm's cut
MAX_STEP_NORM = 0.5


def split_into_exponentials(path: InvertiblePath) -> ExponentialSplitting:
    """Coarsest dyadic partition with every unitary increment within
    MAX_STEP_NORM of the identity; only offending sub-intervals are
    refined.

    The refinement runs one dyadic level at a time: the steps
    u(t_{k-1})^* u(t_k) of a level are one stack per block, and the
    midpoints of all offending steps are evaluated in one evaluate_many
    call.  Raises ValueError when the path does not start at the
    identity, NonFiniteValue or SingularValueOnPath (from evaluate_many)
    and NotUnitaryPath (beyond UNITARITY_TOL) for a value it reads,
    PartitionOverflow when the partition would pass MAX_SPLIT_SEGMENTS
    segments, and BranchCut when a step's logarithm reaches the cut.
    """
    t1, t2 = path.domain
    s = np.array([0.0, 1.0])  # the cuts, normalized to [0, 1]
    ts = t1 + (t2 - t1) * s
    vals = _unitary_blocks(ts, evaluate_many(path, ts))
    if _identity_distances([v[:1] for v in vals])[0] > LOOP_ENDPOINT_TOL:
        raise ValueError("split_into_exponentials needs a path starting at the identity")
    while True:
        steps = tuple(v[:-1].conj().swapaxes(-1, -2) @ v[1:] for v in vals)
        # not "> MAX_STEP_NORM": a NaN threshold accepts no step
        over = np.flatnonzero(~(_identity_distances(steps) <= MAX_STEP_NORM))
        if not over.size:
            break
        if len(s) - 1 + over.size > MAX_SPLIT_SEGMENTS:
            raise PartitionOverflow(
                f"dyadic refinement would exceed {MAX_SPLIT_SEGMENTS} segments"
            )
        mids = 0.5 * (s[over] + s[over + 1])
        ts = t1 + (t2 - t1) * mids
        new = _unitary_blocks(ts, evaluate_many(path, ts))
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
    """Diagonalize a unitary block and pick eigenvalue phases that sum to
    (numerically) zero: the principal phases, with round(sum/2pi) of the
    extreme ones shifted by a full turn."""
    q, phases = _unitary_eig(u_block)
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


COMMUTATOR_DET_TOL = 1e-8


def commutator_factor_su(u: Element) -> tuple[Element, Element]:
    """Write a blockwise determinant-one unitary as a single multiplicative
    commutator u = v w v* w*; DeterminantNotOne when a block determinant
    is off 1 by more than COMMUTATOR_DET_TOL.

    Per block: with u = Q diag(e^{i theta_j}) Q* and the phases balanced
    to sum to zero, set phi_j as the running sums, M = diag(e^{i phi_j})
    and S the cyclic shift.  Then diag(e^{i theta}) = M (S M* S*), so
    v = Q M Q* and w = Q S Q*.
    """
    vs, ws = [], []
    for b in u.blocks:
        n = len(b)
        det = np.linalg.det(b)
        if abs(det - 1.0) > COMMUTATOR_DET_TOL:
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


def membership_test(x: Element, tol: float = MEMBERSHIP_TOL) -> MembershipResult:
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
# Products of positives in a direct sum are products per block, so the
# search runs on one block at a time and d_m(x) = max_i d_m(x_i).  The m
# factors of a block are p_j = exp(h_j) with h_j self-adjoint, and theta
# holds, per factor, the real diagonal, the real parts and the imaginary
# parts of the strict upper triangle: theta.reshape(m, n*n).  One batched
# eigh gives every exp(h_j), and the gradient of a residual goes back
# through one batched Daleckii-Krein kernel for the Frechet derivative of
# exp; only the prefix and suffix products remain a loop over m.
# Coordinates are gathered by index, not through a basis-matrix product,
# so a non-finite coordinate cannot spread into other entries.

# PositiveFactorization's positivity tolerance on each factor; a restart
# whose factors miss it cannot become a factorization.
FACTOR_POSITIVITY_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _upper(n: int):
    """Row and column indices of the strict upper triangle of n x n."""
    return np.triu_indices(n, 1)


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


@functools.lru_cache(maxsize=None)
def _coordinate_index(n: int) -> np.ndarray:
    """Where the n^2 coordinates sit in the 2 n^2 floats of a row-major
    complex n x n matrix: the real diagonal, then the real and the
    imaginary parts of the strict upper triangle."""
    rows, cols = _upper(n)
    at = 2 * (rows * n + cols)
    return np.concatenate([2 * (n + 1) * np.arange(n), at, at + 1])


def _coordinates(h: np.ndarray) -> np.ndarray:
    """(m, n, n) stack of hermitian matrices -> (m, n^2) coordinates."""
    floats = np.ascontiguousarray(h, dtype=complex).view(np.float64).reshape(len(h), -1)
    return floats.take(_coordinate_index(h.shape[-1]), axis=1)


def _block_elements(x: Element) -> list[Element]:
    """Each block of x as an element of its own one-block algebra."""
    return [Element(AlgebraDescriptor((len(b),)), (b,)) for b in x.blocks]


class _Block(NamedTuple):
    """The m factors at one theta: eigenpairs (w, q) of the h_j, the
    factors p_j, prefix products pre[j] = p_0 ... p_{j-1} (pre[m] is the
    product), suffix products suf[j] = p_j ... p_{m-1}, and the residual
    r = pre[m] - x; all but r are stacked along axis 0."""

    w: np.ndarray
    q: np.ndarray
    p: np.ndarray
    pre: np.ndarray
    suf: np.ndarray
    r: np.ndarray


class _Objective:
    """Frobenius-squared residual of prod_j exp(h_j) - x, x in M_n, and its gradient."""

    def __init__(self, x: Element, m: int):
        self.x = x
        (self.n,) = x.algebra.block_sizes
        self.m = m
        self.eye = np.eye(self.n)

    def _block(self, theta) -> _Block:
        n, m = self.n, self.m
        w, q = np.linalg.eigh(_hermitian(theta.reshape(m, n * n), n))
        p = (q * np.exp(w)[:, None, :]) @ _ct(q)
        pre = np.empty((m + 1, n, n), dtype=complex)
        suf = np.empty_like(pre)
        pre[0] = suf[m] = self.eye
        for j in range(m):
            np.matmul(pre[j], p[j], out=pre[j + 1])
            np.matmul(p[m - 1 - j], suf[m - j], out=suf[m - 1 - j])
        return _Block(w, q, p, pre, suf, pre[m] - self.x.blocks[0])

    @staticmethod
    def _gradient(b: _Block, e: np.ndarray, scale: float) -> np.ndarray:
        """Raveled (m, n^2) gradient coordinates of scale * Re tr(e* prod)
        in the h_j: e pulled back through the prefix and suffix products,
        then through the Frechet derivative of exp at h_j, which in the
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
        return coords.ravel()

    def value_and_grad(self, theta):
        b = self._block(theta)
        return float(np.linalg.norm(b.r, "fro") ** 2), self._gradient(b, b.r, 2.0)

    def factorization(self, theta, restarts_used: int) -> PositiveFactorization | None:
        """The factors at theta, the stack b.p, as a PositiveFactorization
        of x, or None unless the factors and their product are finite and
        every factor is positive within FACTOR_POSITIVITY_TOL."""
        with np.errstate(over="ignore", invalid="ignore"):
            p = self._block(theta).p
        try:
            return PositiveFactorization((p,), self.x, restarts_used=restarts_used)
        except (NonFiniteValue, NotPositive):
            return None

    def opnorm_value_and_grad(self, theta):
        """Largest singular value of the residual; the gradient flows
        through its top singular pair."""
        b = self._block(theta)
        uu, ss, vvh = np.linalg.svd(b.r)
        wmat = np.outer(uu[:, 0], vvh[0, :].conj())
        return float(ss[0]), self._gradient(b, wmat, 1.0)


def _lbfgs(value_and_grad, x0, maxiter, gtol):
    """L-BFGS-B from x0 on value_and_grad(theta) -> (value, gradient).
    scipy reads the value and the gradient through two callables that
    share one evaluation: value_and_grad runs again unless theta equals
    the last theta entrywise, the rule of scipy's MemoizeJac (jac=True),
    so the thetas and the result are those of jac=True, bit for bit.
    Overflow in the objective's kernels warns of nothing:
    PositiveFactorization rejects a restart whose factors or product are
    not finite."""
    last = [None, None]  # the last theta and its (value, gradient)

    def evaluated(theta):
        if last[1] is None or not (theta == last[0]).all():
            last[0] = theta.copy()
            last[1] = value_and_grad(theta)
        return last[1]

    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.optimize.minimize(
            lambda theta: evaluated(theta)[0],
            x0,
            jac=lambda theta: evaluated(theta)[1],
            method="L-BFGS-B",
            options=dict(maxiter=maxiter, maxcor=50, maxls=60, ftol=1e-18, gtol=gtol),
        )


def _polar_logs(x: Element):
    """(c, h) with |x| = e^c and the unitary part e^{ih}, phases balanced
    blockwise so that e^{ith} keeps each block determinant's winding at
    zero along the whole homotopy; every restart reads it through x._once."""
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
    c, h = obj.x._once(_polar_logs)
    theta = _coordinates(np.array([c.blocks[0] / obj.m] * obj.m)).ravel()
    for step in range(1, _CONTINUATION_STEPS + 1):
        t = step / _CONTINUATION_STEPS
        target = exp_element(1j * t * h) @ exp_element(c)
        stage = _Objective(target, obj.m)
        iters = _CONTINUATION_ITERS if step < _CONTINUATION_STEPS else opt.max_iterations
        theta = _lbfgs(stage.value_and_grad, theta, iters, opt.gradient_tolerance).x
    return theta


def _gaussian_start(obj: _Objective, opt: OptimizerConfig, index: int):
    rng = np.random.default_rng((opt.seed, index))
    n = obj.n
    try:
        c, h = obj.x._once(_polar_logs)
        base = op_norm(c) + op_norm(h) + 0.3
        center = c.blocks[0] / obj.m
    except (APFPError, ValueError):  # LinAlgError is a ValueError
        base = op_norm(obj.x) + 0.3
        center = np.zeros((n, n), dtype=complex)
    sigma = base / obj.m * _GAUSSIAN_SCALES[index % len(_GAUSSIAN_SCALES)]
    hs = []
    for _ in range(obj.m):
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        hs.append(center + sigma * _herm(noise))
    return _coordinates(np.array(hs)).ravel()


def _run_restart(obj, opt, index, polish):
    """Restart index as a PositiveFactorization with restarts_used index +
    1, or None when its factors fail that check; with polish, the one of
    the restart and its op-norm polish with the smaller residual."""
    theta = None
    if index == 0:
        try:
            theta = _continuation_start(obj, opt)
        except APFPError:
            pass  # no polar data (singular or non-positive routes); plain start
    if theta is None:
        theta = _gaussian_start(obj, opt, index)
        theta = _lbfgs(obj.value_and_grad, theta, opt.max_iterations, opt.gradient_tolerance).x
    best = obj.factorization(theta, index + 1)
    if polish:
        polished = _lbfgs(obj.opnorm_value_and_grad, theta, 300, opt.gradient_tolerance).x
        cand = obj.factorization(polished, index + 1)
        if cand is not None and (best is None or cand.residual < best.residual):
            best = cand
    return best


def _search(obj, opt, polish, stop_at=None) -> PositiveFactorization | None:
    """Run restarts in index order; return the first restart's
    factorization reaching stop_at, else the one with the smallest
    residual (ties to the lower index), or None when no restart gave one."""
    best = None
    for i in range(opt.restarts):
        result = _run_restart(obj, opt, i, polish)
        if result is None:
            continue
        if stop_at is not None and result.residual <= stop_at:
            return result
        if best is None or result.residual < best.residual:
            best = result
    return best


@dataclass(frozen=True)
class PositiveFactorization:
    """m positive factors, held as one read-only (m, n_i, n_i) stack per
    block i, with the product's operator-norm residual against the
    target, recomputed on construction.  route says how the factors were
    found: "positive" (x itself), "construction" or "search".  Raises
    DescriptorMismatch for stacks of other shapes, NonFiniteValue when a
    factor or the product is not finite, and NotPositive when a factor is
    not positive within FACTOR_POSITIVITY_TOL."""

    stacks: tuple[np.ndarray, ...]
    target: Element
    residual: float = field(init=False)
    restarts_used: int = field(default=0, compare=False)
    route: str = field(default="search", compare=False)

    def __post_init__(self):
        sizes = self.target.algebra.block_sizes
        stacks = tuple(_freeze(s) for s in self.stacks)
        m = len(stacks[0]) if stacks else 0
        if len(stacks) != len(sizes) or any(s.shape != (m, n, n) for s, n in zip(stacks, sizes)):
            shapes = ", ".join(str(s.shape) for s in stacks)
            raise DescriptorMismatch(f"factor stacks {shapes} do not fit {self.target.algebra}")
        object.__setattr__(self, "stacks", stacks)
        if not all(np.isfinite(s).all() for s in stacks):
            raise NonFiniteValue("a factor is not finite")
        if not _positive_at(stacks, np.full(m, FACTOR_POSITIVITY_TOL)).all():
            raise NotPositive("factorization contains a non-positive factor")
        # prod - x_i is, bit for bit, prod + (-1.0 * x_i) as an Element difference
        misses = [
            functools.reduce(np.matmul, s, np.eye(n, dtype=complex)) - t
            for s, n, t in zip(stacks, sizes, self.target.blocks)
        ]
        if not all(np.isfinite(d).all() for d in misses):
            raise NonFiniteValue("the product of the factors is not finite")
        residual = max(float(np.linalg.svd(d, compute_uv=False)[0]) for d in misses)
        object.__setattr__(self, "residual", residual)

    @functools.cached_property
    def factors(self) -> tuple[Element, ...]:
        """The factors as Elements, built on first use."""
        return tuple(
            Element(self.target.algebra, tuple(s[j] for s in self.stacks))
            for j in range(len(self.stacks[0]))
        )

    @property
    def max_factor_norm(self) -> float:
        return max(
            float(np.linalg.svd(stack, compute_uv=False)[:, 0].max()) for stack in self.stacks
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


# The constant arrays of the construction are built once per shape and
# kept read-only; the draws once per seed, block index and block size.
# Each is copied where it is written.


@functools.lru_cache(maxsize=None)
def _ramp(n: int) -> np.ndarray:
    """n geometric steps of SPECTRUM_RATIO with product 1, read-only."""
    ramp = SPECTRUM_RATIO ** (np.arange(n) - (n - 1) / 2)
    ramp.setflags(write=False)
    return ramp


@functools.lru_cache(maxsize=64)
def _identities(count: int, n: int) -> np.ndarray:
    """A read-only (count, n, n) stack of complex identities."""
    return _freeze(np.broadcast_to(np.eye(n), (count, n, n)))


@functools.lru_cache(maxsize=64)
def _draws(seed: int, i: int, n: int) -> np.ndarray:
    """The first vectors of block i's candidates, read-only: from the
    generator seeded by (seed, i), 2 (n - k) normals at each step k < n -
    1, per candidate in turn."""
    draws = np.random.default_rng((seed, i)).normal(size=(CONSTRUCTION_CANDIDATES, (n - 1) * (n + 2)))
    draws.setflags(write=False)
    return draws


def _triangular_eigvecs(t: np.ndarray) -> np.ndarray:
    """Unit upper-triangular V with t = V diag(t) V^-1, for each
    upper-triangular t of a stack, with distinct diagonal."""
    n = t.shape[-1]
    d = np.diagonal(t, axis1=-2, axis2=-1)
    v = _identities(len(t), n).copy()
    for i in range(n - 2, -1, -1):
        row = t[:, i, None, i + 1 :] @ v[:, i + 1 :, i + 1 :]
        v[:, i, i + 1 :] = row[:, 0] / (d[:, i + 1 :] - d[:, i, None])
    return v


def _wu_pair(v: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positives (V L V*, (V V*)^-1) whose product is V L V^-1, with
    the columns of V scaled to unit norm, for each V of a stack."""
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    vi = np.linalg.inv(v)
    return _herm((v * lam[..., None, :]) @ _ct(v)), _herm(_ct(vi) @ vi)


def _sourour_wu(t: np.ndarray, logabs: float, draws: np.ndarray) -> list[np.ndarray]:
    """Four stacks of positives, each (len(draws), n, n): one
    factorization of t per candidate, for a non-scalar block with det t >
    0 and log |det t| = logabs: B's spectrum is beta = |det t|^(1/2n)
    _ramp(n), C's is |det t|^(1/n) / beta.  Row c of draws holds
    candidate c's first vectors, for each step k the real and then the
    imaginary parts of its n - k entries.  The Schur complement is formed
    for every step but the last, and both Wu pairs come from one call on
    a (2, len(draws), n, n) stack, B's eigenvectors with beta first."""
    n = len(t)
    pivot = np.exp(logabs / n)
    beta = np.exp(logabs / (2 * n)) * _ramp(n)
    x = _identities(len(draws), n).copy()
    s = t
    at = 0
    for k in range(n - 1):
        size = n - k
        v = draws[:, at : at + size] + 1j * draws[:, at + size : at + 2 * size]
        at += 2 * size
        g = np.stack([v, (s @ v[..., None])[..., 0]], axis=-1)
        w = g @ np.linalg.solve(_ct(g) @ g, [1.0, pivot])[..., None]
        q = np.linalg.qr(np.concatenate([w, _identities(len(v), size)], axis=-1))[0]
        y = np.concatenate([v[..., None], q[..., 1:]], axis=-1)  # q[..., 1:] spans w-perp
        x[..., k:] = x[..., k:] @ y
        if k < n - 2:  # the LU below reads t, not the last complement
            a = np.linalg.solve(y, s @ y)
            s = a[:, 1:, 1:] - a[:, 1:, :1] * a[:, None, 0, 1:] / a[:, :1, :1]
    # LU of X^-1 t X without pivoting; its pivots are the chosen ones up
    # to rounding, except the last, which is det t / pivot^(n-1)
    u = np.linalg.solve(x, t @ x)
    lower = _identities(len(u), n).copy()
    for k in range(n - 1):
        lower[:, k + 1 :, k] = u[:, k + 1 :, k] / u[:, k, k, None]
        u[:, k + 1 :] -= lower[:, k + 1 :, k, None] * u[:, None, k]
    d = np.diagonal(u, axis1=-2, axis2=-1).copy()
    gamma = np.abs(d) / beta
    b = lower * beta
    c = gamma[..., None] * (u / d[..., None])
    # B's eigenvectors from those of the flipped (upper-triangular) B
    vb = _triangular_eigvecs(b[:, ::-1, ::-1])[:, ::-1, ::-1]
    # filled in place: two np.stack calls would take about 10 us more
    v = np.empty((2,) + x.shape, dtype=complex)
    np.matmul(x, vb, out=v[0])
    np.matmul(x, _triangular_eigvecs(c), out=v[1])
    lam = np.empty((2,) + gamma.shape)
    lam[0], lam[1] = beta, gamma
    pos, inv = _wu_pair(v, lam)
    return [pos[0], inv[0], pos[1], inv[1]]


def _balanced(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale the factors of each candidate in a (C, f, n, n) stack by
    positive scalars with product 1 to equal norms; returns the stack and
    each candidate's common norm, the geometric mean of its norms."""
    norms = np.linalg.svd(stack, compute_uv=False)[..., 0]
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


def _construct_block(t: np.ndarray, m: int, seed: int, i: int, logabs: float) -> np.ndarray | None:
    """At most m positive factors with product t, block i of its element
    (det t > 0, log |det t| = logabs, which a lead of determinant one
    keeps) as one stack, or None when the block is a non-positive scalar
    and m < 5, or when no candidate gave finite factors.  All
    CONSTRUCTION_CANDIDATES choices of the first vectors run as one
    stack: their draws, _draws(seed, i, n), are made once and kept.  The
    one with the smallest finite norm wins, ties to the lower index.  A
    LinAlgError in a stacked step raises for the whole stack, so one
    failing candidate leaves the element to the search."""
    route = _lead(t, m)
    if route is None:
        return None
    lead, t = route
    if t is None:
        return np.array(lead)
    factors = _sourour_wu(t, logabs, _draws(seed, i, len(t)))
    lead = [np.broadcast_to(p, factors[0].shape) for p in lead]
    stack, norms = _balanced(np.stack(lead + factors, axis=1))
    finite = np.isfinite(norms)
    if not finite.any():
        return None
    return stack[np.argmin(np.where(finite, norms, np.inf))]


def _padded(stack: np.ndarray, m: int) -> np.ndarray:
    """An (f, n, n) stack followed by m - f identities."""
    return np.concatenate([stack, _identities(m - len(stack), stack.shape[-1])])


def _construct(x: Element, m: int, seed: int) -> tuple[np.ndarray, ...] | None:
    """m positive factors of a member x in closed form (m >= 4), one (m,
    n_i, n_i) stack per block padded with the identity, or None where the
    construction does not apply.
    Each block x_i is divided by 2^e_i >= ||x_i|| (|e_i| <= 1022), which
    is exact, before it is factored: near 1e200 the steps overflow, and
    far below it they underflow.  2^e_i spread evenly over the block's
    factors keeps their norms equal.  The first vectors of block i's
    candidates are drawn from the generator seeded by (seed, i), once per
    (seed, i, n_i): later calls read the same read-only draws."""
    stacks = []
    for i, (t, s, c) in enumerate(zip(x.blocks, x._once(_singular_values), x._once(_block_log_dets))):
        e = min(max(math.frexp(s[0])[1], -1022), 1022)
        factors = _construct_block(t * 2.0**-e, m, seed, i, c.real - len(t) * e * math.log(2))
        if factors is None:
            return None
        stacks.append(_padded(2.0 ** (e / len(factors)) * factors, m))
    return tuple(stacks)


def factor_positive_products(
    x: Element, m: int = 5, opt: OptimizerConfig | None = None
) -> PositiveFactorization:
    """Factor an invertible member of the closure of P(A) into m positive
    factors.

    An x positive within the smaller of FACTOR_POSITIVITY_TOL and
    POSITIVITY_RTOL * op_norm(x) is its own first factor.  For m >= 4 the factors are
    constructed in closed form (Sourour, then Wu; see above) and returned
    when they pass PositiveFactorization's checks and reach the target,
    with restarts_used 0.  Otherwise a multi-start quasi-Newton search
    runs on each block x_i: restart 0 is a deterministic continuation
    from the positive part of x_i; restart k > 0 is a Gaussian
    perturbation seeded by (opt.seed, k) in every block.  Each block stops
    at its first restart within opt.target_residual * op_norm(x), and the
    blocks' factors, with restarts_used the largest, are the answer if
    they reach it; otherwise NoConvergence carries them, or best=None and
    best_residual=inf when no restart of a block gave finite positive
    factors or a search raised LinAlgError (an eigh or SVD that failed).
    A non-positive x with max_i n_i * op_norm(x) beyond the float range
    raises NonFiniteValue before either route runs.
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
    norm = op_norm(x)
    # the absolute tolerance alone would take any x of norm below 1e-10
    if is_positive(x, min(FACTOR_POSITIVITY_TOL, POSITIVITY_RTOL * norm)):
        return PositiveFactorization(tuple(_padded(b[None], m) for b in x.blocks), x, route="positive")
    # a block's trace and the sum of a block and its adjoint reach n_i ||x||
    if not math.isfinite(max(x.algebra.block_sizes) * norm):
        raise NonFiniteValue(f"the scale of x overflows: op_norm {norm:.3e}")
    target = opt.target_residual * norm
    if m >= 4:
        try:
            stacks = _construct(x, m, opt.seed)
            if stacks is not None:
                result = PositiveFactorization(stacks, x, route="construction")
                if result.residual <= target:
                    return result
        except (np.linalg.LinAlgError, NonFiniteValue, NotPositive):
            pass  # the search below decides
    try:
        found = [_search(_Objective(b, m), opt, polish=False, stop_at=target) for b in _block_elements(x)]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"the search failed: LinAlgError: {exc}", best_residual=np.inf, best=None) from exc
    if any(f is None for f in found):
        raise NoConvergence(
            f"no restart of {opt.restarts} gave finite positive factors of a block",
            best_residual=np.inf,
            best=None,
        )
    result = PositiveFactorization(
        tuple(f.stacks[0] for f in found), x, restarts_used=max(f.restarts_used for f in found)
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
    distance, with det witness_i real and >= 0 in every block; witness_i
    lies at block_distances[i] from x_i, and distance is the largest."""

    distance: float
    witness: Element
    block_distances: tuple[float, ...]


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


def _turn(sv, r: float) -> float:
    """sum_j arcsin(min(1, r / s_j)): the turn of det at distance r."""
    return sum(math.asin(min(1.0, r / v)) for v in sv)


def _turn_radius(sv, phi: float) -> float:
    """r_i: the smallest float r with _turn(sv, r) >= phi, for phi > 0
    and _turn(sv, s_n) > phi.  Newton steps start from the equal-split
    upper end; below s_n the turn is convex and increasing, so steps from
    above stay above r_i, and a step from below lands above it (or past
    hi, where a bisection step replaces it).  Then probes 4, 8, 16, ...
    floats away from the last Newton point bracket r_i, and a bisection
    in floats ends at the adjacent pair.  lo always falls short of phi
    and hi reaches it, and the turn is monotone in floats, so this is the
    float a bisection from [0, s_n] finds."""
    # turning the k smallest singular values by phi / k each costs
    # s_{n-k+1} sin(phi / k)
    ends = [sv[-k] * math.sin(phi / k) for k in range(1, len(sv) + 1) if phi / k <= math.pi / 2]
    lo, hi = 0.0, sv[-1]
    r = min(ends + [hi])
    if r == hi:  # the chord from the origin, below r_i by convexity
        r = hi * (phi / _turn(sv, hi))
    last = r
    while lo < r < hi:
        t = _turn(sv, r)
        short = t < phi
        if short:
            lo = r
        else:
            hi = r
        last = r
        q = [r / v for v in sv]
        if max(q) >= 1.0:
            break
        # r times the Newton step over r; the slope of arcsin(r / v) is 1 / sqrt(v^2 - r^2)
        r -= r * ((t - phi) / sum(x / math.sqrt((1.0 - x) * (1.0 + x)) for x in q))
        if short and r >= hi:  # a step from below past hi: bisect instead
            r = 0.5 * (lo + hi)
    up = last == lo
    gap = 4 * math.ulp(last)
    while True:
        probe = last + gap if up else last - gap
        if not lo < probe < hi:
            break
        if _turn(sv, probe) >= phi:
            hi = probe
        else:
            lo = probe
        if (hi == probe) == up:  # the probe crossed r_i
            break
        last, gap = probe, 2 * gap
    # lo + (hi - lo) / 2, not (lo + hi) / 2, which overflows near the top
    # of the float range and would stop the bisection there
    while lo < lo + 0.5 * (hi - lo) < hi:
        mid = lo + 0.5 * (hi - lo)
        lo, hi = (lo, mid) if _turn(sv, mid) >= phi else (mid, hi)
    return hi


def _closure_block(b, angle: float) -> tuple[float, np.ndarray]:
    """min(s_n, r_i) and the witness y_i for a block with arg det = angle."""
    u, s, vh = _singular_split(b)
    phi = abs(angle)
    sv = [float(v) for v in s]
    if sv[-1] == 0.0 or _turn(sv, sv[-1]) <= phi:
        d = s.astype(complex)
        d[-1] = 0.0
        return sv[-1], (u * d) @ vh
    r = _turn_radius(sv, phi) if phi > 0 else 0.0  # det > 0 needs no turn: r_i = 0
    theta = np.arcsin(np.minimum(1.0, r / s))
    theta[-1] = phi - theta[:-1].sum()  # the largest angle takes the rest: the turn is phi
    sin = np.sin(theta)
    d = s * np.sqrt(1.0 - sin * sin) * np.exp(-1j * np.copysign(theta, angle))
    return float((s * sin).max()), (u * d) @ vh


def distance_to_closure(x: Element) -> ClosureDistance:
    """The distance from x to the closure of P(A) for m >= 4 factors in
    closed form, from one SVD (eigh for a hermitian block) per block and
    the phases of its block log dets, 0 for a singular block (see above)."""
    blocks = [_closure_block(b, c.imag) for b, c in zip(x.blocks, x._once(_block_log_dets))]
    distances = tuple(d for d, _ in blocks)
    return ClosureDistance(max(distances), Element(x.algebra, tuple(y for _, y in blocks)), distances)


def best_approx_distance(x: Element, m: int = 5, opt: OptimizerConfig | None = None) -> float:
    """Operator-norm distance from x to products of m positive factors,
    from above, and never below distance_to_closure(x).distance.
    Positive x returns 0.  For m >= 4 the answer is
    distance_to_closure(x).distance, exact and with no search.  For m < 4
    it is the largest over blocks: a block whose witness is positive
    answers with its own closed-form distance, every other block with
    the multi-start search with the op-norm polish on that block alone;
    a LinAlgError in a search propagates.  An x whose closed form
    overflows returns inf."""
    return _distance_probe(x, m, opt or OptimizerConfig())[0]


def _distance_probe(x: Element, m: int, opt: OptimizerConfig):
    """best_approx_distance(x, m, opt), distance_to_closure(x) (None where
    it overflows) and the route of the first: "search" when some block
    searched, else "closed_form"."""
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
    if m >= 4:
        return closure.distance, closure, "closed_form"
    answers, route = [], "closed_form"
    for xb, yb, r in zip(_block_elements(x), _block_elements(closure.witness), closure.block_distances):
        if not is_positive(yb):
            found = _search(_Objective(xb, m), opt, polish=True)
            r, route = (np.inf if found is None else found.residual), "search"
        answers.append(r)
    return max(answers), closure, route


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
