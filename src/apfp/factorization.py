"""Constructive membership in the closure of products of positives.

A block-invertible x = u|x| lies in the closure of P(A) exactly when
every block of the unitary part has determinant 1 (the closed-form
description of the closed commutator subgroup of the unitaries at block
scale).  As det |x_i| > 0, the test reads the phase of det x_i itself,
the imaginary part of the element determinant log det x_i.  This module
provides the membership test, the witnesses used on
the positive side (the unitary polar path of e^{tc} e^{td}, its
exponential splitting with trace-zero log sums, explicit commutator
factorizations of determinant-one unitaries), an optimizer that actually
produces factorizations into m positive factors, and a distance probe
for elements outside the closure.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.optimize

from .algebra import (
    AlgebraDescriptor,
    Element,
    TraceValue,
    _expm_herm,
    _herm,
    adjoint,
    exp_element,
    is_positive,
    log_positive,
    log_unitary_principal,
    mul,
    op_norm,
    polar,
    universal_trace,
)
from .determinant import InvertiblePath, ProductPolar, _worker_count, log_det
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


def _assert_unitary(v: Element, t, tol=1e-8):
    err = max(
        np.linalg.norm(b.conj().T @ b - np.eye(len(b)), 2) for b in v.blocks
    )
    if err > tol:
        raise NotUnitaryPath(f"path value at t={t} is not unitary ({err:.3e})")


MAX_SPLIT_SEGMENTS = 2 ** 16


def split_into_exponentials(
    path: InvertiblePath, max_step_norm: float = 0.5
) -> ExponentialSplitting:
    """Coarsest dyadic partition with every unitary increment within
    max_step_norm of the identity; only offending sub-intervals are
    refined."""
    t1, t2 = path.domain
    values = {}

    def at(s):  # s in [0,1] normalized
        got = values.get(s)
        if got is None:
            got = values[s] = path._value(t1 + (t2 - t1) * s)
            _assert_unitary(got, t1 + (t2 - t1) * s)
        return got

    start = at(0.0)
    if op_norm(start - path.algebra.identity()) > 1e-8:
        raise ValueError("split_into_exponentials needs a path starting at the identity")

    pending = [(0.0, 1.0)]
    accepted = []
    count = 1
    while pending:
        a, b = pending.pop()
        step = mul(adjoint(at(a)), at(b))
        gap = op_norm(step - path.algebra.identity())
        if gap <= max_step_norm:
            accepted.append((a, b))
            continue
        count += 1
        if count > MAX_SPLIT_SEGMENTS:
            raise PartitionOverflow(
                f"dyadic refinement would exceed {MAX_SPLIT_SEGMENTS} segments"
            )
        mid = 0.5 * (a + b)
        pending.append((mid, b))
        pending.append((a, mid))

    accepted.sort()
    logs = []
    for a, b in accepted:
        step = mul(adjoint(at(a)), at(b))
        logs.append(log_unitary_principal(step))
    partition = tuple(t1 + (t2 - t1) * s for s, _ in accepted) + (t2,)
    return ExponentialSplitting(partition, tuple(logs), at(1.0))


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
# unconstrained coordinates (real diagonal plus the real and imaginary
# parts of the strict upper triangle, per block).  The Frobenius-squared
# residual of the product has an analytic gradient through the Frechet
# derivative of the exponential, diagonalized once per factor and block.


def _coord_count(alg: AlgebraDescriptor) -> int:
    return sum(n * n for n in alg.block_sizes)


def _unpack(theta: np.ndarray, alg: AlgebraDescriptor, m: int):
    """theta -> list (factor) of lists (block) of hermitian matrices."""
    out = []
    pos = 0
    for _ in range(m):
        blocks = []
        for n in alg.block_sizes:
            diag = theta[pos : pos + n]
            pos += n
            nup = n * (n - 1) // 2
            re = theta[pos : pos + nup]
            pos += nup
            im = theta[pos : pos + nup]
            pos += nup
            h = np.zeros((n, n), dtype=complex)
            iu = np.triu_indices(n, 1)
            h[iu] = re + 1j * im
            h = h + h.conj().T
            h[np.diag_indices(n)] = diag
            blocks.append(h)
        out.append(blocks)
    return out


def _pack(hs, alg: AlgebraDescriptor) -> np.ndarray:
    parts = []
    for blocks in hs:
        for h, n in zip(blocks, alg.block_sizes):
            iu = np.triu_indices(n, 1)
            parts.append(np.real(np.diag(h)))
            parts.append(np.real(h[iu]))
            parts.append(np.imag(h[iu]))
    return np.concatenate(parts) if parts else np.zeros(0)


def _grad_coords(g: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(g.shape[0], 1)
    return np.concatenate(
        [np.real(np.diag(g)), 2.0 * np.real(g[iu]), 2.0 * np.imag(g[iu])]
    )


def _expm_frechet_herm(w, q, e):
    """Frechet derivative of expm at a hermitian point, applied to e.
    In the eigenbasis the kernel is exp((wa+wb)/2) * sinhc((wa-wb)/2)."""
    half = 0.5 * np.subtract.outer(w, w)
    mean = 0.5 * np.add.outer(w, w)
    small = np.abs(half) < 1e-7
    safe = np.where(small, 1.0, half)
    sinhc = np.where(small, 1.0 + half * half / 6.0, np.sinh(safe) / safe)
    phi = np.exp(mean) * sinhc
    return q @ (phi * (q.conj().T @ e @ q)) @ q.conj().T


class _Objective:
    """Frobenius-squared residual of prod_j exp(h_j) - x and its gradient."""

    def __init__(self, x: Element, m: int):
        self.x = x
        self.alg = x.algebra
        self.m = m

    def factors(self, theta):
        hs = _unpack(theta, self.alg, self.m)
        return [
            Element(self.alg, tuple(_expm_herm(h) for h in blocks))
            for blocks in hs
        ]

    def product(self, theta) -> Element:
        prod = self.alg.identity()
        for p in self.factors(theta):
            prod = mul(prod, p)
        return prod

    def _decompose(self, theta):
        hs = _unpack(theta, self.alg, self.m)
        eigs, ps = [], []
        for blocks in hs:
            row_e, row_p = [], []
            for h in blocks:
                w, q = np.linalg.eigh(h)
                row_e.append((w, q))
                row_p.append((q * np.exp(w)) @ q.conj().T)
            eigs.append(row_e)
            ps.append(row_p)
        return eigs, ps

    def _residuals(self, ps):
        # per block: prefix/suffix products and the residual matrix
        k = self.alg.rank
        res = []
        for i in range(k):
            n = self.alg.block_sizes[i]
            pre = [np.eye(n, dtype=complex)]
            for j in range(self.m):
                pre.append(pre[-1] @ ps[j][i])
            suf = [np.eye(n, dtype=complex)]
            for j in range(self.m - 1, -1, -1):
                suf.append(ps[j][i] @ suf[-1])
            suf.reverse()  # suf[j] = p_j ... p_{m-1}
            r = pre[-1] - self.x.blocks[i]
            res.append((pre, suf, r))
        return res

    def value_and_grad(self, theta):
        eigs, ps = self._decompose(theta)
        res = self._residuals(ps)
        val = sum(float(np.linalg.norm(r, "fro") ** 2) for _, _, r in res)
        grads = []
        for j in range(self.m):
            for i in range(self.alg.rank):
                pre, suf, r = res[i]
                c = pre[j].conj().T @ r @ suf[j + 1].conj().T
                w, q = eigs[j][i]
                g = _herm(2.0 * _expm_frechet_herm(w, q, c))
                grads.append(_grad_coords(g))
        return val, np.concatenate(grads)

    def op_residual(self, theta) -> float:
        return op_norm(self.product(theta) - self.x)

    def opnorm_value_and_grad(self, theta):
        """Largest-singular-value residual over blocks; gradient flows
        through the top singular pair of the worst block only."""
        eigs, ps = self._decompose(theta)
        res = self._residuals(ps)
        svds = [np.linalg.svd(r) for _, _, r in res]
        worst = max(range(self.alg.rank), key=lambda i: svds[i][1][0])
        uu, ss, vvh = svds[worst]
        val = float(ss[0])
        wmat = np.outer(uu[:, 0], vvh[0, :].conj())
        grads = []
        for j in range(self.m):
            for i in range(self.alg.rank):
                if i != worst:
                    grads.append(np.zeros(self.alg.block_sizes[i] ** 2))
                    continue
                pre, suf, _ = res[i]
                c = pre[j].conj().T @ wmat @ suf[j + 1].conj().T
                w, q = eigs[j][i]
                g = _herm(_expm_frechet_herm(w, q, c))
                grads.append(_grad_coords(g))
        return val, np.concatenate(grads)


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
    if index == 0:
        try:
            theta = _continuation_start(obj, opt)
        except APFPError:
            # no polar data (singular or non-positive routes); plain start
            theta = _gaussian_start(obj, opt, index)
            theta = _lbfgs(obj.value_and_grad, theta, opt.max_iterations, opt.gradient_tolerance).x
    else:
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
    """Run restarts; return (residual, theta, index).  Selection is the
    first restart (by index) reaching stop_at if any, else the global
    minimum with index tie-break, so serial and threaded runs agree."""
    workers = _worker_count()
    results = []
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda i: _run_restart(obj, opt, i, polish), range(opt.restarts))
            )
    else:
        for i in range(opt.restarts):
            results.append(_run_restart(obj, opt, i, polish))
            if stop_at is not None and results[-1][0] <= stop_at:
                break
    if stop_at is not None:
        for i, (r, th) in enumerate(results):
            if r <= stop_at:
                return r, th, i
    best_i = min(range(len(results)), key=lambda i: (results[i][0], i))
    return results[best_i][0], results[best_i][1], best_i


@dataclass(frozen=True)
class PositiveFactorization:
    """m positive factors with the product's operator-norm residual
    against the target, recomputed on construction."""

    factors: tuple[Element, ...]
    target: Element
    residual: float = field(init=False)
    restarts_used: int = field(default=0, compare=False)

    def __post_init__(self):
        prod = self.target.algebra.identity()
        for p in self.factors:
            if not is_positive(p, 1e-10):
                raise NotPositive("factorization contains a non-positive factor")
            prod = mul(prod, p)
        object.__setattr__(self, "residual", op_norm(prod - self.target))


def factor_positive_products(
    x: Element, m: int = 5, opt: OptimizerConfig | None = None
) -> PositiveFactorization:
    """Factor an invertible member of the closure of P(A) into m positive
    factors by multi-start quasi-Newton descent.

    Restart 0 is a deterministic continuation from the positive part of
    x; later restarts are seeded Gaussian perturbations.  Success is a
    residual within opt.target_residual * op_norm(x); otherwise
    NoConvergence carries the best run found.
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
    if is_positive(x):
        factors = (x,) + tuple(x.algebra.identity() for _ in range(m - 1))
        return PositiveFactorization(factors, x)
    obj = _Objective(x, m)
    target = opt.target_residual * op_norm(x)
    residual, theta, index = _search(obj, opt, polish=False, stop_at=target)
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


def best_approx_distance(x: Element, m: int = 5, opt: OptimizerConfig | None = None) -> float:
    """Best found operator-norm distance from x to products of m positive
    factors: an upper bound on the distance to the closure of P(A).
    Never raises; positive x returns 0."""
    opt = opt or OptimizerConfig()
    if is_positive(x):
        return 0.0
    obj = _Objective(x, m)
    residual, _, _ = _search(obj, opt, polish=True, stop_at=None)
    return float(residual)


def residual_curve(x: Element, ms, opt: OptimizerConfig | None = None):
    """Residuals over a sweep of factor counts; members go through the
    factorizer, everything else through the distance probe."""
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
