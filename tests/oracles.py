"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (power
iteration, Taylor series, brute-force search) so that agreement with the
library is meaningful evidence rather than a tautology.
"""

from fractions import Fraction
from itertools import product

import numpy as np
from scipy.optimize import brentq


def power_iteration_norm(mat, iters: int = 500, seed: int = 7) -> float:
    """Largest singular value via power iteration on mat* mat."""
    m = np.asarray(mat, dtype=complex)
    if m.size == 0 or not m.any():
        return 0.0
    gram = m.conj().T @ m
    rng = np.random.default_rng(seed)
    v = rng.normal(size=gram.shape[0]) + 1j * rng.normal(size=gram.shape[0])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        cur = float(np.real(np.vdot(v, gram @ v)))
        if abs(cur - prev) <= 1e-15 * max(cur, 1.0):
            break
        prev = cur
    return float(np.sqrt(max(cur, 0.0)))


def taylor_expm(mat, terms: int = 24):
    """Matrix exponential by scaling, plain Taylor summation, and squaring."""
    m = np.asarray(mat, dtype=complex)
    scale = max(float(np.linalg.norm(m, ord="fro")), 1e-30)
    k = max(0, int(np.ceil(np.log2(scale))) + 4)
    small = m / (2.0**k)
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for j in range(1, terms):
        term = term @ small / j
        acc = acc + term
    for _ in range(k):
        acc = acc @ acc
    return acc


def closure_distance(blocks) -> float:
    """Operator-norm distance to {y : det y_i >= 0 in every block}, the
    largest over blocks of the root r of sum_j arcsin(min(1, r / s_j)) =
    phi (s from a plain SVD, phi the distance from arg det to 2 pi Z, from
    numpy's det) by brentq, or of s_n when the sum at s_n falls short."""
    out = 0.0
    for b in blocks:
        s = np.linalg.svd(b, compute_uv=False)
        phi = abs(np.angle(np.linalg.det(b)))
        turn = lambda r: np.arcsin(np.minimum(1.0, r / s)).sum() - phi
        if turn(s[-1]) <= 0:
            out = max(out, s[-1])
        else:
            out = max(out, brentq(turn, 0.0, s[-1], xtol=1e-300, rtol=1e-15))
    return float(out)


def logdet_along_path(block_samples) -> complex:
    """Continuous branch of log det along a finely sampled matrix path.

    Accumulates principal logarithms of successive determinant ratios; the
    sampling must be fine enough that each ratio stays away from the negative
    real axis.
    """
    dets = [complex(np.linalg.det(np.asarray(b, dtype=complex))) for b in block_samples]
    total = 0.0 + 0.0j
    for a, b in zip(dets, dets[1:]):
        ratio = b / a
        assert abs(np.angle(ratio)) < 3.0, "oracle sampling too coarse"
        total += complex(np.log(ratio))
    return total


def _traceless_basis(n: int):
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                basis.append(e)
    for k in range(n - 1):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        e[k + 1, k + 1] = -1.0
        basis.append(e)
    return basis


def brute_force_commutant_distance(mat, seed: int = 0, rounds: int = 40) -> float:
    """Upper bound on the operator-norm distance from mat to traceless matrices.

    Random multi-start coordinate descent over a traceless basis.  The result
    is a valid upper bound for the true distance; with enough rounds it lands
    close to the optimum for the small blocks used in tests.
    """
    from scipy.optimize import minimize

    m = np.asarray(mat, dtype=complex)
    basis = _traceless_basis(m.shape[0])
    dim = 2 * len(basis)

    def objective(x):
        y = np.zeros_like(m)
        for k, e in enumerate(basis):
            y = y + (x[2 * k] + 1j * x[2 * k + 1]) * e
        return float(np.linalg.norm(m - y, ord=2))

    rng = np.random.default_rng(seed)
    best = objective(np.zeros(dim))
    for r in range(rounds):
        x0 = rng.normal(scale=1.0 + 0.5 * r, size=dim) if r else np.zeros(dim)
        res = minimize(objective, x0, method="Powell", options={"maxiter": 4000, "xtol": 1e-10, "ftol": 1e-12})
        best = min(best, float(res.fun))
    return best


def nearest_lattice_point(values, generators, radius: int = 6):
    """Brute-force nearest point of the integer span of generator tuples.

    values and generators hold Fractions; returns (distance, coefficients)
    minimizing the max-norm, scanning integer coefficients in a box.
    """
    k = len(generators)
    best = None
    best_coeffs = None
    for coeffs in product(range(-radius, radius + 1), repeat=k):
        cand = [Fraction(0)] * len(values)
        for c, gen in zip(coeffs, generators):
            for i, g in enumerate(gen):
                cand[i] += c * g
        dist = max(abs(v - c) for v, c in zip(values, cand))
        if best is None or dist < best:
            best = dist
            best_coeffs = coeffs
    return best, best_coeffs


def pointwise_value(path, t: float):
    """A path's value at one t, one matrix per block, by the per-point
    formula of its kind: one exponential, SVD or logarithm per block and
    point.  The package evaluates whole stacks of points with batched
    calls; those must give these values bit for bit."""
    import scipy.linalg as sla

    from apfp.algebra import _herm, _is_herm

    kind = type(path).__name__
    if kind == "ExpLine":
        out = []
        for b in path.c.blocks:
            if _is_herm(b):
                w, q = np.linalg.eigh(_herm(b))
                out.append((q * np.exp(t * w)) @ q.conj().T)
            elif _is_herm(-1j * b):
                w, q = np.linalg.eigh(_herm(-1j * b))
                out.append((q * np.exp(1j * t * w)) @ q.conj().T)
            else:
                out.append(sla.expm(t * b))
        return out
    if kind == "ProductPolar":
        out = []
        for cb, db in zip(path.c.blocks, path.d.blocks):
            (wc, qc), (wd, qd) = np.linalg.eigh(_herm(cb)), np.linalg.eigh(_herm(db))
            g = ((qc * np.exp(t * wc)) @ qc.conj().T) @ ((qd * np.exp(t * wd)) @ qd.conj().T)
            v, _, wh = np.linalg.svd(g)
            out.append(v @ wh)
        return out
    if kind == "Sampled":
        times = [s for s, _ in path.samples]
        j = int(np.searchsorted(times, t))
        if j < len(times) and times[j] == t:
            return list(path.samples[j][1].blocks)
        j = max(0, min(j - 1, len(times) - 2))
        (t0, a), (t1, b) = path.samples[j], path.samples[j + 1]
        s = (t - t0) / (t1 - t0)
        return [ab @ sla.expm(s * sla.logm(np.linalg.solve(ab, bb))) for ab, bb in zip(a.blocks, b.blocks)]
    if kind == "PointwiseProduct":
        return [a @ b for a, b in zip(pointwise_value(path.first, t), pointwise_value(path.second, t))]
    if kind == "Concatenation":
        joint = path.first.domain[1]
        if t < joint:
            return pointwise_value(path.first, t)
        return pointwise_value(path.second, path.second.domain[0] + (t - joint))
    if kind == "Reversal":
        t1, t2 = path.inner.domain
        return pointwise_value(path.inner, t1 + t2 - t)
    raise ValueError(f"unknown path kind {kind}")


def depth_first_split(path, max_step_norm: float = 0.5, max_segments: int = 2**16):
    """The dyadic exponential splitting evaluated one point at a time:
    intervals are refined depth first from a stack, each value comes from
    pointwise_value and is checked for unitarity when first read, and the
    logs are taken in a second pass over the accepted intervals.  Returns
    (partition, logs, endpoint), logs and endpoint as Elements."""
    from apfp import Element, adjoint, log_unitary_principal, mul, op_norm
    from apfp.errors import NotUnitaryPath, PartitionOverflow

    t1, t2 = path.domain
    values = {}

    def at(s):
        if s not in values:
            t = t1 + (t2 - t1) * s
            v = Element(path.algebra, tuple(pointwise_value(path, t)))
            for b in v.blocks:
                sv = np.linalg.svd(b, compute_uv=False)
                if np.abs(sv**2 - 1).max() > 1e-8:
                    raise NotUnitaryPath(f"path value at t={t} is not unitary")
            values[s] = v
        return values[s]

    if op_norm(at(0.0) - path.algebra.identity()) > 1e-8:
        raise ValueError("the path does not start at the identity")
    pending = [(0.0, 1.0)]
    accepted = []
    count = 1
    while pending:
        a, b = pending.pop()
        if op_norm(mul(adjoint(at(a)), at(b)) - path.algebra.identity()) <= max_step_norm:
            accepted.append((a, b))
            continue
        count += 1
        if count > max_segments:
            raise PartitionOverflow(f"dyadic refinement would exceed {max_segments} segments")
        mid = 0.5 * (a + b)
        pending.append((mid, b))
        pending.append((a, mid))
    accepted.sort()
    logs = [log_unitary_principal(mul(adjoint(at(a)), at(b))) for a, b in accepted]
    partition = tuple(t1 + (t2 - t1) * s for s, _ in accepted) + (t2,)
    return partition, logs, at(1.0)


def per_candidate_construct(x, m: int, seed: int):
    """The closed-form factors of a member x (m >= 4) with the candidates
    of each block tried one after another: each draws its first vectors
    from the block's generator as it runs, one that raises LinAlgError
    is skipped, and a later one wins only with a strictly smaller finite
    norm.  The route of each block is the package's own (_lead).  The
    package runs all candidates as one stack; its factors must equal
    these bit for bit."""
    from apfp import Element
    from apfp.algebra import _herm
    from apfp.factorization import CONSTRUCTION_CANDIDATES, _lead, _ramp

    def triangular_eigvecs(t):
        n = len(t)
        d = np.diag(t)
        v = np.eye(n, dtype=complex)
        for i in range(n - 2, -1, -1):
            v[i, i + 1 :] = (t[i, i + 1 :] @ v[i + 1 :, i + 1 :]) / (d[i + 1 :] - d[i])
        return v

    def wu_pair(v, lam):
        v = v / np.linalg.norm(v, axis=0)
        vi = np.linalg.inv(v)
        return [_herm((v * lam) @ v.conj().T), _herm(vi.conj().T @ vi)]

    def sourour_wu(t, beta, rng):
        n = len(t)
        pivot = np.exp(np.linalg.slogdet(t)[1] / n)
        x = np.eye(n, dtype=complex)
        s = t
        for k in range(n - 1):
            v = rng.normal(size=n - k) + 1j * rng.normal(size=n - k)
            g = np.stack([v, s @ v], axis=1)
            w = g @ np.linalg.solve(g.conj().T @ g, [1.0, pivot])
            q, _ = np.linalg.qr(np.column_stack([w, np.eye(n - k)]))
            y = np.column_stack([v, q[:, 1:]])
            x[:, k:] = x[:, k:] @ y
            a = np.linalg.solve(y, s @ y)
            s = a[1:, 1:] - np.outer(a[1:, 0], a[0, 1:]) / a[0, 0]
        u = np.linalg.solve(x, t @ x)
        lower = np.eye(n, dtype=complex)
        for k in range(n - 1):
            lower[k + 1 :, k] = u[k + 1 :, k] / u[k, k]
            u[k + 1 :] -= np.outer(lower[k + 1 :, k], u[k])
        d = np.diag(u).copy()
        gamma = np.abs(d) / beta
        b = lower * beta
        c = gamma[:, None] * (u / d[:, None])
        vb = triangular_eigvecs(b[::-1, ::-1])[::-1, ::-1]
        return wu_pair(x @ vb, beta) + wu_pair(x @ triangular_eigvecs(c), gamma)

    def balanced(factors):
        stack = np.array(factors)
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
        mean = float(np.exp(np.mean(np.log(norms))))
        return list(stack * (mean / norms)[:, None, None]), mean

    def block(t, rng):
        route = _lead(t, m)
        if route is None:
            return None
        lead, t = route
        if t is None:
            return lead
        n = len(t)
        beta = np.exp(np.linalg.slogdet(t)[1] / (2 * n)) * _ramp(n)
        best, best_norm = None, np.inf
        for _ in range(CONSTRUCTION_CANDIDATES):
            try:
                factors, norm = balanced(lead + sourour_wu(t, beta, rng))
            except np.linalg.LinAlgError:
                continue
            if norm < best_norm:
                best, best_norm = factors, norm
        return best

    per_block = []
    for i, (t, n) in enumerate(zip(x.blocks, x.algebra.block_sizes)):
        factors = block(t, np.random.default_rng((seed, i)))
        if factors is None:
            return None
        per_block.append(factors + [np.eye(n, dtype=complex)] * (m - len(factors)))
    return tuple(Element(x.algebra, tuple(b[j] for b in per_block)) for j in range(m))
