"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (power
iteration, Taylor series, brute-force search) so that agreement with the
library is meaningful evidence rather than a tautology.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.optimize import brentq, minimize


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


def turn_radius_by_bisection(sv, phi: float) -> float:
    """The smallest float r with sum_j arcsin(min(1, r / s_j)) >= phi (the
    package's own turn, factorization._turn), by bisection in floats from
    [0, s_n] down to adjacent floats, for phi > 0 and a turn at s_n above
    phi.  The package starts from Newton steps instead; it must land on
    the same float."""
    from apfp.factorization import _turn

    lo, hi = 0.0, sv[-1]
    while lo < lo + 0.5 * (hi - lo) < hi:
        mid = lo + 0.5 * (hi - lo)
        lo, hi = (lo, mid) if _turn(sv, mid) >= phi else (mid, hi)
    return hi


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


def hermitian_at_full_scale(m, rtol=1e-13) -> bool:
    """Whether every entry of m - m* is within rtol max(1, max |m_ij|),
    compared at full scale, where m - m* and |m_ij| may overflow: a
    matrix whose moduli overflow reads as hermitian.  algebra._symmetry
    compares at half scale; on every m whose moduli do not overflow, its
    "h" must agree with this, and its "s" with this on -1j m."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, float(np.abs(m).max()))
        return float(np.abs(m - m.conj().T).max()) <= rtol * scale


def pointwise_value(path, t: float):
    """A path's value at one t, one matrix per block, by the per-point
    formula of its kind: one exponential, SVD or logarithm per block and
    point.  The package evaluates whole stacks of points with batched
    calls; those must give these values bit for bit."""
    import scipy.linalg as sla

    from apfp.algebra import _herm

    kind = type(path).__name__
    if kind == "ExpLine":
        out = []
        for b in path.c.blocks:
            if hermitian_at_full_scale(b):
                w, q = np.linalg.eigh(_herm(b))
                out.append((q * np.exp(t * w)) @ q.conj().T)
            elif hermitian_at_full_scale(-1j * b):
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
    from apfp import Element, adjoint, log_unitary_principal, op_norm
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
        if op_norm(adjoint(at(a)) @ at(b) - path.algebra.identity()) <= max_step_norm:
            accepted.append((a, b))
            continue
        count += 1
        if count > max_segments:
            raise PartitionOverflow(f"dyadic refinement would exceed {max_segments} segments")
        mid = 0.5 * (a + b)
        pending.append((mid, b))
        pending.append((a, mid))
    accepted.sort()
    logs = [log_unitary_principal(adjoint(at(a)) @ at(b)) for a, b in accepted]
    partition = tuple(t1 + (t2 - t1) * s for s, _ in accepted) + (t2,)
    return partition, logs, at(1.0)


def per_candidate_construct(x, m: int, seed: int):
    """The closed-form factors of a member x (m >= 4) with the candidates
    of each block tried one after another: each draws its first vectors
    from the block's generator as it runs, one that raises LinAlgError
    is skipped, and a later one wins only with a strictly smaller finite
    norm.  The route of each block is the package's own (_lead), and so
    are its scale (each block over the power of two 2^e at or above its
    own norm, then 2^e spread over the block's factors) and log |det|.  The
    package runs all candidates as one stack; its factors must equal
    these bit for bit."""
    from apfp import Element
    from apfp.determinant import log_det
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

    def sourour_wu(t, logabs, rng):
        n = len(t)
        pivot = np.exp(logabs / n)
        beta = np.exp(logabs / (2 * n)) * _ramp(n)
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

    def block(t, rng, logabs):
        route = _lead(t, m)
        if route is None:
            return None
        lead, t = route
        if t is None:
            return lead
        best, best_norm = None, np.inf
        for _ in range(CONSTRUCTION_CANDIDATES):
            try:
                factors, norm = balanced(lead + sourour_wu(t, logabs, rng))
            except np.linalg.LinAlgError:
                continue
            if norm < best_norm:
                best, best_norm = factors, norm
        return best

    logs = log_det(x).coords
    per_block = []
    for i, (t, n) in enumerate(zip(x.blocks, x.algebra.block_sizes)):
        e = min(max(math.frexp(np.linalg.norm(t, 2))[1], -1022), 1022)
        factors = block(t * 2.0**-e, np.random.default_rng((seed, i)), logs[i].real - n * e * math.log(2))
        if factors is None:
            return None
        spread = 2.0 ** (e / len(factors))
        per_block.append([spread * p for p in factors] + [np.eye(n, dtype=complex)] * (m - len(factors)))
    return tuple(Element(x.algebra, tuple(b[j] for b in per_block)) for j in range(m))


def element_residual(factors, target) -> float:
    """op_norm(f_1 ... f_m - target) in Element arithmetic: the product
    taken from the identity one factor at a time, the difference as
    prod + (-1.0 * target).  The package reads the residual from one
    (m, n_i, n_i) stack per block; it must equal this bit for bit."""
    from apfp import op_norm

    prod = target.algebra.identity()
    for f in factors:
        prod = prod @ f
    return op_norm(prod - target)


def project_traceless(x):
    """Nearest point of the traceless elements to x in the operator norm:
    each block less its normalized trace times the identity."""
    from apfp import Element

    return Element(
        x.algebra,
        tuple(b - (np.trace(b) / n) * np.eye(n) for b, n in zip(x.blocks, x.algebra.block_sizes)),
    )


def memoized_lbfgs(value_and_grad, x0, maxiter, gtol):
    """L-BFGS-B through scipy's own route for an objective that returns
    (value, gradient): jac=True, which wraps it in scipy's MemoizeJac,
    with the package's options.  The package hands scipy two callables
    that share one evaluation; its runs must equal these bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        return minimize(
            value_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            options=dict(maxiter=maxiter, maxcor=50, maxls=60, ftol=1e-18, gtol=gtol),
        )


def concatenated_coordinates(h):
    """(m, n, n) stack of hermitian matrices -> (m, n^2) coordinates, as
    three pieces joined: the real diagonal, then the real and the
    imaginary parts of the strict upper triangle in row-major order."""
    rows, cols = np.triu_indices(h.shape[-1], 1)
    upper = h[:, rows, cols]
    diag = np.diagonal(h, axis1=1, axis2=2)
    return np.concatenate([np.real(diag), np.real(upper), np.imag(upper)], axis=1)


def positive_at_by_svd(blocks, tols):
    """is_positive(v, tol) at each point v of a stack, tols a scalar or
    one per point, with one SVD of the skew part v/2 - v*/2 and one
    eigvalsh of (v + v*)/2 for every block stack, exactly hermitian or
    not.  algebra._positive_at lets an entry of v/2 - v*/2 decide first,
    skips the SVD of an exactly zero skew part and stops at the first
    block that says no; its verdict must equal .all() of these."""
    ok = np.ones(len(blocks[0]), dtype=bool)
    for b in blocks:
        half = 0.5 * b
        half_h = half.conj().swapaxes(-1, -2)
        ok &= ~(np.linalg.svd(half - half_h, compute_uv=False)[:, 0] > 0.5 * tols)
        ok &= ~(np.linalg.eigvalsh(half + half_h)[:, 0] < -tols)
    return ok


def identity_at_by_svd(blocks, tol):
    """op_norm(v - 1) <= tol at each point v of a stack, from one
    2-norm (an SVD) per block and point.  algebra._identity_at lets an
    entry of v - 1 decide first; its verdict must equal .all() of these."""
    return np.array(
        [max(np.linalg.norm(b[k] - np.eye(len(b[k])), 2) for b in blocks) for k in range(len(blocks[0]))]
    ) <= tol


def det_path_flags(path, endpoint_tol: float) -> dict:
    """det-path's three flags on its 9 equally spaced points by SVDs
    alone: identity_at_by_svd at both endpoints, unitarity from the
    singular values of the 9, positivity from positive_at_by_svd.  The
    package lets one entry of v - 1 or of v/2 - v*/2 decide first; its
    flags must equal these."""
    from apfp.algebra import _op_norms, _unitarity_defects
    from apfp.determinant import evaluate_many

    t1, t2 = path.domain
    grid = evaluate_many(path, np.linspace(t1, t2, 9))
    tols = 1e-8 * np.maximum(1.0, _op_norms(grid.svals))
    return {
        "is_loop": bool(identity_at_by_svd([b[[0, -1]] for b in grid.blocks], endpoint_tol).all()),
        "is_unitary": not _unitarity_defects(grid.svals).any(),
        "is_positive": bool(positive_at_by_svd(grid.blocks, tols).all()),
    }


def det_path_mix(rng):
    """One path of each kind the determinants benchmark runs det-path on,
    drawn the way it draws them, by kind name."""
    import scipy.linalg as sla

    from apfp import AlgebraDescriptor, Concatenation, Element, ExpLine, PointwiseProduct, ProductPolar
    from apfp import Reversal, Sampled, op_norm
    from apfp.sampling import random_element, random_self_adjoint

    M23 = AlgebraDescriptor((2, 3))

    def gen():
        return random_element(M23, rng, scale=0.5)

    def unit(v):
        return (0.5 / op_norm(v)) * v

    c, d = (random_self_adjoint(M23, rng, norm=float(rng.uniform(1.0, 2.0))) for _ in range(2))
    paths = {"ProductPolar": ProductPolar(c, d), "ExpLine": ExpLine(gen())}
    c, d = unit(gen()), unit(gen())
    samples = []
    for t in np.linspace(0.0, 1.0, 9):
        g = [sla.expm(t * cb) @ sla.expm(t * db) for cb, db in zip(c.blocks, d.blocks)]
        samples.append((float(t), Element(M23, tuple(g))))
    paths["Sampled"] = Sampled(tuple(samples))
    paths["PointwiseProduct"] = PointwiseProduct(ExpLine(gen()), ExpLine(gen()))
    paths["Concatenation"] = Concatenation(ExpLine(gen()), ExpLine(gen()))
    paths["Reversal"] = Reversal(ExpLine(gen()))
    gens = []
    for w, n in zip(rng.integers(-3, 4, size=2), (2, 3)):
        g = np.zeros((n, n), dtype=complex)
        g[0, 0] = 2j * np.pi * w
        gens.append(g)
    paths["loop"] = ExpLine(Element(M23, tuple(gens)))
    return paths
