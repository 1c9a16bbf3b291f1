"""Checks of the program's outputs, computed apart from the program.

Every check here uses numpy alone: no function of `apfp` is called, and
no stored copy of an earlier output is consulted.  Elements are parsed
from the README file format ({"blocks": [[[re, im], ...], ...]}) by
`blocks_from_obj`, which shares no code with `apfp.serialize`.  A check
returns nothing when the output is right and raises `CheckFailed`
otherwise.
"""

from __future__ import annotations

import json

import numpy as np

TWO_PI = 2.0 * np.pi


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def blocks_from_obj(obj):
    return [
        np.array([[complex(re, im) for re, im in row] for row in b], dtype=complex)
        for b in obj["blocks"]
    ]


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def norm(blocks):
    """C*-norm of a block element: the largest blockwise spectral norm."""
    return max(float(np.linalg.norm(b, 2)) for b in blocks)


def wrap_phase(a):
    """Representative of a modulo 2 pi in (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - a, TWO_PI))


def det_angles(blocks):
    return [float(np.angle(np.linalg.det(b))) for b in blocks]


def coords(trace_obj):
    return [complex(re, im) for re, im in trace_obj["coords"]]


def traces(blocks):
    return [complex(np.trace(b)) for b in blocks]


def exp_herm(h):
    w, q = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (q * np.exp(w)) @ q.conj().T


def exp_i_herm(h):
    w, q = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (q * np.exp(1j * w)) @ q.conj().T


def polar_unitary(g):
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def distance_bracket(x):
    """Closed-form bracket on the distance from x to the closure of the
    products of positives: the lower end is max_i s_min(x_i) sin(min(phi_i
    / n_i, pi/2)) with phi_i the distance of arg det x_i to 2 pi Z; the
    upper end is min(||x||, ||x - |x|||), the distances to 0 and to |x|."""
    lower = 0.0
    for b in x:
        phi = abs(wrap_phase(np.angle(np.linalg.det(b))))
        s_min = float(np.linalg.svd(b, compute_uv=False)[-1])
        lower = max(lower, s_min * np.sin(min(phi / len(b), np.pi / 2)))
    gap = []
    for b in x:
        w, q = np.linalg.eigh(b.conj().T @ b)
        gap.append(b - (q * np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T)
    return lower, min(norm(x), norm(gap))


# ---------------------------------------------------------------------------
# apfp factor, on members


def check_factorization(x, code, report, m):
    """`apfp factor` on a member: m positive factors whose product is x."""
    require(code == 0, f"exit code {code}, expected 0")
    res = report["results"]
    xn = norm(x)
    for got, want in zip(res["det_phases"], det_angles(x)):
        require(abs(wrap_phase(got - want)) <= 1e-9, f"det phase {got} against {want}")
    for a in det_angles(x):
        require(abs(a) <= 1e-9, f"input is no member: angle(det) = {a:.3e}")
    require(res["member"] is True, "member is not true")
    fac = res["factorization"]
    factors = [blocks_from_obj(f) for f in fac["factors"]]
    require(len(factors) == m, f"{len(factors)} factors, expected {m}")
    prod = [np.eye(len(b), dtype=complex) for b in x]
    for f in factors:
        fn = norm(f)
        for b in f:
            require(
                np.linalg.norm(b - b.conj().T, 2) <= 1e-10 * fn, "factor is not hermitian"
            )
            lowest = float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0])
            require(lowest >= -1e-10 * fn, f"factor eigenvalue {lowest:.3e} is negative")
        prod = [p @ b for p, b in zip(prod, f)]
    residual = norm([p - b for p, b in zip(prod, x)])
    require(residual <= 1e-6 * xn, f"product misses x by {residual / xn:.3e} relative")
    require(
        abs(fac["residual"] - residual) <= 1e-10 * xn,
        f"reported residual {fac['residual']:.6e} against recomputed {residual:.6e}",
    )


# ---------------------------------------------------------------------------
# apfp factor, on non-members


def check_distance_probe(x, code, report, expected=None, expected_tol=None):
    """`apfp factor` on a non-member: exit 4, the determinant phases, and
    a probe distance inside the closed-form bracket (and near `expected`
    when the exact distance is known)."""
    require(code == 4, f"exit code {code}, expected 4")
    res = report["results"]
    require(res["member"] is False, "member is not false")
    for got, want in zip(res["det_phases"], det_angles(x), strict=True):
        require(abs(wrap_phase(got - want)) <= 1e-9, f"det phase {got} against {want}")
    dist = res["distance_probe"]
    lower, upper = distance_bracket(x)
    require(dist >= lower * (1 - 1e-12), f"distance {dist!r} below the lower bound {lower!r}")
    # the probe is a minimizer's value (gradient tolerance 1e-10): where the
    # upper end is the exact distance, as for -1 in M1, it lands 1e-11 to
    # 7e-11 above it
    slack = 1e-9 * max(1.0, norm(x))
    require(dist <= upper + slack, f"distance {dist!r} above the upper bound {upper!r}")
    if expected is not None:
        require(abs(dist - expected) <= expected_tol, f"distance {dist!r}, expected {expected}")


# ---------------------------------------------------------------------------
# apfp det-path


def _det_coords(code, report):
    require(code == 0, f"exit code {code}, expected 0")
    return coords(report["results"]["determinant"])


def check_path_value(code, report, want, tol):
    """Path determinant equal, block by block, to a known trace vector."""
    got = _det_coords(code, report)
    require(len(got) == len(want), "wrong number of blocks")
    for g, w in zip(got, want):
        require(abs(g - w) <= tol, f"determinant {g} against {w}")


def check_polar_path(code, report):
    """The polar unitary path of e^{tc} e^{td} has determinant 0."""
    for g in _det_coords(code, report):
        require(abs(g) <= 1e-7, f"polar path determinant {g} is not 0")


def sampled_determinant(samples):
    """Sum over segments of log det(a_j^{-1} a_{j+1}), principal branch."""
    total = np.zeros(len(samples[0]), dtype=complex)
    for a, b in zip(samples, samples[1:]):
        total += [np.log(np.linalg.det(np.linalg.solve(ab, bb))) for ab, bb in zip(a, b)]
    return list(total)


def check_loop(code, report, windings, sizes):
    """exp(2 pi i w E_11) per block: delta_1_0 reads w_i / n_i."""
    require(code == 0, f"exit code {code}, expected 0")
    res = report["results"]
    require(res["is_loop"] is True, "loop not recognised")
    got = res["delta_1_0"]["values"]
    for g, w, n in zip(got, windings, sizes, strict=True):
        require(abs(g - w / n) <= 1e-6, f"delta_1_0 {g} against {w}/{n}")


# ---------------------------------------------------------------------------
# apfp membership and the library calls


def check_membership(x, code, report):
    require(code == 0, f"exit code {code}, expected 0")
    res = report["results"]
    want = det_angles(x)
    for got, w in zip(res["det_phases"], want, strict=True):
        require(abs(wrap_phase(got - w)) <= 1e-9, f"det phase {got} against {w}")
    member = all(abs(a) <= res["tol"] for a in want)
    require(res["member"] is member, f"member {res['member']}, expected {member}")


def check_element_determinant(x, value_coords):
    """determinant_mod_lattice: blockwise log det x_i modulo 2 pi i."""
    for got, b in zip(value_coords, x, strict=True):
        want = np.log(np.linalg.det(b))
        gap = complex(got.real - want.real, wrap_phase(got.imag - want.imag))
        require(abs(gap) <= 1e-8, f"element determinant {got} against log det {want}")


def check_splitting(c, d, logs):
    """Steps e^{i h_k} within 1/2 of 1, whose product is the polar part
    of e^c e^d, and whose logs have a trace sum of quotient norm 0."""
    prod = [np.eye(len(b), dtype=complex) for b in c]
    trace_sum = np.zeros(len(c), dtype=complex)
    for h in logs:
        for i, hb in enumerate(h):
            require(np.linalg.norm(hb - hb.conj().T, 2) <= 1e-10, "log is not hermitian")
            step = exp_i_herm(hb)
            gap = np.linalg.norm(step - np.eye(len(hb)), 2)
            require(gap <= 0.5, f"step {gap:.3f} from the identity exceeds 1/2")
            prod[i] = prod[i] @ step
            trace_sum[i] += np.trace(hb)
    target = [polar_unitary(exp_herm(cb) @ exp_herm(db)) for cb, db in zip(c, d)]
    err = norm([p - t for p, t in zip(prod, target)])
    require(err <= 1e-8, f"steps reproduce the polar part only to {err:.3e}")
    qn = max(abs(s) / len(b) for s, b in zip(trace_sum, c))
    require(qn <= 1e-7, f"trace sum has quotient norm {qn:.3e}")
