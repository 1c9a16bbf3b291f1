"""Block-algebra arithmetic against independent oracles and closed forms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apfp import (
    AlgebraDescriptor,
    Element,
    TraceValue,
    adjoint,
    exp_element,
    is_positive,
    log_positive,
    log_unitary_principal,
    op_norm,
    polar,
    quotient_norm,
    universal_trace,
)
from apfp.errors import BranchCut, DescriptorMismatch, NotPositive, SingularInput
from apfp.sampling import (
    random_element,
    random_positive,
    random_self_adjoint,
    random_unitary,
    rng_from,
)

from oracles import power_iteration_norm, project_traceless, taylor_expm

M1 = AlgebraDescriptor((1,))
M2 = AlgebraDescriptor((2,))
M3 = AlgebraDescriptor((3,))
M23 = AlgebraDescriptor((2, 3))

ALGEBRAS = st.sampled_from([M1, M2, M3, M23])
SEEDS = st.integers(min_value=0, max_value=10**6)


def elem(alg, *blocks):
    return Element(alg, tuple(np.array(b, dtype=complex) for b in blocks))


# ---------------------------------------------------------------------------
# arithmetic


def test_adjoint_of_identity():
    one = M23.identity()
    assert op_norm(adjoint(one) - one) == 0.0


def test_adjoint_is_entrywise_conjugate_transpose():
    x = elem(M2, [[1 + 2j, 3], [4j, 5]])
    xs = adjoint(x)
    expected = np.array([[1 - 2j, -4j], [3, 5]])
    assert np.array_equal(xs.blocks[0], expected)


def test_adjoint_reverses_products():
    rng = rng_from(3)
    x = random_element(M23, rng)
    y = random_element(M23, rng)
    lhs = adjoint(x @ y)
    rhs = adjoint(y) @ adjoint(x)
    assert op_norm(lhs - rhs) <= 1e-14 * op_norm(x) * op_norm(y)


def test_operators_are_the_blockwise_numpy_expressions():
    rng = rng_from(7)
    x = random_element(M23, rng)
    y = random_element(M23, rng)
    pairs = list(zip(x.blocks, y.blocks))
    cases = [
        (x + y, [a + b for a, b in pairs]),
        (x - y, [a + (-1.0 * b) for a, b in pairs]),
        (-x, [-1.0 * a for a in x.blocks]),
        (x @ y, [a @ b for a, b in pairs]),
    ] + [(lam * x, [lam * a for a in x.blocks]) for lam in (2.5, -1.0, 0.5 - 1.5j, np.float64(3.0))]
    for got, want in cases:
        assert got.algebra == M23
        assert [g.tobytes() for g in got.blocks] == [w.tobytes() for w in want]


def test_commutator_closed_form():
    x = elem(M2, [[1, 0], [0, 2]])
    y = elem(M2, [[0, 1], [0, 0]])
    expected = elem(M2, [[0, -1], [0, 0]])
    assert op_norm(x @ y - y @ x - expected) == 0.0


def test_mixed_algebras_rejected():
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
        with pytest.raises(DescriptorMismatch):
            op(M2.identity(), M3.identity())


def test_element_shape_validation():
    with pytest.raises(DescriptorMismatch):
        elem(M23, [[1, 0], [0, 1]])  # one block given, two expected


# ---------------------------------------------------------------------------
# operator norm against power iteration


def test_op_norm_identity_and_diagonal():
    assert op_norm(M23.identity()) == 1.0
    x = elem(M2, [[3, 0], [0, -4]])
    assert op_norm(x) == 4.0


def test_op_norm_matches_power_iteration():
    rng = rng_from(17)
    for _ in range(5):
        x = random_element(M23, rng)
        oracle = max(power_iteration_norm(b) for b in x.blocks)
        assert abs(op_norm(x) - oracle) <= 1e-10 * max(oracle, 1.0)


@given(SEEDS, ALGEBRAS, SEEDS, ALGEBRAS)
def test_op_norm_submultiplicative(s1, a1, s2, a2):
    alg = a1 if a1.rank >= a2.rank else a2
    x = random_element(alg, rng_from(s1))
    y = random_element(alg, rng_from(s2))
    assert op_norm(x @ y) <= op_norm(x) * op_norm(y) * (1 + 1e-12)


@given(SEEDS, ALGEBRAS)
def test_op_norm_star_invariant(seed, alg):
    x = random_element(alg, rng_from(seed))
    assert abs(op_norm(adjoint(x)) - op_norm(x)) <= 1e-13 * max(op_norm(x), 1.0)


# ---------------------------------------------------------------------------
# positivity and polar decomposition


def test_is_positive_examples():
    assert is_positive(M23.identity())
    assert not is_positive(elem(M2, [[1, 0], [0, -1]]))
    rng = rng_from(23)
    y = random_element(M23, rng)
    assert is_positive(adjoint(y) @ y)


def test_is_positive_rejects_non_selfadjoint(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    assert not is_positive(elem(M2, [[1, 1], [0, 1]]))
    # the defect of v - v* decides it: no eigenvalue is computed
    assert shapes == []
    assert is_positive(M23.identity())
    assert shapes == [(1, 2, 2), (1, 3, 3)]


def test_is_positive_near_overflow():
    big = 1.5e308
    # x - x* overflows in the second block: not positive
    x = elem(M23, np.eye(2), [[0, big, 0], [-big, 0, 0], [0, 0, 1]])
    assert not is_positive(x)
    # x + x* would overflow; the hermitian part x/2 + x*/2 does not
    assert is_positive(elem(M2, [[big, 0], [0, big]]))
    assert not is_positive(elem(M2, [[big, 0], [0, -big]]))


def test_polar_of_positive_is_trivial():
    rng = rng_from(29)
    a = random_positive(M23, rng)
    u, p = polar(a)
    assert op_norm(u - M23.identity()) <= 1e-10
    assert op_norm(p - a) <= 1e-10 * op_norm(a)


def test_polar_of_negative_scalar():
    u, p = polar(elem(M1, [[-2.0]]))
    assert complex(u.blocks[0][0, 0]) == pytest.approx(-1.0)
    assert complex(p.blocks[0][0, 0]) == pytest.approx(2.0)


def test_polar_against_svd_oracle():
    rng = rng_from(31)
    x = random_element(M23, rng)
    u, p = polar(x)
    for xb, ub, pb in zip(x.blocks, u.blocks, p.blocks):
        v, s, wt = np.linalg.svd(xb)
        assert np.linalg.norm(ub - v @ wt, 2) <= 1e-12 * max(s)
        assert np.linalg.norm(pb - wt.conj().T @ np.diag(s) @ wt, 2) <= 1e-12 * max(s)


@given(SEEDS, ALGEBRAS)
def test_polar_reconstruction_and_structure(seed, alg):
    x = random_element(alg, rng_from(seed)) + 3.0 * alg.identity()
    u, p = polar(x)
    scale = op_norm(x)
    assert op_norm(u @ p - x) <= 1e-10 * scale
    assert op_norm(adjoint(u) @ u - alg.identity()) <= 1e-10
    assert is_positive(p)


def test_polar_rejects_singular():
    with pytest.raises(SingularInput):
        polar(elem(M2, [[1, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# exponentials and logarithms


def test_exp_of_zero():
    assert op_norm(exp_element(M23.zero()) - M23.identity()) == 0.0


def test_exp_matches_taylor_oracle():
    rng = rng_from(37)
    for builder in (random_element, random_self_adjoint):
        x = builder(M23, rng)
        y = exp_element(x)
        for xb, yb in zip(x.blocks, y.blocks):
            assert np.linalg.norm(yb - taylor_expm(xb), 2) <= 1e-11 * np.linalg.norm(yb, 2)


def test_log_positive_closed_form():
    a = elem(M2, [[np.e, 0], [0, 1.0]])
    h = log_positive(a)
    expected = elem(M2, [[1, 0], [0, 0]])
    assert op_norm(h - expected) <= 1e-14


def test_log_positive_rejects_indefinite():
    with pytest.raises(NotPositive):
        log_positive(elem(M2, [[1, 0], [0, -1]]))


@given(SEEDS, ALGEBRAS, st.floats(min_value=0.1, max_value=5.0))
def test_exp_log_round_trip_selfadjoint(seed, alg, norm):
    h = random_self_adjoint(alg, rng_from(seed), norm=norm)
    back = log_positive(exp_element(h))
    assert op_norm(back - h) <= 1e-8 * max(1.0, norm)


@given(SEEDS, ALGEBRAS, st.floats(min_value=0.1, max_value=3.0))
def test_unitary_log_round_trip(seed, alg, radius):
    h = random_self_adjoint(alg, rng_from(seed), norm=radius)
    u = exp_element(1j * h)
    back = log_unitary_principal(u)  # self-adjoint h with e^{ih} = u
    assert op_norm(back - h) <= 1e-8


def test_log_unitary_branch_cut():
    u = elem(M1, [[-1.0]])
    with pytest.raises(BranchCut):
        log_unitary_principal(u)


def test_log_unitary_near_cut_gap():
    # an eigenvalue within BRANCH_GAP of -1 must also raise
    u = elem(M1, [[np.exp(1j * (np.pi - 1e-8))]])
    with pytest.raises(BranchCut):
        log_unitary_principal(u)


def test_log_unitary_wider_gap_accepts():
    u = elem(M1, [[np.exp(1j * (np.pi - 1e-3))]])
    h = log_unitary_principal(u)
    assert complex(h.blocks[0][0, 0]).real == pytest.approx(np.pi - 1e-3)


# ---------------------------------------------------------------------------
# universal trace and quotient norm


def test_trace_of_identity():
    t = universal_trace(M23.identity())
    assert t.coords == (2.0 + 0j, 3.0 + 0j)


def test_trace_kills_offdiagonal():
    x = elem(M2, [[0, 5], [7, 0]])
    assert universal_trace(x).coords == (0j,)


@given(SEEDS, SEEDS, ALGEBRAS)
def test_trace_vanishes_on_commutators(s1, s2, alg):
    x = random_element(alg, rng_from(s1))
    y = random_element(alg, rng_from(s2))
    t = universal_trace(x @ y - y @ x)
    bound = 1e-12 * max(op_norm(x) * op_norm(y), 1.0)
    assert max(abs(c) for c in t.coords) <= bound


@given(SEEDS, SEEDS, ALGEBRAS)
def test_trace_is_linear(s1, s2, alg):
    x = random_element(alg, rng_from(s1))
    y = random_element(alg, rng_from(s2))
    lhs = universal_trace(x + y)
    rhs = universal_trace(x) + universal_trace(y)
    assert max(abs(a - b) for a, b in zip(lhs.coords, rhs.coords)) <= 1e-12


def test_quotient_norm_values():
    assert quotient_norm(TraceValue(M23, (0, 0))) == 0.0
    # identity of M2 has trace 2, normalized distance 1
    assert quotient_norm(universal_trace(M2.identity())) == 1.0
    # rank one: the quotient norm is plain absolute value
    assert quotient_norm(TraceValue(M1, (3 - 4j,))) == 5.0


def test_quotient_norm_certificate():
    # the closed form max_i |tr x_i| / n_i is the distance from x to the
    # traceless elements: project_traceless(x) is traceless at that
    # distance, and no traceless t is nearer, as |tr x_i| = |tr(x_i -
    # t_i)| <= n_i ||x_i - t_i||; checked on traceless t around the nearest
    alg = AlgebraDescriptor((1, 2, 3, 4, 5))
    for k in range(8):
        x = random_element(alg, rng_from((41, k)))
        y = project_traceless(x)
        assert max(abs(c) for c in universal_trace(y).coords) <= 1e-12 * op_norm(x)
        assert op_norm(x - y) == pytest.approx(quotient_norm(universal_trace(x)), rel=1e-12)
        for j, eps in enumerate((0.0, 1e-6, 1e-3, 1e-1, 1.0)):
            t = y + eps * project_traceless(random_element(alg, rng_from((42, k, j))))
            assert quotient_norm(universal_trace(x)) <= op_norm(x - t) * (1 + 1e-12)


@given(SEEDS, ALGEBRAS)
def test_quotient_norm_contractive(seed, alg):
    x = random_element(alg, rng_from(seed))
    assert quotient_norm(universal_trace(x)) <= op_norm(x) * (1 + 1e-12)


def test_project_traceless():
    assert op_norm(project_traceless(M2.identity())) <= 1e-15
    x = elem(M2, [[1, 2], [3, -1]])
    assert op_norm(project_traceless(x) - x) == 0.0


@given(SEEDS, ALGEBRAS)
def test_projection_achieves_quotient_norm(seed, alg):
    x = random_element(alg, rng_from(seed))
    y = project_traceless(x)
    assert max(abs(c) for c in universal_trace(y).coords) <= 1e-12
    assert op_norm(x - y) == pytest.approx(quotient_norm(universal_trace(x)), abs=1e-12)


# ---------------------------------------------------------------------------
# sampling helpers used across the suite


def test_random_unitary_is_unitary():
    rng = rng_from(43)
    u = random_unitary(M23, rng)
    assert op_norm(adjoint(u) @ u - M23.identity()) <= 1e-12


def test_random_self_adjoint_norm():
    rng = rng_from(47)
    h = random_self_adjoint(M23, rng, norm=2.0)
    assert op_norm(h) == pytest.approx(2.0, abs=1e-12)
    assert op_norm(h - adjoint(h)) <= 1e-14
