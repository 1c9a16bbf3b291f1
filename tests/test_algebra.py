"""Block-algebra arithmetic against independent oracles and closed forms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apfp import (
    AlgebraDescriptor,
    Element,
    TraceValue,
    adjoint,
    commutator,
    exp_element,
    inverse,
    is_positive,
    log_positive,
    log_unitary_principal,
    mul,
    op_norm,
    polar,
    project_traceless,
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

from oracles import brute_force_commutant_distance, power_iteration_norm, taylor_expm

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
    lhs = adjoint(mul(x, y))
    rhs = mul(adjoint(y), adjoint(x))
    assert op_norm(lhs - rhs) <= 1e-14 * op_norm(x) * op_norm(y)


def test_inverse_round_trip():
    rng = rng_from(5)
    x = random_element(M23, rng) + 4.0 * M23.identity()
    assert op_norm(mul(x, inverse(x)) - M23.identity()) <= 1e-12


def test_inverse_rejects_singular():
    x = elem(M2, [[1, 0], [0, 0]])
    with pytest.raises(SingularInput):
        inverse(x)


def test_commutator_with_self_vanishes():
    rng = rng_from(11)
    x = random_element(M23, rng)
    assert op_norm(commutator(x, x)) == 0.0


def test_commutator_closed_form():
    x = elem(M2, [[1, 0], [0, 2]])
    y = elem(M2, [[0, 1], [0, 0]])
    expected = elem(M2, [[0, -1], [0, 0]])
    assert op_norm(commutator(x, y) - expected) == 0.0


def test_mixed_algebras_rejected():
    with pytest.raises(DescriptorMismatch):
        mul(M2.identity(), M3.identity())


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
    assert op_norm(mul(x, y)) <= op_norm(x) * op_norm(y) * (1 + 1e-12)


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
    assert is_positive(mul(adjoint(y), y))


def test_is_positive_rejects_non_selfadjoint():
    assert not is_positive(elem(M2, [[1, 1], [0, 1]]))


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
    assert op_norm(mul(u, p) - x) <= 1e-10 * scale
    assert op_norm(mul(adjoint(u), u) - alg.identity()) <= 1e-10
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
    # an eigenvalue within the configured gap of -1 must also raise
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
    t = universal_trace(commutator(x, y))
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


def test_quotient_norm_against_brute_force():
    # the closed form |tr x|/n is the distance from x to the traceless
    # matrices; a random-start Powell search over that subspace agrees
    rng = rng_from(41)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = elem(M2, b)
    closed = quotient_norm(universal_trace(x))
    searched = brute_force_commutant_distance(b)
    assert closed <= searched + 1e-9  # search only ever overshoots
    assert searched <= closed + 5e-3


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
    assert op_norm(mul(adjoint(u), u) - M23.identity()) <= 1e-12


def test_random_self_adjoint_norm():
    rng = rng_from(47)
    h = random_self_adjoint(M23, rng, norm=2.0)
    assert op_norm(h) == pytest.approx(2.0, abs=1e-12)
    assert op_norm(h - adjoint(h)) <= 1e-14
