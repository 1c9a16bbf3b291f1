"""Block-algebra arithmetic against independent oracles and closed forms."""

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apfp import (
    AlgebraDescriptor,
    Element,
    ExpLine,
    OptimizerConfig,
    TraceValue,
    adjoint,
    distance_to_closure,
    evaluate_many,
    exp_element,
    factor_positive_products,
    is_positive,
    log_positive,
    log_unitary_principal,
    op_norm,
    polar,
    quotient_norm,
    universal_trace,
)
import apfp.algebra
from apfp.algebra import POSITIVITY_RTOL, _identity_at, _positive_at, _symmetry
from apfp.errors import BranchCut, DescriptorMismatch, NotPositive, SingularInput
from apfp.factorization import FACTOR_POSITIVITY_TOL
from apfp.sampling import (
    random_element,
    random_member,
    random_positive,
    random_self_adjoint,
    random_unitary,
    rng_from,
)

from oracles import (
    det_path_mix,
    hermitian_at_full_scale,
    identity_at_by_svd,
    positive_at_by_svd,
    power_iteration_norm,
    project_traceless,
    taylor_expm,
)

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


# The two owners of the block predicates, _positive_at and _identity_at,
# against the SVD routes of tests/oracles.py.  A verdict may differ from
# the oracle's only where the deciding entry lies within a few ulps of its
# tol, as the entry and the SVD's largest singular value round apart; no
# stack below comes that close.


@functools.cache
def seeded_stacks():
    """Stacks of the kinds the benchmark reads, by name: det-path's 9
    points on each path kind, the factors of a construction (m = 5) and
    of a search (m = 3, one restart) for seeded members, and the closure
    witness of a seeded non-member as a stack of one."""
    out = []
    for seed in range(3):
        for kind, path in det_path_mix(rng_from((26, seed))).items():
            out.append((kind, evaluate_many(path, np.linspace(*path.domain, 9)).blocks))
        out.append(("construction", factor_positive_products(random_member(M23, rng_from((901, 2, seed))), 5).stacks))
        witness = distance_to_closure(random_element(M23, rng_from((77, seed)))).witness
        out.append(("witness", tuple(b[None] for b in witness.blocks)))
    search = factor_positive_products(random_member(M2, rng_from((901, 1, 4))), 3, OptimizerConfig(restarts=1))
    assert search.route == "search"
    out.append(("search", search.stacks))
    return out


def test_positive_at_matches_the_svd_route_on_seeded_stacks():
    seen = set()
    for name, blocks in seeded_stacks():
        norms = np.max([np.linalg.svd(b, compute_uv=False)[:, 0] for b in blocks], axis=0)
        for tols in (1e-8 * np.maximum(1.0, norms), FACTOR_POSITIVITY_TOL, POSITIVITY_RTOL * norms):
            want = bool(positive_at_by_svd(blocks, tols).all())
            assert _positive_at(blocks, tols) is want, name
            seen.add((name, want))
    assert {want for _, want in seen} == {True, False}
    assert ("construction", True) in seen and ("search", True) in seen and ("ExpLine", False) in seen


def test_identity_at_matches_the_svd_route_on_seeded_stacks():
    seen = set()
    for name, blocks in seeded_stacks():
        dist = max(np.linalg.norm(b[k] - np.eye(len(b[k])), 2) for b in blocks for k in range(len(b)))
        ends = [b[[0, -1]] for b in blocks]
        # fixed tols, and tols a hair either side of the stack's distance,
        # where no entry decides and the SVD route must
        for tol in (1e-8, 0.5, dist * (1 - 1e-9), dist * (1 + 1e-9)):
            for stack in (blocks, ends):
                want = bool(identity_at_by_svd(stack, tol).all())
                assert _identity_at(stack, tol) is want, name
                seen.add(want)
    assert seen == {True, False}


def counted_calls(monkeypatch, module, *names):
    """The shapes passed to module.<name> for each name, in call order."""
    calls = []
    for name in names:
        fn = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda a, *rest, fn=fn, name=name, **kw: calls.append((name, a.shape)) or fn(a, *rest, **kw)
        )
    return calls


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_positive_at_skew_entry_straddles_the_tolerance(monkeypatch, factor):
    # 9 points of M2 + M3, positive but for one point whose M3 block is
    # 1 + a E_02 - conj(a) E_20: v/2 - v*/2 has entries of modulus |a|,
    # its norm is |a|, and ||v - v*|| <= tol holds for |a| <= tol / 2
    tols = np.linspace(1e-9, 1e-7, 9)
    blocks = [np.array([np.eye(n, dtype=complex)] * 9) for n in (2, 3)]
    a = factor * 0.5 * tols[4] * np.exp(0.3j)
    blocks[1][4, 0, 2], blocks[1][4, 2, 0] = a, -np.conj(a)
    calls = counted_calls(monkeypatch, np.linalg, "svd", "eigvalsh")
    assert _positive_at(blocks, tols) is (factor < 1)
    # above the tolerance the entry decides: no SVD, no eigenvalue
    assert calls == ([] if factor > 1 else [("eigvalsh", (9, 2, 2)), ("svd", (9, 3, 3)), ("eigvalsh", (9, 3, 3))])
    monkeypatch.undo()
    assert positive_at_by_svd(blocks, tols).all() == (factor < 1)
    x = Element(M23, tuple(b[4] for b in blocks))
    assert is_positive(x, tols[4]) is (factor < 1)


def test_positive_at_says_no_through_the_skew_svd(monkeypatch):
    # 1 + a i (J - 1) in M3, J the all-ones matrix: v/2 - v*/2 = a i (J - 1)
    # has entries of modulus a = 0.9 tol / 2, below tol / 2, so no entry
    # decides, but its norm is 2a = 0.9 tol, above tol / 2
    tol = 1e-8
    a = 0.9 * tol / 2
    v = np.eye(3) + 1j * a * (np.ones((3, 3)) - np.eye(3))
    calls = counted_calls(monkeypatch, np.linalg, "svd", "eigvalsh")
    assert _positive_at([v[None]], tol) is False
    assert calls == [("svd", (1, 3, 3))]
    monkeypatch.undo()
    assert not positive_at_by_svd([v[None]], tol).any()
    assert is_positive(Element(M3, (v,)), tol) is False


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_identity_at_entry_straddles_the_tolerance(monkeypatch, factor):
    # the identity at 9 points of M2 + M3, but for one point whose M2
    # block is 1 + a E_10: ||v - 1|| = |a|
    tol = 1e-6
    blocks = [np.array([np.eye(n, dtype=complex)] * 9) for n in (2, 3)]
    blocks[0][7, 1, 0] = factor * tol * np.exp(2.0j)
    calls = counted_calls(monkeypatch, np.linalg, "svd")
    assert _identity_at(blocks, tol) is (factor < 1)
    assert calls == ([] if factor > 1 else [("svd", (9, 2, 2)), ("svd", (9, 3, 3))])
    monkeypatch.undo()
    assert identity_at_by_svd(blocks, tol).all() == (factor < 1)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(np.inf, 1.0), complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
def test_owners_say_no_to_a_non_finite_entry_with_no_svd(monkeypatch, entry, where):
    # no caller passes one (Element and evaluate_many reject them), but an
    # infinite or NaN entry leaves a NaN or infinite entry in v - 1 and in
    # v/2 - v*/2, which decides no before any SVD; halving an infinite
    # complex entry reads 0 * inf, which numpy warns of as invalid
    blocks = [np.array([np.eye(n, dtype=complex)] * 3) for n in (2, 3)]
    blocks[1][2][where] = entry
    calls = counted_calls(monkeypatch, np.linalg, "svd", "eigvalsh")
    with np.errstate(invalid="ignore" if np.isinf(entry) else "raise"):
        assert _positive_at(blocks, 1e-8) is False
    assert _identity_at(blocks, 1e-8) is False
    assert calls == []


def test_owners_near_overflow_agree_with_the_svd_route():
    big = 1.3e308
    cases = [
        # hermitian and positive semidefinite: eigenvalues 0 and 2 big
        np.array([[big, big], [big, big]], dtype=complex),
        # x - x* would overflow; x/2 - x*/2 does not
        np.array([[0, big], [-big, 0]], dtype=complex),
        # |x_00| overflows
        np.array([[big + big * 1j, 1e308], [-1e308, 0]]),
        np.array([[big, 0], [0, -big]], dtype=complex),
    ]
    for m in cases:
        blocks = [m[None]]
        for tol in (1e-8, 1e300):
            assert _positive_at(blocks, tol) is bool(positive_at_by_svd(blocks, tol).all())
        assert _identity_at(blocks, 1e-8) is False
    assert _positive_at([cases[0][None]], 1e-8) is True


@pytest.mark.parametrize(
    "x",
    [random_member(M2, rng_from((901, 1, 0))), elem(M1, [[0.3 + 0.8j]])],
    ids=["non-hermitian M2 member", "complex M1 scalar"],
)
def test_is_positive_lets_an_entry_decide_with_no_svd(monkeypatch, x):
    tol = POSITIVITY_RTOL * op_norm(x)  # the default tol's SVD, kept on x
    calls = counted_calls(monkeypatch, np.linalg, "svd", "eigvalsh")
    assert is_positive(x) is False
    assert is_positive(x, tol) is False
    assert is_positive(x, FACTOR_POSITIVITY_TOL) is False
    assert calls == []


def test_symmetry_agrees_with_the_full_scale_check():
    # seeded hermitian, skew-hermitian, real symmetric and general
    # matrices over the whole exponent range, with one entry moved by
    # 0.5 to 2 times the tolerance: where no modulus overflows, _symmetry
    # reads each as the full-scale check reads it and its -1j multiple
    rng = rng_from(26)
    kinds = set()
    for trial in range(3000):
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = [a + a.conj().T, a - a.conj().T, (a + a.conj().T).real + 0j, a][trial % 4]
        a = a * 10.0 ** rng.uniform(-310, 307)
        i, j = rng.integers(0, n, size=2)
        step = rng.choice([0.0, 0.5, 0.99, 1.01, 2.0]) * 1e-13 * max(1.0, np.abs(a).max())
        a[i, j] += step * np.exp(2j * np.pi * rng.uniform())
        if not np.isfinite(np.abs(a)).all():
            continue
        want = "h" if hermitian_at_full_scale(a) else "s" if hermitian_at_full_scale(-1j * a) else "g"
        assert _symmetry(a) == want
        assert (_symmetry(a, 1e-10) == "h") is hermitian_at_full_scale(a, 1e-10)
        kinds.add(want)
    assert kinds == {"h", "s", "g"}


def test_symmetry_reads_an_overflowing_modulus_as_not_hermitian():
    # |m_00| overflows: at full scale the scale is inf, and any defect passes
    m = np.array([[1.3e308 + 1.3e308j, 1e308], [-1e308, 0]])
    assert hermitian_at_full_scale(m, 1e-10)
    assert _symmetry(m, 1e-10) == _symmetry(m) == "g"
    assert _symmetry(np.array([[np.nan]])) == "g"
    with np.errstate(invalid="ignore"):  # halving an infinite entry reads 0 * inf
        for bad in (np.inf, complex(0.0, np.inf)):
            assert _symmetry(np.array([[bad]], dtype=complex)) == "g"


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


def test_log_positive_rejects_a_singular_eigenvalue():
    # positive within is_positive's 1e-10, but the lowest eigenvalue is at
    # most 1e-12 op_norm: singular by the invertibility rule
    for low in (0.0, 1e-13):
        with pytest.raises(NotPositive, match="needs an invertible element"):
            log_positive(elem(M2, [[1, 0], [0, low]]))


@pytest.mark.parametrize("kind", ["hermitian", "skew-hermitian", "general"])
def test_exp_element_is_the_exp_line_at_one(monkeypatch, kind):
    # one route decision: exp_element(c) is ExpLine(c) at t = 1 bit for
    # bit, and only a block neither hermitian nor skew-hermitian takes the
    # Pade route of _expm
    calls = []
    expm = apfp.algebra._expm
    monkeypatch.setattr(apfp.algebra, "_expm", lambda a: calls.append(a.shape) or expm(a))
    for seed in range(10):
        rng = rng_from((27, seed))
        c = {
            "hermitian": lambda: random_self_adjoint(M23, rng),
            "skew-hermitian": lambda: 1j * random_self_adjoint(M23, rng),
            "general": lambda: random_element(M23, rng),
        }[kind]()
        line = evaluate_many(ExpLine(c), [1.0]).blocks
        assert all(e.tobytes() == v[0].tobytes() for e, v in zip(exp_element(c).blocks, line))
    assert calls == ([] if kind != "general" else [(1, 2, 2), (1, 3, 3), (2, 2), (3, 3)] * 10)


def test_exp_element_of_a_skew_hermitian_block_is_unitary():
    for seed in range(20):
        h = random_self_adjoint(M23, rng_from((28, seed)), norm=10.0)
        for u, hb in zip(exp_element(1j * h).blocks, h.blocks):
            assert np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) <= 1e-14
            assert np.linalg.norm(u - taylor_expm(1j * hb), 2) <= 1e-12


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
