"""Splitting, commutator witnesses, membership, and the positive-factor
optimizer."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from oracles import (
    closure_distance,
    depth_first_split,
    per_candidate_construct,
    power_iteration_norm,
)

import apfp.factorization as factorization
from apfp.algebra import _identity_distances
from apfp import (
    AlgebraDescriptor,
    Element,
    ExpLine,
    OptimizerConfig,
    adjoint,
    best_approx_distance,
    commutator_factor_su,
    distance_to_closure,
    evaluate,
    exp_element,
    factor_positive_products,
    is_positive,
    membership_test,
    mul,
    op_norm,
    polar_path,
    quotient_norm,
    residual_curve,
    split_into_exponentials,
)
from apfp.errors import (
    DeterminantNotOne,
    NoConvergence,
    NonFiniteValue,
    NotInClosure,
    PartitionOverflow,
    SingularInput,
)
from apfp.sampling import (
    random_element,
    random_member,
    random_positive,
    random_self_adjoint,
    random_special_unitary,
    random_unitary,
    rng_from,
)

M1 = AlgebraDescriptor((1,))
M2 = AlgebraDescriptor((2,))
M3 = AlgebraDescriptor((3,))
M23 = AlgebraDescriptor((2, 3))

SEEDS = st.integers(min_value=0, max_value=10**6)


def elem(alg, *blocks):
    return Element(alg, tuple(np.array(b, dtype=complex) for b in blocks))


# ---------------------------------------------------------------------------
# exponential splitting


def test_split_single_small_rotation():
    h = elem(M2, [[0.3, 0.1], [0.1, -0.2]])
    path = ExpLine(1j * h)
    split = split_into_exponentials(path, max_step_norm=0.9)
    assert len(split.logs) == 1
    assert op_norm(split.logs[0] - h) <= 1e-10
    assert op_norm(split.reconstruct() - evaluate(path, 1.0)) <= 1e-10


def test_split_polar_path_sums_to_zero_trace():
    rng = rng_from(3)
    c = random_self_adjoint(M23, rng, norm=1.5)
    d = random_self_adjoint(M23, rng, norm=1.5)
    path = polar_path(c, d)
    split = split_into_exponentials(path)
    assert quotient_norm(split.trace_sum()) <= 1e-7
    assert op_norm(split.reconstruct() - evaluate(path, 1.0)) <= 1e-8


def test_split_ill_conditioned_polar_path():
    # e^{tc} e^{td} reaches condition number 1.4e6 here, so a polar
    # factor formed as g (g*g)^{-1/2} would be unitary to only about 1e-4
    rng = rng_from(1)
    c = random_self_adjoint(M23, rng, norm=5.0)
    d = random_self_adjoint(M23, rng, norm=4.0)
    path = polar_path(c, d)
    split = split_into_exponentials(path)
    assert quotient_norm(split.trace_sum()) <= 1e-7
    assert op_norm(split.reconstruct() - evaluate(path, 1.0)) <= 1e-8


def test_split_partition_is_increasing_and_spans_domain():
    rng = rng_from(5)
    c = random_self_adjoint(M2, rng, norm=2.0)
    d = random_self_adjoint(M2, rng, norm=2.0)
    split = split_into_exponentials(polar_path(c, d), max_step_norm=0.2)
    ts = split.partition
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert len(split.logs) == len(ts) - 1


def test_split_requires_identity_start():
    h = elem(M2, [[0.3, 0], [0, -0.1]])
    shifted = ExpLine(1j * h, domain=(0.5, 1.0))
    with pytest.raises(ValueError):
        split_into_exponentials(shifted)


def test_split_overflow():
    h = elem(M1, [[1.0]])
    path = ExpLine(1j * h)
    with pytest.raises(PartitionOverflow):
        split_into_exponentials(path, max_step_norm=1e-7)


def test_split_rejects_non_unitary_path():
    from apfp.errors import NotUnitaryPath

    path = ExpLine(elem(M2, [[0.5, 0], [0, -0.5]]))  # positive values
    with pytest.raises(NotUnitaryPath):
        split_into_exponentials(path)


def test_split_overflow_boundary():
    # every step of e^{it} over 2^-k has the same gap, about 2^-k, so a
    # threshold the 2^16-segment partition meets stops there and one only
    # the 2^17-segment partition meets overflows
    path = ExpLine(1j * elem(M1, [[1.0]]))

    def gaps(level):
        (v,) = path._values(np.arange(2**level + 1) / 2**level)
        return _identity_distances([v[:-1].conj() * v[1:]])

    split = split_into_exponentials(path, max_step_norm=float(gaps(16).max()))
    assert len(split.logs) == 2**16 == factorization.MAX_SPLIT_SEGMENTS
    with pytest.raises(PartitionOverflow):
        split_into_exponentials(path, max_step_norm=float(gaps(17).max()))


def test_split_non_finite_value_raises_non_finite():
    # e^{800 t} overflows at t = 1, and evaluate_many reports it
    with pytest.raises(NonFiniteValue):
        split_into_exponentials(ExpLine(elem(M1, [[800.0]])))


def split_reference_paths():
    rng = rng_from(2024)
    for _ in range(12):
        c = random_self_adjoint(M23, rng, norm=float(rng.uniform(1.0, 2.0)))
        d = random_self_adjoint(M23, rng, norm=float(rng.uniform(1.0, 2.0)))
        yield polar_path(c, d), 0.5
    yield polar_path(c, d), 0.1
    # the ill-conditioned path of test_split_ill_conditioned_polar_path
    rng = rng_from(1)
    c = random_self_adjoint(M23, rng, norm=5.0)
    yield polar_path(c, random_self_adjoint(M23, rng, norm=4.0)), 0.5


def test_split_matches_depth_first_reference_bitwise():
    for path, max_step_norm in split_reference_paths():
        split = split_into_exponentials(path, max_step_norm)
        partition, logs, endpoint = depth_first_split(path, max_step_norm)
        assert split.partition == partition
        assert len(split.logs) == len(logs)
        for got, want in zip((*split.logs, split.endpoint), (*logs, endpoint)):
            assert all(np.array_equal(g, w) for g, w in zip(got.blocks, want.blocks))


# ---------------------------------------------------------------------------
# commutator factorization in SU(n)


def test_commutator_identity_shortcut():
    one = M23.identity()
    v, w = commutator_factor_su(one)
    assert op_norm(v - one) == 0.0
    assert op_norm(w - one) == 0.0


def test_commutator_closed_pair():
    theta = 0.7
    u = elem(M2, [[np.exp(1j * theta), 0], [0, np.exp(-1j * theta)]])
    v, w = commutator_factor_su(u)
    recon = mul(mul(v, w), mul(adjoint(v), adjoint(w)))
    assert op_norm(recon - u) <= 1e-10


def test_commutator_rejects_wrong_determinant():
    u = elem(M1, [[np.exp(1j * np.pi / 2)]])
    with pytest.raises(DeterminantNotOne):
        commutator_factor_su(u)


def test_commutator_degenerate_spectrum():
    u = elem(M3, [[1j, 0, 0], [0, 1j, 0], [0, 0, -1.0]])
    assert abs(np.linalg.det(u.blocks[0]) - 1.0) <= 1e-12
    v, w = commutator_factor_su(u)
    recon = mul(mul(v, w), mul(adjoint(v), adjoint(w)))
    assert op_norm(recon - u) <= 1e-8


@given(SEEDS, st.integers(min_value=2, max_value=6))
@settings(max_examples=20)
def test_commutator_on_random_special_unitaries(seed, n):
    alg = AlgebraDescriptor((n,))
    u = random_special_unitary(alg, rng_from(seed))
    v, w = commutator_factor_su(u)
    recon = mul(mul(v, w), mul(adjoint(v), adjoint(w)))
    assert op_norm(recon - u) <= 1e-8
    for factor in (v, w):
        assert op_norm(mul(adjoint(factor), factor) - alg.identity()) <= 1e-10


# ---------------------------------------------------------------------------
# membership in the closure of products of positives


def test_membership_of_positives_and_products():
    rng = rng_from(7)
    a = random_positive(M23, rng)
    assert membership_test(a)
    b = random_positive(M23, rng)
    c = random_positive(M23, rng)
    assert membership_test(mul(a, mul(b, c)))


def test_membership_rejects_negative_determinant_phase():
    x = elem(M2, [[1.0, 0], [0, -1.0]])
    res = membership_test(x)
    assert not res
    assert res.det_phases[0] == pytest.approx(np.pi, abs=1e-12)


def test_membership_rejects_singular():
    with pytest.raises(SingularInput):
        membership_test(elem(M2, [[1, 0], [0, 0]]))


@given(SEEDS, SEEDS)
@settings(max_examples=15)
def test_members_form_a_semigroup(s1, s2):
    x = random_member(M23, rng_from(s1))
    y = random_member(M23, rng_from(s2))
    assert membership_test(x)
    assert membership_test(y)
    assert membership_test(mul(x, y))


# ---------------------------------------------------------------------------
# the optimizer


def test_positive_input_factors_trivially():
    rng = rng_from(11)
    a = random_positive(M23, rng)
    got = factor_positive_products(a, m=3)
    assert got.residual == 0.0
    assert op_norm(got.factors[0] - a) == 0.0
    assert all(op_norm(f - M23.identity()) == 0.0 for f in got.factors[1:])


@pytest.mark.parametrize("m, route", [(5, "construction"), (3, "search")])
def test_large_nearly_positive_member_is_factored(m, route):
    # positive within the relative default 1e-12 * ||x|| (the asymmetric
    # entry is 0.1 at norm 1.9e12) but not within the 1e-10 that
    # PositiveFactorization checks factors with, so it is no shortcut
    b = 1e12 * random_positive(M2, rng_from(1)).blocks[0]
    b[0, 1] += 0.1
    x = Element(M2, (b,))
    got = factor_positive_products(x, m=m)
    assert got.route == route
    assert got.residual <= 1e-12 * op_norm(x)


def test_factor_requires_at_least_one():
    rng = rng_from(13)
    a = random_positive(M2, rng)
    with pytest.raises(ValueError):
        factor_positive_products(a, m=0)


def test_factor_rejects_non_member():
    x = elem(M2, [[1.0, 0], [0, -1.0]])
    with pytest.raises(NotInClosure) as err:
        factor_positive_products(x, m=5)
    assert err.value.diagnostics is not None
    assert not err.value.diagnostics.member


def test_factor_member_of_m2():
    # m = 3: below four factors the search is the only route
    rng = rng_from(17)
    x = random_member(M2, rng)
    opt = OptimizerConfig(restarts=8, seed=0)
    got = factor_positive_products(x, m=3, opt=opt)
    scale = op_norm(x)
    assert got.residual <= 1e-6 * scale
    # soundness: factors positive, residual recomputed from the factors
    prod = M2.identity()
    for f in got.factors:
        assert is_positive(f, 1e-10)
        prod = mul(prod, f)
    assert op_norm(prod - x) == got.residual
    assert 1 <= got.restarts_used <= 8
    assert got.route == "search"


def test_factor_rotation_times_diagonal():
    theta = 0.6
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    x = elem(M2, rot @ np.diag([2.0, 0.5]))
    got = factor_positive_products(x, m=5)
    assert got.residual <= 1e-6 * op_norm(x)


def test_factor_no_convergence_carries_best():
    rng = rng_from(19)
    x = random_member(M2, rng)
    opt = OptimizerConfig(restarts=1, max_iterations=4, target_residual=1e-13)
    with pytest.raises(NoConvergence) as err:
        factor_positive_products(x, m=3, opt=opt)
    assert err.value.best_residual is not None
    assert err.value.best is not None
    assert err.value.best.residual == err.value.best_residual
    assert all(is_positive(f, 1e-10) for f in err.value.best.factors)


def test_factor_consistency_with_membership():
    rng = rng_from(23)
    x = random_member(M3, rng)
    got = factor_positive_products(x, m=5, opt=OptimizerConfig(restarts=8))
    assert membership_test(x, tol=max(1e-8, 10.0 * got.residual))


def test_factor_overflow_ends_in_no_convergence():
    # the Gaussian restarts overflow or give factors too large to pass the
    # positivity check; the result is the best restart with positive factors
    x = random_member(M2, rng_from(1))
    with pytest.raises(NoConvergence) as err:
        factor_positive_products(x, m=2, opt=OptimizerConfig(restarts=4))
    best = err.value.best
    assert err.value.best_residual == best.residual
    assert all(is_positive(f, factorization.FACTOR_POSITIVITY_TOL) for f in best.factors)


def test_factor_without_positive_restart_carries_no_best(monkeypatch):
    monkeypatch.setattr(factorization._Objective, "op_residual", lambda self, theta: np.inf)
    x = random_member(M2, rng_from(17))
    with pytest.raises(NoConvergence) as err:
        factor_positive_products(x, m=2, opt=OptimizerConfig(restarts=2))
    assert err.value.best_residual == np.inf
    assert err.value.best is None


def test_search_stops_at_the_first_restart_that_converges(monkeypatch):
    calls = []
    run = factorization._run_restart

    def counted(obj, opt, index, polish):
        calls.append(index)
        return run(obj, opt, index, polish)

    monkeypatch.setattr(factorization, "_run_restart", counted)
    x = random_member(M2, rng_from(17))
    got = factor_positive_products(x, m=3, opt=OptimizerConfig(restarts=8))
    assert got.restarts_used == 1
    assert calls == [0]


def test_factor_deterministic_across_thread_counts():
    # restarts run serially; a rerun gives the same bits
    rng = rng_from(29)
    x = random_member(M2, rng)
    opt = OptimizerConfig(restarts=3, seed=5)
    first = factor_positive_products(x, m=3, opt=opt)
    second = factor_positive_products(x, m=3, opt=opt)
    assert first.residual == second.residual
    for a, b in zip(first.factors, second.factors):
        assert op_norm(a - b) == 0.0


# ---------------------------------------------------------------------------
# the closed-form construction at m >= 4


def no_search(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(factorization, "_search", fail)


def assert_positive_factorization(x, factors, target):
    """Checked with numpy alone: every block of every factor exactly
    hermitian with eigvalsh above -1e-10, and the product of the blocks
    within target of x in the operator norm."""
    misses = []
    for i, xb in enumerate(x.blocks):
        prod = np.eye(len(xb), dtype=complex)
        for f in factors:
            b = f.blocks[i]
            assert np.array_equal(b, b.conj().T)
            assert np.linalg.eigvalsh(b)[0] > -1e-10
            prod = prod @ b
        misses.append(np.linalg.norm(prod - xb, 2))
    assert max(misses) <= target


def test_factor_member_by_construction(monkeypatch):
    no_search(monkeypatch)
    x = random_member(M2, rng_from(17))
    got = factor_positive_products(x, m=5, opt=OptimizerConfig(restarts=8))
    assert got.route == "construction"
    assert got.restarts_used == 0
    assert got.residual <= 1e-6 * op_norm(x)
    assert got.max_factor_norm == max(op_norm(f) for f in got.factors)


M4 = AlgebraDescriptor((4,))
# the positive scalar sits beside a member block: alone it would be positive
SCALARS = (
    elem(M2, -np.eye(2)),
    elem(M3, np.exp(2j * np.pi / 3) * np.eye(3)),
    elem(M23, 2 * np.eye(2), random_member(M3, rng_from(67)).blocks[0]),
)


@pytest.mark.parametrize("m", [4, 5])
def test_construction_gives_positive_factors(monkeypatch, m):
    no_search(monkeypatch)
    members = [random_member(a, rng_from((61, k))) for a in (M2, M3, M23, M4) for k in range(5)]
    for x in members + [SCALARS[2]] + ([] if m == 4 else list(SCALARS[:2])):
        got = factor_positive_products(x, m=m)
        assert len(got.factors) == m
        assert got.route == "construction"
        assert_positive_factorization(x, got.factors, 1e-6 * op_norm(x))


def test_construction_leaves_non_positive_scalars_to_the_search_at_m4(monkeypatch):
    # a non-positive scalar is no product of four positives: its fifth
    # factor does not fit, so the search takes over
    searched = []
    search = factorization._search

    def spy(obj, opt, polish, stop_at=None):
        searched.append(obj.x)
        return search(obj, opt, polish, stop_at)

    monkeypatch.setattr(factorization, "_search", spy)
    opt = OptimizerConfig(restarts=1, max_iterations=50)
    for x in SCALARS[:2]:
        assert factorization._construct(x, 4, 0) is None
        try:
            got = factor_positive_products(x, m=4, opt=opt)
            assert got.route == "search"
        except NoConvergence:
            pass
        assert searched[-1] is x
    assert len(searched) == 2


@pytest.mark.parametrize(
    "alg, seed",
    [(M23, (3, 1, 0, 15)), (M3, (11, 1, 4, 6))],
)
def test_members_that_defeat_the_search_are_constructed(monkeypatch, alg, seed):
    # the search ended both in NoConvergence, after 61 s and 36 s of CPU
    no_search(monkeypatch)
    x = random_member(alg, rng_from(seed))
    got = factor_positive_products(x, m=5)
    assert got.route == "construction"
    assert_positive_factorization(x, got.factors, 1e-6 * op_norm(x))


def test_construction_pads_with_identities_and_mixes_routes(monkeypatch):
    # -1 takes five factors, the member four and the positive scalar one
    no_search(monkeypatch)
    alg = AlgebraDescriptor((2, 3, 1))
    x = Element(alg, (-np.eye(2, dtype=complex), random_member(M3, rng_from(5)).blocks[0], np.array([[3.0 + 0j]])))
    got = factor_positive_products(x, m=7)
    assert_positive_factorization(x, got.factors, 1e-6 * op_norm(x))
    assert [np.array_equal(f.blocks[0], np.eye(2)) for f in got.factors] == [False] * 5 + [True] * 2
    assert [np.array_equal(f.blocks[1], np.eye(3)) for f in got.factors] == [False] * 4 + [True] * 3
    assert [f.blocks[2][0, 0] for f in got.factors] == [3.0] + [1.0] * 6


def near_non_positive_scalar(alg, eps):
    """mu expm(eps h) per block, h a seeded traceless complex Gaussian and
    mu = -1 in M2 and exp(2 pi i / 3) in M3: a member whose blocks lie
    near a scalar off the positive ray."""
    roots = {2: -1.0, 3: np.exp(2j * np.pi / 3)}
    blocks = []
    for i, n in enumerate(alg.block_sizes):
        rng = np.random.default_rng((73, i))
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = h - np.trace(h) / n * np.eye(n)
        blocks.append(roots[n] * sla.expm(eps * h))
    return Element(alg, tuple(blocks))


NEAR_SCALAR_EPS = (1e-11, 1e-7, 1e-3, 5e-2)


@pytest.mark.parametrize("alg", [M2, M3, M23])
def test_blocks_near_a_non_positive_scalar_are_constructed_at_m5(monkeypatch, alg):
    # without the leading factor, every eps up to 1e-3 goes to the search
    no_search(monkeypatch)
    for eps in NEAR_SCALAR_EPS:
        x = near_non_positive_scalar(alg, eps)
        got = factor_positive_products(x, m=5)
        assert got.route == "construction"
        assert_positive_factorization(x, got.factors, 1e-6 * op_norm(x))


@pytest.mark.parametrize("m", [4, 5])
def test_stacked_construction_matches_the_per_candidate_reference(m):
    members = [random_member(a, rng_from((83, k))) for a in (M2, M3, M23, M4) for k in range(5)]
    # at m = 4 the near scalars go without the lead, and in M3 at eps =
    # 1e-11 one candidate is singular: the reference skips it, the stack
    # leaves the element to the search (the test below)
    near = [near_non_positive_scalar(a, eps) for a in (M2, M3, M23) for eps in NEAR_SCALAR_EPS]
    for x in members + list(SCALARS) + (near if m == 5 else []):
        got, want = factorization._construct(x, m, 0), per_candidate_construct(x, m, 0)
        if want is None:
            assert got is None
            continue
        assert len(got) == len(want) == m
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g.blocks, w.blocks))


def test_a_failing_stacked_step_leaves_the_element_to_the_search(monkeypatch):
    # one singular candidate raises for the whole stack: no construction
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(factorization, "_triangular_eigvecs", singular)
    x = random_member(M2, rng_from(17))
    got = factor_positive_products(x, m=5, opt=OptimizerConfig(restarts=1))
    assert got.route == "search"
    assert got.residual <= 1e-6 * op_norm(x)


# ---------------------------------------------------------------------------
# distance probes


def test_distance_zero_for_positives():
    rng = rng_from(31)
    assert best_approx_distance(random_positive(M23, rng)) == 0.0


def test_distance_for_scalar_minus_one():
    opt = OptimizerConfig(restarts=4)
    for m in (3, 5):
        d = best_approx_distance(elem(M1, [[-1.0]]), m=m, opt=opt)
        assert d == pytest.approx(1.0, abs=1e-6)


def test_counts_below_one_are_rejected():
    # as factor_positive_products rejects m < 1
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restart"):
            OptimizerConfig(restarts=restarts)
    for max_iterations in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            OptimizerConfig(max_iterations=max_iterations)
    # a NaN target would let every residual pass: residual > nan is false
    for name in ("gradient_tolerance", "target_residual"):
        for bad in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match=name):
                OptimizerConfig(**{name: bad})
    x = elem(M2, [[1.0, 0.0], [0.0, -1.0]])
    for m in (0, -2):
        with pytest.raises(ValueError, match="factor"):
            best_approx_distance(x, m)
        with pytest.raises(ValueError, match="factor"):
            factor_positive_products(random_member(M2, rng_from(3)), m)


def test_distance_probe_handles_singular_input():
    x = elem(M2, [[0.0, 1.0], [0.0, 0.0]])  # nilpotent, not positive
    d = best_approx_distance(x, m=3, opt=OptimizerConfig(restarts=2))
    assert 0.0 <= d <= 1.0 + 1e-9


def test_distance_when_the_norm_overflows():
    # op_norm(x) is inf, so the relative default tolerance of is_positive is
    # too: x is not positive, its witness is not finite, and inf is the
    # upper bound left
    x = elem(M2, [[1e308, -1e308], [1e308, 1e308j]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not is_positive(x)
        assert best_approx_distance(x) == np.inf


NILPOTENT = elem(M2, [[0.0, 1.0], [0.0, 0.0]])
DIAG_ONE_MINUS_ONE = elem(M2, [[1.0, 0.0], [0.0, -1.0]])


def seeded_non_members(algebras, count=4):
    xs = [random_element(alg, rng_from((77, k))) for alg in algebras for k in range(count)]
    assert not any(membership_test(x) for x in xs)
    return xs


def test_distance_witness_checked_independently():
    for x in seeded_non_members((M1, M2, M3, M23)) + [NILPOTENT]:
        got = distance_to_closure(x)
        scale = op_norm(x)
        assert got.distance >= 0.0
        for y, n in zip(got.witness.blocks, x.algebra.block_sizes):
            det = np.linalg.det(y)
            assert abs(det.imag) <= 1e-12 * scale**n
            assert det.real >= -1e-12 * scale**n
        dist = max(power_iteration_norm(y - b) for y, b in zip(got.witness.blocks, x.blocks))
        assert dist == pytest.approx(got.distance, rel=1e-9, abs=1e-12 * scale)


@pytest.mark.parametrize("m", [3, 5])
def test_distance_lower_bound_below_the_search(m):
    opt = OptimizerConfig(restarts=1, max_iterations=300)
    for x in seeded_non_members((M2, M3, M23), count=2):
        residual, _, _ = factorization._search(factorization._Objective(x, m), opt, polish=False)
        assert np.isfinite(residual)
        assert distance_to_closure(x).distance <= residual * (1 + 1e-12)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_distance_of_scalars_in_closed_form(monkeypatch, m):
    no_search(monkeypatch)
    for x in seeded_non_members((M1,), count=8):
        z = x.blocks[0][0, 0]
        exact = abs(z.imag) if z.real >= 0 else abs(z)  # dist(z, [0, inf))
        assert abs(best_approx_distance(x, m=m) - exact) <= 1e-15 * abs(z)


def hermitian_conjugate(x, rng):
    u = random_unitary(x.algebra, rng).blocks[0]
    a = u @ x.blocks[0] @ u.conj().T
    return Element(x.algebra, ((a + a.conj().T) / 2,))  # exactly hermitian


# the two singular values of diag(1, -1) tie, so which one the witness
# drops must not depend on how the input is oriented
SIGN_FLIPS = [DIAG_ONE_MINUS_ONE, elem(M2, [[-1.0, 0.0], [0.0, 1.0]])] + [
    hermitian_conjugate(DIAG_ONE_MINUS_ONE, rng_from((78, k))) for k in range(8)
]


@pytest.mark.parametrize("m", [1, 3])
def test_closed_bracket_answers_without_search(monkeypatch, m):
    no_search(monkeypatch)
    for x in SIGN_FLIPS:
        assert best_approx_distance(x, m=m) == pytest.approx(1.0, rel=1e-14)
        assert is_positive(distance_to_closure(x).witness)
    assert best_approx_distance(DIAG_ONE_MINUS_ONE, m=m) == 1.0
    assert best_approx_distance(NILPOTENT, m=5) == 0.0


def test_closed_bracket_needs_a_positive_witness_below_m4():
    # a member, so the closed form is 0 with the witness x itself, which
    # is not positive: at m = 1 the distance is that to the positives, the
    # norm 1/2 of the skew-hermitian part, whose hermitian part is positive
    x = elem(M2, [[1.0, 1.0], [0.0, 1.0]])
    assert distance_to_closure(x).distance == 0.0
    assert best_approx_distance(x, m=1, opt=OptimizerConfig(restarts=1)) == pytest.approx(0.5, abs=1e-9)


def test_distance_to_closure_against_the_oracle():
    for x in seeded_non_members((M2, M3, M23, M4), count=8):
        assert distance_to_closure(x).distance == pytest.approx(closure_distance(x.blocks), rel=1e-14)


def test_distance_to_closure_spreads_the_turn_over_unequal_angles():
    # splitting the turn equally over the best k singular values reaches
    # the closure only at 0.93875
    x = random_element(M4, rng_from((77, 5)))
    assert distance_to_closure(x).distance == pytest.approx(0.60378, abs=5e-6)


def test_no_search_from_m4(monkeypatch):
    no_search(monkeypatch)
    for x in seeded_non_members((M2, M3, M23, M4), count=8) + [NILPOTENT]:
        want = distance_to_closure(x).distance
        for m in (4, 5, 8):
            assert best_approx_distance(x, m=m) == want


def test_open_bracket_caps_the_search_with_the_witness_from_m4(monkeypatch):
    # x has no positive witness, so below four factors the search answers
    # alone; from four on the witness answers and no search result moves it
    x = random_element(M2, rng_from((77, 1)))
    got = distance_to_closure(x)
    assert not is_positive(got.witness)
    monkeypatch.setattr(factorization, "_search", lambda *args, **kwargs: (got.distance + 1.0, None, 0))
    assert best_approx_distance(x, m=5) == got.distance
    assert best_approx_distance(x, m=3) == got.distance + 1.0


def test_failed_search_leaves_the_witness_from_m4(monkeypatch):
    # a LinAlgError in the search (the polish can overflow exp) propagates
    # below four factors and cannot reach the closed form from four on
    def search(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(factorization, "_search", search)
    x = random_element(M2, rng_from((77, 1)))
    assert best_approx_distance(x, m=4) == distance_to_closure(x).distance
    with pytest.raises(np.linalg.LinAlgError):
        best_approx_distance(x, m=3)


def test_residual_curve_is_monotone_enough():
    x = elem(M2, [[1.0, 0], [0, -1.0]])
    curve = dict(residual_curve(x, ms=(1, 3), opt=OptimizerConfig(restarts=4)))
    assert set(curve) == {1, 3}
    assert curve[3] <= curve[1] + 1e-9


# ---------------------------------------------------------------------------
# the objective's coordinates and gradients


def test_pack_inverts_the_stacked_unpack():
    m = 3
    theta = np.random.default_rng(43).normal(size=m * 13)
    layout = factorization._layout(M23, m)
    stacks = [factorization._hermitian(theta[idx], n) for idx, n in zip(layout, (2, 3))]
    # factor 0's M2 block leads: diagonal, then real and imaginary upper part
    upper = theta[2] + 1j * theta[3]
    assert np.array_equal(stacks[0][0], [[theta[0], upper], [np.conj(upper), theta[1]]])
    assert all(np.array_equal(h, h.conj().swapaxes(-1, -2)) for h in stacks)
    hs = [[stack[j] for stack in stacks] for j in range(m)]
    assert np.array_equal(factorization._pack(hs, M23), theta)


def central_differences(f, theta, eps=1e-5):
    steps = eps * np.eye(len(theta))
    return np.array([(f(theta + e)[0] - f(theta - e)[0]) / (2 * eps) for e in steps])


def test_frobenius_gradient_matches_central_differences():
    obj = factorization._Objective(random_member(M23, rng_from(41)), 3)
    theta = 0.3 * np.random.default_rng(41).normal(size=3 * 13)
    _, grad = obj.value_and_grad(theta)
    fd = central_differences(obj.value_and_grad, theta)
    assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


@pytest.mark.xfail(
    strict=True,
    reason="the polish gradient pulls back u v^T where the top singular "
    "pair of the residual gives u v*; see CHANGES.md",
)
def test_operator_norm_gradient_matches_central_differences():
    obj = factorization._Objective(random_member(M23, rng_from(41)), 3)
    theta = 0.3 * np.random.default_rng(41).normal(size=3 * 13)
    # the worst block's top singular value is simple and clear of the rest
    s = sorted(np.linalg.svd(b.r, compute_uv=False)[0] for b in obj._blocks(theta))
    assert s[-1] > 1.2 * s[-2]
    _, grad = obj.opnorm_value_and_grad(theta)
    fd = central_differences(obj.opnorm_value_and_grad, theta)
    assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)
