"""Splitting, commutator witnesses, membership, and the positive-factor
optimizer."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from oracles import (
    closure_distance,
    concatenated_coordinates,
    depth_first_split,
    element_residual,
    memoized_lbfgs,
    per_candidate_construct,
    positive_at_by_svd,
    power_iteration_norm,
    turn_radius_by_bisection,
)

import apfp.factorization as factorization
from apfp.algebra import _identity_distances, _positive_at
from apfp import (
    AlgebraDescriptor,
    Element,
    ExpLine,
    OptimizerConfig,
    ProductPolar,
    adjoint,
    best_approx_distance,
    commutator_factor_su,
    distance_to_closure,
    evaluate,
    exp_element,
    factor_positive_products,
    is_positive,
    membership_test,
    op_norm,
    quotient_norm,
    residual_curve,
    split_into_exponentials,
)
from apfp.errors import (
    APFPError,
    DescriptorMismatch,
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


def test_split_single_small_rotation(monkeypatch):
    monkeypatch.setattr(factorization, "MAX_STEP_NORM", 0.9)
    h = elem(M2, [[0.3, 0.1], [0.1, -0.2]])
    path = ExpLine(1j * h)
    split = split_into_exponentials(path)
    assert len(split.logs) == 1
    assert op_norm(split.logs[0] - h) <= 1e-10
    assert op_norm(split.reconstruct() - evaluate(path, 1.0)) <= 1e-10


def test_split_polar_path_sums_to_zero_trace():
    rng = rng_from(3)
    c = random_self_adjoint(M23, rng, norm=1.5)
    d = random_self_adjoint(M23, rng, norm=1.5)
    path = ProductPolar(c, d)
    split = split_into_exponentials(path)
    assert quotient_norm(split.trace_sum()) <= 1e-7
    assert op_norm(split.reconstruct() - evaluate(path, 1.0)) <= 1e-8


def test_split_ill_conditioned_polar_path():
    # e^{tc} e^{td} reaches condition number 1.4e6 here, so a polar
    # factor formed as g (g*g)^{-1/2} would be unitary to only about 1e-4
    rng = rng_from(1)
    c = random_self_adjoint(M23, rng, norm=5.0)
    d = random_self_adjoint(M23, rng, norm=4.0)
    path = ProductPolar(c, d)
    split = split_into_exponentials(path)
    assert quotient_norm(split.trace_sum()) <= 1e-7
    assert op_norm(split.reconstruct() - evaluate(path, 1.0)) <= 1e-8


def test_split_partition_is_increasing_and_spans_domain(monkeypatch):
    monkeypatch.setattr(factorization, "MAX_STEP_NORM", 0.2)
    rng = rng_from(5)
    c = random_self_adjoint(M2, rng, norm=2.0)
    d = random_self_adjoint(M2, rng, norm=2.0)
    split = split_into_exponentials(ProductPolar(c, d))
    ts = split.partition
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert len(split.logs) == len(ts) - 1


def test_split_requires_identity_start():
    h = elem(M2, [[0.3, 0], [0, -0.1]])
    shifted = ExpLine(1j * h, domain=(0.5, 1.0))
    with pytest.raises(ValueError):
        split_into_exponentials(shifted)


def test_split_overflow(monkeypatch):
    monkeypatch.setattr(factorization, "MAX_STEP_NORM", 1e-7)
    h = elem(M1, [[1.0]])
    path = ExpLine(1j * h)
    with pytest.raises(PartitionOverflow):
        split_into_exponentials(path)


def test_split_rejects_non_unitary_path():
    from apfp.errors import NotUnitaryPath

    path = ExpLine(elem(M2, [[0.5, 0], [0, -0.5]]))  # positive values
    with pytest.raises(NotUnitaryPath, match=r"^value at t=1\.0 is not unitary \("):
        split_into_exponentials(path)


def test_split_overflow_boundary(monkeypatch):
    # every step of e^{it} over 2^-k has the same gap, about 2^-k, so a
    # threshold the 2^16-segment partition meets stops there and one only
    # the 2^17-segment partition meets overflows
    path = ExpLine(1j * elem(M1, [[1.0]]))

    def gaps(level):
        (v,) = path._values(np.arange(2**level + 1) / 2**level)
        return _identity_distances([v[:-1].conj() * v[1:]])

    monkeypatch.setattr(factorization, "MAX_STEP_NORM", float(gaps(16).max()))
    split = split_into_exponentials(path)
    assert len(split.logs) == 2**16 == factorization.MAX_SPLIT_SEGMENTS
    monkeypatch.setattr(factorization, "MAX_STEP_NORM", float(gaps(17).max()))
    with pytest.raises(PartitionOverflow):
        split_into_exponentials(path)


def test_split_non_finite_value_raises_non_finite():
    # e^{800 t} overflows at t = 1, and evaluate_many reports it
    with pytest.raises(NonFiniteValue):
        split_into_exponentials(ExpLine(elem(M1, [[800.0]])))


def split_reference_paths():
    rng = rng_from(2024)
    for _ in range(12):
        c = random_self_adjoint(M23, rng, norm=float(rng.uniform(1.0, 2.0)))
        d = random_self_adjoint(M23, rng, norm=float(rng.uniform(1.0, 2.0)))
        yield ProductPolar(c, d), 0.5
    yield ProductPolar(c, d), 0.1
    # the ill-conditioned path of test_split_ill_conditioned_polar_path
    rng = rng_from(1)
    c = random_self_adjoint(M23, rng, norm=5.0)
    yield ProductPolar(c, random_self_adjoint(M23, rng, norm=4.0)), 0.5


def test_split_matches_depth_first_reference_bitwise(monkeypatch):
    for path, max_step_norm in split_reference_paths():
        monkeypatch.setattr(factorization, "MAX_STEP_NORM", max_step_norm)
        split = split_into_exponentials(path)
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
    recon = (v @ w) @ (adjoint(v) @ adjoint(w))
    assert op_norm(recon - u) <= 1e-10


def test_commutator_rejects_wrong_determinant():
    u = elem(M1, [[np.exp(1j * np.pi / 2)]])
    with pytest.raises(DeterminantNotOne):
        commutator_factor_su(u)


def test_commutator_degenerate_spectrum():
    u = elem(M3, [[1j, 0, 0], [0, 1j, 0], [0, 0, -1.0]])
    assert abs(np.linalg.det(u.blocks[0]) - 1.0) <= 1e-12
    v, w = commutator_factor_su(u)
    recon = (v @ w) @ (adjoint(v) @ adjoint(w))
    assert op_norm(recon - u) <= 1e-8


@given(SEEDS, st.integers(min_value=2, max_value=6))
@settings(max_examples=20)
def test_commutator_on_random_special_unitaries(seed, n):
    alg = AlgebraDescriptor((n,))
    u = random_special_unitary(alg, rng_from(seed))
    v, w = commutator_factor_su(u)
    recon = (v @ w) @ (adjoint(v) @ adjoint(w))
    assert op_norm(recon - u) <= 1e-8
    for factor in (v, w):
        assert op_norm(adjoint(factor) @ factor - alg.identity()) <= 1e-10


# ---------------------------------------------------------------------------
# membership in the closure of products of positives


def test_membership_of_positives_and_products():
    rng = rng_from(7)
    a = random_positive(M23, rng)
    assert membership_test(a)
    b = random_positive(M23, rng)
    c = random_positive(M23, rng)
    assert membership_test(a @ (b @ c))


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
    assert membership_test(x @ y)


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
        prod = prod @ f
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
    monkeypatch.setattr(factorization._Objective, "factorization", lambda self, theta, used: None)
    x = random_member(M2, rng_from(17))
    with pytest.raises(NoConvergence) as err:
        factor_positive_products(x, m=2, opt=OptimizerConfig(restarts=2))
    assert err.value.best_residual == np.inf
    assert err.value.best is None


def test_a_linalgerror_in_the_search_ends_in_no_convergence(monkeypatch):
    # the documented failure of the member search, with no best run
    error = np.linalg.LinAlgError("Eigenvalues did not converge")

    def search(*args, **kwargs):
        raise error

    monkeypatch.setattr(factorization, "_search", search)
    x = random_member(M2, rng_from(17))
    with pytest.raises(NoConvergence) as err:
        factor_positive_products(x, m=3, opt=OptimizerConfig(restarts=2))
    assert err.value.best is None
    assert err.value.best_residual == np.inf
    assert err.value.__cause__ is error


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


def built_factorizations(monkeypatch) -> list:
    """Every PositiveFactorization the module builds from now on, in order."""
    built = []
    real = factorization.PositiveFactorization

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(factorization, "PositiveFactorization", counted)
    return built


def test_a_converged_search_returns_its_restarts_factorization(monkeypatch):
    # the block's first restart converges; x's factorization is its stack
    built = built_factorizations(monkeypatch)
    x = random_member(M2, rng_from(17))
    got = factor_positive_products(x, m=3, opt=OptimizerConfig(restarts=8))
    assert len(built) == 2 and built[1] is got
    assert got.stacks[0].tobytes() == built[0].stacks[0].tobytes()
    assert got.residual == built[0].residual
    assert (got.route, got.restarts_used) == ("search", 1)


def test_no_convergence_carries_the_best_restarts_factorization(monkeypatch):
    built = built_factorizations(monkeypatch)
    x = random_member(M2, rng_from(17))
    opt = OptimizerConfig(restarts=3, max_iterations=5, target_residual=0.0)
    with pytest.raises(NoConvergence) as err:
        factor_positive_products(x, m=3, opt=opt)
    assert len(built) == 4  # one per restart, then x's from the best
    restarts = built[:3]
    assert [f.restarts_used for f in restarts] == [1, 2, 3]
    best, want = err.value.best, min(restarts, key=lambda f: f.residual)
    assert best is built[3]
    assert best.stacks[0].tobytes() == want.stacks[0].tobytes()
    assert (best.residual, best.restarts_used) == (want.residual, want.restarts_used)
    assert best.route == "search"
    assert err.value.best_residual == best.residual


def test_a_polished_search_builds_two_factorizations_per_restart(monkeypatch):
    built = built_factorizations(monkeypatch)
    x = random_element(M2, rng_from((77, 1)))
    opt = OptimizerConfig(restarts=2, max_iterations=20)
    found = factorization._search(factorization._Objective(x, 3), opt, polish=True)
    assert len(built) == 4  # each restart, then its polish
    assert [f.restarts_used for f in built] == [1, 1, 2, 2]
    assert found is min(built, key=lambda f: f.residual)


def test_search_computes_its_start_once(monkeypatch):
    # the continuation and every Gaussian start read the polar logs of x
    calls = []
    polar_logs = factorization._polar_logs

    def counted(x):
        calls.append(x)
        return polar_logs(x)

    monkeypatch.setattr(factorization, "_polar_logs", counted)
    x = random_element(M2, rng_from(3))
    opt = OptimizerConfig(restarts=4, max_iterations=5)
    factorization._search(factorization._Objective(x, 3), opt, polish=False)
    assert len(calls) == 1


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
# the factorization's stacks


def assert_stacks_are_the_factors(got, want, x):
    """got holds want's factors bit for bit, one read-only (m, n_i, n_i)
    stack per block, and its residual is their Element-arithmetic
    residual against x, bit for bit."""
    m = len(want)
    assert [s.shape for s in got.stacks] == [(m, n, n) for n in x.algebra.block_sizes]
    assert not any(s.flags.writeable for s in got.stacks)
    assert len(got.factors) == m
    for f, w in zip(got.factors, want):
        assert [b.tobytes() for b in f.blocks] == [b.tobytes() for b in w.blocks]
    for i, stack in enumerate(got.stacks):
        assert stack.tobytes() == np.array([w.blocks[i] for w in want]).tobytes()
    assert got.residual == element_residual(want, x)
    assert got.max_factor_norm == max(op_norm(w) for w in want)


def test_positive_route_stacks_x_and_identities():
    x = random_positive(M23, rng_from(11))
    got = factor_positive_products(x, m=3)
    assert got.route == "positive"
    assert_stacks_are_the_factors(got, (x, M23.identity(), M23.identity()), x)


@pytest.mark.parametrize("alg", [M2, M23])
def test_construction_route_stacks_the_reference_factors(monkeypatch, alg):
    no_search(monkeypatch)
    x = random_member(alg, rng_from((83, 1)))
    got = factor_positive_products(x, m=5)
    assert got.route == "construction"
    assert_stacks_are_the_factors(got, per_candidate_construct(x, 5, 0), x)


@pytest.mark.parametrize("alg", [M2, M23])
def test_search_route_stacks_the_restarts_factors(monkeypatch, alg):
    # each block runs its own restart; factor j of block i is that
    # restart's b.p[j].  A short Gaussian restart in place of the
    # continuation keeps this fast
    seen = []
    real = factorization._Objective.factorization

    def spy(obj, theta, restarts_used):
        seen.append((obj, theta.copy()))
        return real(obj, theta, restarts_used)

    def no_continuation(obj, opt):
        raise APFPError("no continuation")

    monkeypatch.setattr(factorization._Objective, "factorization", spy)
    monkeypatch.setattr(factorization, "_continuation_start", no_continuation)
    x = random_member(alg, rng_from(17))
    opt = OptimizerConfig(restarts=1, max_iterations=20, target_residual=0.0)
    with pytest.raises(NoConvergence) as err:
        factor_positive_products(x, m=3, opt=opt)
    got = err.value.best
    assert (got.route, got.restarts_used) == ("search", 1)
    assert [obj.x.blocks[0].tobytes() for obj, _ in seen] == [b.tobytes() for b in x.blocks]
    blocks = [obj._block(theta) for obj, theta in seen]
    want = [Element(alg, tuple(b.p[j] for b in blocks)) for j in range(3)]
    assert_stacks_are_the_factors(got, want, x)


def test_factorization_rejects_stacks_that_do_not_fit():
    x = random_positive(M23, rng_from(11))
    good = tuple(np.broadcast_to(b, (2, len(b), len(b))) for b in x.blocks)
    with pytest.raises(DescriptorMismatch):
        factorization.PositiveFactorization(good[:1], x)
    with pytest.raises(DescriptorMismatch):
        factorization.PositiveFactorization((good[0], good[1][:1]), x)
    bad = (good[0], np.full((2, 3, 3), np.nan))
    with pytest.raises(NonFiniteValue):
        factorization.PositiveFactorization(bad, x)
    assert factorization.PositiveFactorization(good, x).residual > 0


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


@pytest.mark.parametrize("m", [4, 5])
def test_members_far_above_unit_scale_are_constructed(monkeypatch, m):
    # unscaled, the Sourour steps overflowed, and then the search's first
    # eigh raised LinAlgError
    no_search(monkeypatch)
    x = random_member(M3, rng_from(5))
    for norm in (1e200, 1e250, 1e300):
        big = x.map_blocks(lambda b: b * (norm / op_norm(x)))
        got = factor_positive_products(big, m=m)
        assert got.route == "construction"
        assert_positive_factorization(big, got.factors, 1e-6 * op_norm(big))


@pytest.mark.parametrize("m", [4, 5])
def test_members_far_below_unit_scale_are_constructed(monkeypatch, m):
    # positive within the absolute 1e-10 that PositiveFactorization checks
    # factors with, but far from self-adjoint at their own scale: no
    # shortcut, each is constructed
    no_search(monkeypatch)
    x = random_member(M3, rng_from(5))
    for norm in (1e-11, 1e-100, 1e-300):
        small = x.map_blocks(lambda b: b * (norm / op_norm(x)))
        got = factor_positive_products(small, m=m)
        assert got.route == "construction"
        for f in got.factors:
            (b,) = f.blocks
            assert np.abs(b - b.conj().T).max() <= 1e-12 * np.linalg.norm(b, 2)
            assert np.linalg.eigvalsh(b)[0] > 0
        assert_positive_factorization(small, got.factors, 1e-6 * op_norm(small))


@pytest.mark.parametrize("m", [4, 5])
def test_construction_scales_each_block_by_its_own_norm(m):
    # a unit block beside a 1e200 one: over the larger norm it would
    # underflow.  The element is singular by the element-wide rule, so
    # the construction is called directly and checked block by block
    u = random_member(M3, rng_from(5))
    x = elem(AlgebraDescriptor((1, 3)), [[1e200]], u.blocks[0] / op_norm(u))
    stacks = factorization._construct(x, m, 0)
    assert stacks is not None and [len(s) for s in stacks] == [m, m]
    for xb, stack in zip(x.blocks, stacks):
        block = Element(AlgebraDescriptor((len(xb),)), (xb,))
        parts = [Element(block.algebra, (f,)) for f in stack]
        assert_positive_factorization(block, parts, 1e-6 * op_norm(block))


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
        assert np.array_equal(searched[-1].blocks[0], x.blocks[0])
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
    # M5 takes four Sourour steps, and M1 + M4 a positive scalar beside them
    algebras = (M2, M3, M23, M4, AlgebraDescriptor((5,)), AlgebraDescriptor((1, 4)))
    members = [random_member(a, rng_from((83, k))) for a in algebras for k in range(5)]
    # at m = 4 the near scalars go without the lead, and in M3 at eps =
    # 1e-11 one candidate is singular: the reference skips it, the stack
    # leaves the element to the search (the test below)
    near = [near_non_positive_scalar(a, eps) for a in (M2, M3, M23) for eps in NEAR_SCALAR_EPS]
    for seed in (0, 1):
        for x in members + list(SCALARS) + (near if m == 5 else []):
            got, want = factorization._construct(x, m, seed), per_candidate_construct(x, m, seed)
            if want is None:
                assert got is None
                continue
            # one (m, n_i, n_i) stack per block against the reference's m elements
            assert len(want) == m
            assert [s.shape for s in got] == [(m, n, n) for n in x.algebra.block_sizes]
            for i, stack in enumerate(got):
                assert np.array_equal(stack, np.array([w.blocks[i] for w in want]))


@pytest.mark.parametrize("alg", [M2, M3, M23], ids=str)
def test_positive_check_of_constructed_factors_takes_no_skew_svd(monkeypatch, alg):
    svds = []
    svd = np.linalg.svd

    def counted(a, *rest, **kw):
        svds.append(a.shape)
        return svd(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    tols = np.full(5, factorization.FACTOR_POSITIVITY_TOL)
    for k in range(3):
        x = random_member(alg, rng_from((901, alg.rank, k)))
        fac = factor_positive_products(x, m=5)
        assert fac.route == "construction"
        # the construction's factors are exactly hermitian: no SVD
        svds.clear()
        assert _positive_at(fac.stacks, tols).tolist() == [True] * 5
        assert svds == []
        assert positive_at_by_svd(fac.stacks, tols).tolist() == [True] * 5
        # one point off hermitian by an ulp-sized entry brings back the SVD
        # of its block stack, and of that one alone
        stacks = [s.copy() for s in fac.stacks]
        stacks[-1][2, 0, 1] += 1e-15
        svds.clear()
        got = _positive_at(stacks, tols)
        n = alg.block_sizes[-1]
        assert svds == [(5, n, n)]
        assert got.tolist() == positive_at_by_svd(stacks, tols).tolist()
        # the positivity check and residual of the former route, bit for bit
        with monkeypatch.context() as patched:
            patched.setattr(factorization, "_positive_at", positive_at_by_svd)
            former = factorization.PositiveFactorization(fac.stacks, x)
        assert former.residual.hex() == fac.residual.hex()


CONSTRUCTION_CACHES = (factorization._draws, factorization._identities, factorization._ramp)


def test_construction_caches_are_read_only_and_hold_the_seeded_draws():
    for seed, i, n in [(0, 0, 2), (1, 2, 5)]:
        want = np.random.default_rng((seed, i)).normal(
            size=(factorization.CONSTRUCTION_CANDIDATES, (n - 1) * (n + 2))
        )
        assert factorization._draws(seed, i, n).tobytes() == want.tobytes()
    assert factorization._identities(4, 3).tobytes() == np.array([np.eye(3, dtype=complex)] * 4).tobytes()
    assert factorization._ramp(3).tobytes() == (3.0 ** np.array([-1.0, 0.0, 1.0])).tobytes()
    for a in (factorization._draws(1, 2, 5), factorization._identities(4, 3), factorization._ramp(3)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_construction_gives_the_same_bytes_from_cleared_caches():
    for x, m, seed in [(random_member(M23, rng_from((83, 2))), 5, 1), (SCALARS[2], 4, 0)]:
        runs = []
        for _ in range(2):
            for cache in CONSTRUCTION_CACHES:
                cache.cache_clear()
            runs.append(factorization._construct(x, m, seed))  # fills the caches
            runs.append(factorization._construct(x, m, seed))  # reads them
        assert len({b"".join(s.tobytes() for s in stacks) for stacks in runs}) == 1


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
    # block by block: r*_i bounds the distance of x_i, which the search reaches from above
    opt = OptimizerConfig(restarts=1, max_iterations=300)
    for x in seeded_non_members((M2, M3, M23), count=2):
        closure = distance_to_closure(x)
        assert closure.distance == max(closure.block_distances)
        for xb, r in zip(factorization._block_elements(x), closure.block_distances):
            found = factorization._search(factorization._Objective(xb, m), opt, polish=False)
            assert found is not None
            assert np.isfinite(found.residual)
            assert r <= found.residual * (1 + 1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_the_search_sees_one_block(monkeypatch, m):
    # products of positives in a direct sum are products per block, so
    # the distance of x + y is the larger of theirs, to the bit.  Seed
    # (77, 5), whose searches do not raise; a continuation of 40
    # iterations a stage keeps this fast, and the identity holds at any
    monkeypatch.setattr(factorization, "_CONTINUATION_ITERS", 40)
    opt = OptimizerConfig(restarts=2, max_iterations=100)
    x = random_element(M2, rng_from((77, 5)))
    y = random_element(M3, rng_from((77, 5)))
    both = best_approx_distance(Element(M23, x.blocks + y.blocks), m, opt)
    assert both == max(best_approx_distance(x, m, opt), best_approx_distance(y, m, opt))


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


def test_turn_radius_is_the_float_of_the_full_bisection(monkeypatch):
    # Newton steps and a probe a few floats wide replace most of the
    # bisection; r* and the witness must keep every bit
    xs = seeded_non_members((M2, M3, M23, M4), count=8) + seeded_non_members((M1,), count=32)
    got = [distance_to_closure(x) for x in xs]
    monkeypatch.setattr(factorization, "_turn_radius", turn_radius_by_bisection)
    for x, g in zip(xs, got):
        want = distance_to_closure(x)
        assert g.distance == want.distance
        assert all(np.array_equal(a, b) for a, b in zip(g.witness.blocks, want.witness.blocks))


@pytest.mark.parametrize("scale", [1.0, 1e308])
def test_distance_at_the_top_of_the_float_range(scale):
    # the distance scales with x; near 1.8e308 the midpoint (lo + hi) / 2
    # overflows, and a bisection on it stopped at once with r_i = s_n:
    # 1.2e308 here instead of 7.5e307
    x = Element(M2, (np.diag([1.5, 1.2]) * scale * np.exp(0.6j),))
    unit = Element(M2, (np.diag([1.5, 1.2]) * np.exp(0.6j),))
    got = distance_to_closure(x).distance
    assert got == pytest.approx(scale * distance_to_closure(unit).distance, rel=1e-15)


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
    found = SimpleNamespace(residual=got.distance + 1.0)
    monkeypatch.setattr(factorization, "_search", lambda *args, **kwargs: found)
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
    # theta is the block's (m, n^2) coordinates raveled: factor 0 leads,
    # its diagonal, then the real and the imaginary upper part
    m = 3
    for n in (2, 3):
        theta = np.random.default_rng(43).normal(size=m * n * n)
        stack = factorization._hermitian(theta.reshape(m, n * n), n)
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        assert np.array_equal(factorization._coordinates(stack).ravel(), theta)
        if n == 2:
            upper = theta[2] + 1j * theta[3]
            assert np.array_equal(stack[0], [[theta[0], upper], [np.conj(upper), theta[1]]])
            assert stack[1][0, 0] == theta[4]


def test_coordinates_match_the_concatenating_reference():
    # the same bits, NaN payloads and signed zeros included
    rng = np.random.default_rng(44)
    for n in (1, 2, 3, 4):
        stack = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        stack[1, 0, -1] = complex(np.inf, np.nan)
        stack[1, -1, -1] = complex(-np.inf, -0.0)
        stack[2, 0, 0] = complex(np.nan, np.inf)
        stack[2, 0, -1] = complex(-0.0, -np.inf)
        got = factorization._coordinates(stack)
        assert got.shape == (3, n * n)
        assert got.tobytes() == concatenated_coordinates(stack).tobytes()


def lbfgs_outcome(run, fun, theta):
    res = run(fun, theta, 100, 1e-10)
    return res.x.tobytes(), np.float64(res.fun).tobytes(), res.nit, res.nfev


@pytest.mark.parametrize("objective", ["value_and_grad", "opnorm_value_and_grad"])
def test_lbfgs_matches_scipys_memoized_route(objective):
    # two callables sharing one evaluation per theta must make scipy
    # evaluate the thetas of jac=True, in the same order.  Seed 78, whose
    # op-norm runs from these starts do not raise
    opt = OptimizerConfig()
    for n in (1, 2, 3):
        x = random_element(AlgebraDescriptor((n,)), rng_from((78, n)))
        for m in (1, 2, 3):
            obj = factorization._Objective(x, m)
            theta = factorization._gaussian_start(obj, opt, 1)
            fun = getattr(obj, objective)
            want = lbfgs_outcome(memoized_lbfgs, fun, theta)
            assert lbfgs_outcome(factorization._lbfgs, fun, theta) == want


def test_an_overflowing_search_warns_of_nothing():
    # exp(800) overflows, so the value is not finite, and the run ends with no
    # RuntimeWarning from the objective or from scipy's arithmetic on it
    obj = factorization._Objective(elem(M1, [[-1.0]]), 1)
    values = []

    def recorded(theta):
        value, grad = obj.value_and_grad(theta)
        values.append(value)
        return value, grad

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = factorization._lbfgs(recorded, np.array([800.0]), 20, 1e-10)
    assert not np.isfinite(values[0])
    assert not np.isfinite(res.fun)


def central_differences(f, theta, eps=1e-5):
    steps = eps * np.eye(len(theta))
    return np.array([(f(theta + e)[0] - f(theta - e)[0]) / (2 * eps) for e in steps])


def block_objectives(m):
    """The objective of each block of a seeded M2 + M3 member, each with a
    seeded theta."""
    rng = np.random.default_rng(41)
    for xb in factorization._block_elements(random_member(M23, rng_from(41))):
        yield factorization._Objective(xb, m), 0.3 * rng.normal(size=m * xb.algebra.block_sizes[0] ** 2)


def test_frobenius_gradient_matches_central_differences():
    for obj, theta in block_objectives(3):
        _, grad = obj.value_and_grad(theta)
        fd = central_differences(obj.value_and_grad, theta)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


@pytest.mark.xfail(
    strict=True,
    reason="the polish gradient pulls back u v^T where the top singular "
    "pair of the residual gives u v*; see CHANGES.md",
)
def test_operator_norm_gradient_matches_central_differences():
    for obj, theta in block_objectives(3):
        # the top singular value of the residual is simple and clear of the rest
        s = np.linalg.svd(obj._block(theta).r, compute_uv=False)
        assert s[0] > 1.2 * s[1]
        _, grad = obj.opnorm_value_and_grad(theta)
        fd = central_differences(obj.opnorm_value_and_grad, theta)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)
