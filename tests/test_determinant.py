"""Path determinants against closed forms and a log-det continuation oracle."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st

from apfp import (
    AlgebraDescriptor,
    Concatenation,
    Element,
    ExpLine,
    PointwiseProduct,
    ProductPolar,
    Reversal,
    Sampled,
    TraceValue,
    delta_1_0,
    determinant_mod_lattice,
    evaluate,
    exp_element,
    lattice_distance,
    lattice_reduce,
    op_norm,
    path_determinant,
    universal_trace,
)
from apfp.determinant import evaluate_many
from apfp.errors import (
    NonFiniteValue,
    NotALoop,
    NotUnitaryPath,
    OutOfDomain,
    SingularInput,
    SingularValueOnPath,
)
from apfp.sampling import random_element, random_self_adjoint, random_unitary, rng_from

from oracles import det_path_mix, hermitian_at_full_scale, logdet_along_path, pointwise_value

M1 = AlgebraDescriptor((1,))
M2 = AlgebraDescriptor((2,))
M23 = AlgebraDescriptor((2, 3))

TWO_PI = 2.0 * np.pi
SEEDS = st.integers(min_value=0, max_value=10**6)


def elem(alg, *blocks):
    return Element(alg, tuple(np.array(b, dtype=complex) for b in blocks))


def winding_loop(alg, block, windings):
    """Loop diag(e^{2 pi i w t}, 1, ...) in one block."""
    blocks = []
    for i, n in enumerate(alg.block_sizes):
        b = np.zeros((n, n), dtype=complex)
        if i == block:
            b[0, 0] = TWO_PI * 1j * windings
        blocks.append(b)
    return ExpLine(Element(alg, tuple(blocks)))


# ---------------------------------------------------------------------------
# exponential lines


def test_expline_determinant_is_trace():
    c = elem(M2, [[1, 0], [0, 2]])
    det = path_determinant(ExpLine(c))
    assert abs(det.coords[0] - 3.0) <= 1e-9


def test_expline_zero_path():
    det = path_determinant(ExpLine(M23.zero()))
    assert max(abs(v) for v in det.coords) <= 1e-12


@given(SEEDS)
def test_expline_matches_trace_for_general_generator(seed):
    # the logarithmic derivative of e^{tc} along itself is c exactly, so
    # the determinant is T(c) for every generator, hermitian or not
    c = random_element(M23, rng_from(seed))
    det = path_determinant(ExpLine(c))
    t = universal_trace(c)
    assert max(abs(a - b) for a, b in zip(det.coords, t.coords)) <= 1e-8


def test_expline_against_logdet_oracle():
    c = random_element(M23, rng_from(99))
    path = ExpLine(c)
    for i, samples in enumerate(path._values(np.linspace(0.0, 1.0, 2001))):
        oracle = logdet_along_path(samples)
        got = path_determinant(path).coords[i]
        assert abs(got - oracle) <= 1e-6


def test_evaluate_checks_domain():
    path = ExpLine(M2.identity())
    with pytest.raises(OutOfDomain):
        evaluate(path, 1.5)
    v = evaluate(path, 0.5)
    assert op_norm(v) > 0


def test_evaluate_takes_one_svd_per_block(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    evaluate(ExpLine(random_element(M23, rng_from(5))), 0.5)
    assert calls == [False, False]
    # the threshold is relative to the largest block: 1e-13 is singular
    # next to 1, not on its own
    tiny = np.log(1e-13) * np.eye(3)
    evaluate(ExpLine(elem(M23, np.log(1e-13) * np.eye(2), tiny)), 1.0)
    with pytest.raises(SingularValueOnPath):
        evaluate(ExpLine(elem(M23, np.zeros((2, 2)), tiny)), 1.0)


# ---------------------------------------------------------------------------
# stacked evaluation


def product_samples(c, d, times):
    return tuple((float(t), exp_element(float(t) * c) @ exp_element(float(t) * d)) for t in times)


def stacking_paths():
    rng = rng_from(41)
    c = random_element(M23, rng, scale=0.7)  # general: expm
    h = random_self_adjoint(M23, rng, norm=1.5)
    skew = Element(M23, tuple(1j * b for b in h.blocks))
    d = random_self_adjoint(M23, rng, norm=1.2)
    small = [0.5 / op_norm(v) * v for v in (c, d)]
    sampled = Sampled(product_samples(*small, np.linspace(0.0, 1.0, 9)))
    return {
        "ExpLine general": ExpLine(c),
        "ExpLine hermitian": ExpLine(h, (-0.5, 1.25)),
        "ExpLine skew": ExpLine(skew),
        "ProductPolar": ProductPolar(h, d),
        "Sampled": sampled,
        "PointwiseProduct": PointwiseProduct(ExpLine(c), ProductPolar(h, d)),
        "Concatenation": Concatenation(ExpLine(c), ExpLine(h, (0.25, 0.75))),
        "Concatenation of composites": Concatenation(
            Concatenation(sampled, ExpLine(c)), Reversal(ProductPolar(h, d))
        ),
        "Reversal of a Concatenation": Reversal(Concatenation(ExpLine(c), sampled)),
        "Reversal of a PointwiseProduct": Reversal(PointwiseProduct(ExpLine(h), ExpLine(skew))),
    }


@pytest.mark.parametrize("name", list(stacking_paths()))
def test_stacked_values_equal_pointwise_values_bitwise(name):
    path = stacking_paths()[name]
    t1, t2 = path.domain
    # the grids of det-path and delta_1_0, random points, and every joint
    # of a concatenation, so the stack straddles it
    ts = [*np.linspace(t1, t2, 17), *rng_from(42).uniform(t1, t2, 5), 1.0, 2.0]
    ts = np.array([t for t in ts if t1 <= t <= t2])
    stack = evaluate_many(path, ts)
    for i, t in enumerate(ts):
        want = pointwise_value(path, float(t))
        one = evaluate(path, float(t)).blocks
        for block, b, w in zip(stack.blocks, one, want):
            assert np.array_equal(block[i], w) and np.array_equal(b, w)


def exp_lines(path):
    """The ExpLines a path is made of."""
    if isinstance(path, ExpLine):
        return [path]
    parts = [getattr(path, a) for a in ("first", "second", "inner") if hasattr(path, a)]
    return [line for part in parts for line in exp_lines(part)]


def test_exp_line_modes_and_values_on_the_benchmark_kinds():
    # one _symmetry per block picks the mode the two full-scale checks
    # picked, and the 9 and 17 values of det-path and delta_1_0 are those
    # of one exponential per block and point, bit for bit
    modes = set()
    for seed in range(20):
        for kind, path in det_path_mix(rng_from((25, seed))).items():
            for line in exp_lines(path):
                for b, (mode, _, _) in zip(line.c.blocks, line._modes):
                    want = "h" if hermitian_at_full_scale(b) else "s" if hermitian_at_full_scale(-1j * b) else "g"
                    assert mode == want, (kind, seed)
                    modes.add(mode)
            for ts in (np.linspace(*path.domain, 9), np.linspace(*path.domain, 17)):
                got = evaluate_many(path, ts).blocks
                for i, t in enumerate(ts):
                    want = pointwise_value(path, float(t))
                    assert all(g[i].tobytes() == w.tobytes() for g, w in zip(got, want)), (kind, seed)
    assert modes == {"h", "s", "g"}


def test_sampled_stack_at_sample_times_is_the_samples(monkeypatch):
    path = stacking_paths()["Sampled"]
    logm_calls = []
    logm = sla.logm

    def counted(a, *rest, **kw):
        logm_calls.append(a)
        return logm(a, *rest, **kw)

    monkeypatch.setattr(sla, "logm", counted)
    times = np.array([t for t, _ in path.samples])
    stack = evaluate_many(path, times)
    assert logm_calls == []
    for i, (_, v) in enumerate(path.samples):
        assert all(np.array_equal(s[i], b) for s, b in zip(stack.blocks, v.blocks))
    # inside the segments the geodesic runs: one logarithm per segment and
    # block, once
    inside = 0.5 * (times[1:] + times[:-1])
    evaluate_many(path, inside)
    assert len(logm_calls) == (len(times) - 1) * M23.rank
    evaluate_many(path, inside)
    assert len(logm_calls) == (len(times) - 1) * M23.rank


def failing_paths():
    big = random_self_adjoint(M2, rng_from(4), norm=900.0)
    polar = ProductPolar(big, random_self_adjoint(M2, rng_from(5), norm=900.0))
    cat = Concatenation(ExpLine(M2.identity()), ProductPolar(big, big))
    return [
        # singular from t = 1/8 on, overflowing at t = 1
        (ExpLine(elem(M2, np.diag([800.0, -800.0]))), SingularValueOnPath, 0.125),
        # the product e^{tc} e^{td} overflows from t = 1/2 on
        (polar, NonFiniteValue, 0.5),
        (cat, NonFiniteValue, 1.5),
        (Reversal(cat), NonFiniteValue, 0.0),
        # singular at t = 3/4 only: e^{-40 t} < 1e-12 e^{0} from t = 0.69
        (ExpLine(elem(M2, np.diag([0.0, -40.0]))), SingularValueOnPath, 0.75),
    ]


@pytest.mark.parametrize("path, error, first", failing_paths())
def test_stack_error_names_the_first_failing_point(path, error, first):
    t1, t2 = path.domain
    ts = np.linspace(t1, t2, 9)
    with pytest.raises(error) as raised:
        evaluate_many(path, ts)
    assert f"at t={first}" in str(raised.value)
    # point by point, the same t is the first to fail
    for t in ts:
        try:
            evaluate(path, float(t))
        except error as exc:
            assert float(t) == first and str(exc) == str(raised.value)
            break
    else:
        pytest.fail("no point failed on its own")


# ---------------------------------------------------------------------------
# winding loops and lattice reduction


def test_winding_loop_hits_lattice():
    for w in (1, 2, 3):
        det = path_determinant(winding_loop(M2, 0, w))
        assert abs(det.coords[0] - TWO_PI * 1j * w) <= 1e-9
        assert lattice_distance(det) <= 1e-9


def test_lattice_reduce_examples():
    v = TraceValue(M1, (3.0 + 7.0j,))
    red = lattice_reduce(v)
    assert red.coords[0] == pytest.approx(3.0 + (7.0 - TWO_PI) * 1j, abs=1e-15)
    whole = TraceValue(M23, (TWO_PI * 1j, -4 * TWO_PI * 1j))
    assert lattice_distance(whole) <= 1e-12
    assert max(abs(c) for c in lattice_reduce(whole).coords) <= 1e-12


def test_lattice_reduce_keeps_the_strip_at_its_ends():
    # -1e-17 / 2 pi floors to -1, and -1e-17 + 2 pi rounds to 2 pi; -5e-324
    # / 2 pi underflows to -0.0, which floors to itself: both lie within
    # rounding of the lattice point 0
    v = TraceValue(M23, (complex(0.5, -1e-17), complex(0.0, -5e-324)))
    assert lattice_reduce(v).coords == (0.5 + 0j, 0j)


def test_lattice_reduce_keeps_the_bits_of_an_in_strip_result():
    rng = rng_from(81)
    ys = np.concatenate([rng.normal(scale=s, size=400) for s in (1e-15, 1.0, 10.0, 1e6)])
    for y in ys:
        old = y - TWO_PI * np.floor(y / TWO_PI)
        got = lattice_reduce(TraceValue(M1, (complex(1.0, y),))).coords[0].imag
        assert 0.0 <= got < TWO_PI
        if 0.0 <= old < TWO_PI:
            assert got == old


@given(SEEDS, st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
def test_lattice_distance_invariant_under_shifts(seed, m1, m2):
    rng = rng_from(seed)
    coords = tuple(complex(rng.normal(), rng.normal()) for _ in range(2))
    v = TraceValue(M23, coords)
    shifted = TraceValue(
        M23, (coords[0] + TWO_PI * 1j * m1, coords[1] + TWO_PI * 1j * m2)
    )
    assert lattice_distance(v) == pytest.approx(lattice_distance(shifted), abs=1e-12)


# ---------------------------------------------------------------------------
# sampled paths


def sampled_product_path(c, d, points=65):
    alg = c.algebra
    ts = np.linspace(0.0, 1.0, points)
    samples = []
    for t in ts:
        v = exp_element(float(t) * c) @ exp_element(float(t) * d)
        samples.append((float(t), v))
    return Sampled(tuple(samples))


def sampled_positive_part_path(c, d, points=65):
    alg = c.algebra
    ts = np.linspace(0.0, 1.0, points)
    samples = []
    for t in ts:
        g = exp_element(float(t) * c) @ exp_element(float(t) * d)
        m = adjointed(g) @ g
        samples.append((float(t), m.map_blocks(_sqrtm_psd)))
    return Sampled(tuple(samples))


def adjointed(x):
    from apfp import adjoint

    return adjoint(x)


def _sqrtm_psd(b):
    w, q = np.linalg.eigh(0.5 * (b + b.conj().T))
    return (q * np.sqrt(np.maximum(w, 0.0))) @ q.conj().T


def test_sampled_product_path_determinant():
    rng = rng_from(7)
    c = random_self_adjoint(M23, rng, norm=1.0)
    d = random_self_adjoint(M23, rng, norm=1.0)
    det = path_determinant(sampled_product_path(c, d))
    expect = universal_trace(c) + universal_trace(d)
    assert max(abs(a - b) for a, b in zip(det.coords, expect.coords)) <= 1e-6


def test_positive_part_path_determinant_is_additive():
    # the positive parts |e^{tc} e^{td}| run from 1 to |e^c e^d| and the
    # determinant still lands on T(c) + T(d), which is real
    rng = rng_from(13)
    c = random_self_adjoint(M23, rng, norm=1.0)
    d = random_self_adjoint(M23, rng, norm=1.0)
    det = path_determinant(sampled_positive_part_path(c, d))
    expect = universal_trace(c) + universal_trace(d)
    assert max(abs(a - b) for a, b in zip(det.coords, expect.coords)) <= 1e-6
    assert max(abs(v.imag) for v in det.coords) <= 1e-6


def test_sampled_against_logdet_oracle():
    rng = rng_from(19)
    c = random_self_adjoint(M2, rng, norm=1.2)
    d = random_self_adjoint(M2, rng, norm=0.8)
    path = sampled_product_path(c, d, points=129)
    oracle = logdet_along_path(path._values(np.linspace(0.0, 1.0, 4001))[0])
    got = path_determinant(path).coords[0]
    assert abs(got - oracle) <= 1e-6


def logm_traces(path):
    """sum_j T(logm(a_j^{-1} a_{j+1})), the defining form."""
    samples = [v for _, v in path.samples]
    return sum(
        np.array([np.trace(sla.logm(np.linalg.solve(a, b))) for a, b in zip(x.blocks, y.blocks)])
        for x, y in zip(samples, samples[1:])
    )


@pytest.mark.parametrize("seed", range(4))
def test_sampled_determinant_from_eigenvalues_matches_logm(seed):
    rng = rng_from((83, seed))
    c, d = (0.5 / op_norm(v) * v for v in (random_element(M23, rng), random_element(M23, rng)))
    samples = [
        (float(t), Element(M23, tuple(sla.expm(t * cb) @ sla.expm(t * db) for cb, db in zip(c.blocks, d.blocks))))
        for t in np.linspace(0.0, 1.0, 9)
    ]
    path = Sampled(tuple(samples))
    got = np.array(path_determinant(path).coords)
    assert np.max(np.abs(got - logm_traces(path))) <= 1e-12


def test_sampled_determinant_does_not_wrap():
    # one step g = q diag(e^{0.45i}) q* in M7: its determinant is 7 * 0.45i
    # = 3.15i, past pi, where the phase of det g wraps to 3.15 - 2 pi
    M7 = AlgebraDescriptor((7,))
    q = random_unitary(M7, rng_from(89)).blocks[0]
    g = (q * np.exp(0.45j)) @ q.conj().T
    path = Sampled(((0.0, M7.identity()), (1.0, Element(M7, (g,)))))
    got = path_determinant(path).coords[0]
    assert abs(got - 3.15j) <= 1e-12
    assert abs(got - logm_traces(path)[0]) <= 1e-12
    assert np.angle(np.linalg.det(g)) == pytest.approx(3.15 - TWO_PI, abs=1e-12)


def test_sampled_validation():
    one = M1.identity()
    with pytest.raises(ValueError):
        Sampled(((0.0, one),))
    with pytest.raises(ValueError):
        Sampled(((0.0, one), (0.0, one)))
    far = elem(M1, [[4.0]])
    with pytest.raises(ValueError, match=r"too far apart \(step 3\.000 >= 1/2\)"):
        Sampled(((0.0, one), (1.0, far)))
    # the message names the first pair at or above 1/2
    samples = [elem(M1, [[v]]) for v in (1.0, 1.2, 1.2 * 1.6, 1.2 * 1.6 * 3.0)]
    with pytest.raises(ValueError, match=r"step 0\.600 >= 1/2"):
        Sampled(tuple(enumerate(samples)))
    # numerically singular samples, tested before the step check
    a = elem(M2, [[1, 0], [0, 1e-14]])
    b = elem(M2, [[1, 0], [0, 1.2e-14]])
    with pytest.raises(SingularValueOnPath):
        Sampled(((0.0, a), (1.0, b)))
    # an exactly singular sample, which the step a_j^-1 a_{j+1} cannot invert
    zero = elem(M2, [[1, 0], [0, 0]])
    with pytest.raises(SingularValueOnPath, match=r"^singular sample at t=0\.0$"):
        Sampled(((0.0, zero), (1.0, zero)))


def test_composite_paths_need_one_algebra_and_a_common_domain():
    one, other = ExpLine(M1.zero()), ExpLine(M2.zero())
    with pytest.raises(ValueError, match="samples share one algebra"):
        Sampled(((0.0, M1.identity()), (1.0, M2.identity())))
    with pytest.raises(ValueError, match="pointwise product needs a common algebra"):
        PointwiseProduct(one, other)
    with pytest.raises(ValueError, match="pointwise product needs a common domain"):
        PointwiseProduct(one, ExpLine(M1.zero(), (0.0, 2.0)))
    with pytest.raises(ValueError, match="concatenation needs a common algebra"):
        Concatenation(one, other)


# ---------------------------------------------------------------------------
# structural identities: products, concatenation, reversal


def two_lines(seed, alg=M23, scale=0.8):
    rng = rng_from(seed)
    a = ExpLine(random_element(alg, rng, scale=scale))
    b = ExpLine(random_element(alg, rng, scale=scale))
    return a, b


def coords_close(u, v, tol):
    return max(abs(a - b) for a, b in zip(u.coords, v.coords)) <= tol


def test_pointwise_product_additivity():
    a, b = two_lines(31)
    lhs = path_determinant(PointwiseProduct(a, b))
    rhs = path_determinant(a) + path_determinant(b)
    assert coords_close(lhs, rhs, 2e-9)


def test_concatenation_additivity():
    a, b = two_lines(37)
    lhs = path_determinant(Concatenation(a, b))
    rhs = path_determinant(a) + path_determinant(b)
    assert coords_close(lhs, rhs, 2e-9)


def test_reversal_negates():
    a, _ = two_lines(41)
    lhs = path_determinant(Reversal(a))
    rhs = -1.0 * path_determinant(a)
    assert coords_close(lhs, rhs, 2e-9)


def test_squared_positive_path_doubles():
    rng = rng_from(43)
    c = random_self_adjoint(M23, rng, norm=1.0)
    line = ExpLine(c)
    squared = PointwiseProduct(line, line)
    det = path_determinant(squared)
    expect = 2.0 * universal_trace(c)
    assert coords_close(det, expect, 2e-9)


def test_concatenated_loops_quantize():
    loop = Concatenation(winding_loop(M23, 0, 1), winding_loop(M23, 1, 2))
    det = path_determinant(loop)
    assert lattice_distance(det) <= 1e-6
    assert abs(det.coords[0] - TWO_PI * 1j) <= 1e-8
    assert abs(det.coords[1] - 2 * TWO_PI * 1j) <= 1e-8


# ---------------------------------------------------------------------------
# polar paths of unitaries


def test_polar_path_values_are_unitary():
    rng = rng_from(47)
    c = random_self_adjoint(M23, rng, norm=1.5)
    d = random_self_adjoint(M23, rng, norm=1.5)
    path = ProductPolar(c, d)
    for t in np.linspace(0.0, 1.0, 9):
        v = evaluate(path, float(t))
        err = max(
            np.linalg.norm(b.conj().T @ b - np.eye(len(b)), 2) for b in v.blocks
        )
        assert err <= 1e-10


def test_polar_path_determinant_vanishes():
    # det(e^{tc} e^{td}) is positive real for self-adjoint c, d, so the
    # polar unitaries have constant determinant one
    rng = rng_from(53)
    c = random_self_adjoint(M23, rng, norm=1.5)
    d = random_self_adjoint(M23, rng, norm=1.5)
    det = path_determinant(ProductPolar(c, d))
    assert max(abs(v) for v in det.coords) <= 1e-7


def test_polar_path_rejects_non_selfadjoint():
    rng = rng_from(59)
    c = random_element(M23, rng)
    with pytest.raises(ValueError):
        ProductPolar(c, c)


# ---------------------------------------------------------------------------
# every kind against log det continued along its own values


def logdet_oracle(path, points=401):
    """logdet_along_path on each block of the path's values; a
    concatenation is sampled piece by piece, because its joint may jump."""
    if isinstance(path, Concatenation):
        return logdet_oracle(path.first, points) + logdet_oracle(path.second, points)
    t1, t2 = path.domain
    return np.array([logdet_along_path(b) for b in path._values(np.linspace(t1, t2, points))])


def polar_at_norm(seed, norm):
    rng = rng_from(seed)
    return ProductPolar(
        random_self_adjoint(M23, rng, norm=norm), random_self_adjoint(M23, rng, norm=norm)
    )


KINDS = {
    "ExpLine": lambda: two_lines(83)[0],
    "ProductPolar": lambda: polar_at_norm(89, 3.0),
    "Sampled": lambda: sampled_product_path(
        random_self_adjoint(M23, rng_from(97), norm=1.0),
        random_self_adjoint(M23, rng_from(98), norm=1.0),
    ),
    "PointwiseProduct": lambda: PointwiseProduct(polar_at_norm(101, 1.5), two_lines(103)[0]),
    "Concatenation": lambda: Concatenation(*two_lines(107)),
    "Reversal": lambda: Reversal(PointwiseProduct(*two_lines(109))),
    "loop": lambda: Concatenation(winding_loop(M23, 0, 1), winding_loop(M23, 1, -2)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_closed_form_matches_logdet_oracle(kind):
    path = KINDS[kind]()
    got = np.array(path_determinant(path).coords)
    assert np.max(np.abs(got - logdet_oracle(path))) <= 1e-9


# ---------------------------------------------------------------------------
# determinants of elements modulo the lattice


def test_determinant_of_identity():
    val = determinant_mod_lattice(M23.identity())
    assert max(abs(c) for c in val.coords) <= 1e-9


def test_determinant_of_positive_matches_slogdet():
    rng = rng_from(71)
    h = random_self_adjoint(M23, rng, norm=1.0)
    a = exp_element(h)
    val = determinant_mod_lattice(a)
    for coord, block in zip(val.coords, a.blocks):
        sign, logabs = np.linalg.slogdet(block)
        assert coord.real == pytest.approx(logabs, abs=1e-8)
        # imag sits in the canonical strip [0, 2 pi): zero may wrap to 2 pi
        assert min(coord.imag, TWO_PI - coord.imag) <= 1e-8
        assert sign == pytest.approx(1.0, abs=1e-12)


def schur_path(x, samples=65):
    """A connecting path from 1 to x independent of log det: interpolate
    each block's complex Schur form T = D + N along s -> diag(lam^s) + s N.
    Its path determinant is the Schur-path oracle for the element
    determinant."""
    schurs = [sla.schur(b, output="complex") for b in x.blocks]
    pts = []
    for s in np.linspace(0.0, 1.0, samples):
        blocks = []
        for t, q in schurs:
            lam = np.diag(t)
            ts = np.diag(np.exp(s * np.log(lam))) + s * (t - np.diag(lam))
            blocks.append(q @ ts @ q.conj().T)
        pts.append((float(s), Element(x.algebra, tuple(blocks))))
    return Sampled(tuple(pts))


def assert_matches_schur_path_oracle(x):
    val = determinant_mod_lattice(x)
    oracle = path_determinant(schur_path(x))
    assert lattice_distance(oracle - val) <= 1e-6


def test_determinant_agrees_with_schur_path_on_random_invertibles():
    rng = rng_from(73)
    for _ in range(3):
        assert_matches_schur_path_oracle(random_element(M23, rng) + 2.5 * M23.identity())


def test_determinant_handles_minus_one_spectrum():
    # the polar unitary has both eigenvalues at -1, on the principal
    # branch cut; log det needs no branch of the unitary's logarithm
    x = elem(M2, [[-2.0, 0.0], [0.0, -0.5]])
    val = determinant_mod_lattice(x)
    sign, logabs = np.linalg.slogdet(x.blocks[0])
    assert sign == pytest.approx(1.0)
    assert val.coords[0].real == pytest.approx(logabs, abs=1e-8)
    assert lattice_distance(TraceValue(M2, (val.coords[0] - logabs,))) <= 1e-6
    assert_matches_schur_path_oracle(x)


@given(SEEDS)
def test_determinant_is_multiplicative_mod_lattice(seed):
    rng = rng_from(seed)
    x = random_element(M23, rng)
    y = random_element(M23, rng)
    lhs = determinant_mod_lattice(x @ y)
    rhs = determinant_mod_lattice(x) + determinant_mod_lattice(y)
    assert lattice_distance(lhs - rhs) <= 1e-9


def test_determinant_rejects_singular_element():
    x = elem(M23, [[1, 0], [0, 1]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    with pytest.raises(SingularInput):
        determinant_mod_lattice(x)


def test_determinant_canonical_strip():
    rng = rng_from(79)
    x = random_element(M23, rng) + 2.5 * M23.identity()
    val = determinant_mod_lattice(x)
    for c in val.coords:
        assert 0.0 <= c.imag < TWO_PI


# ---------------------------------------------------------------------------
# the loop invariant delta_{1,0}


def test_delta_constant_loop_is_zero():
    loop = ExpLine(M23.zero())
    f = delta_1_0(loop)
    assert max(abs(v) for v in f.values) == pytest.approx(0.0, abs=1e-9)


def test_delta_winding_values():
    for n, alg in ((2, M2), (1, M1)):
        loop = winding_loop(alg, 0, 1)
        f = delta_1_0(loop)
        assert f.values[0] == pytest.approx(1.0 / n, abs=1e-9)


def test_delta_doubles_when_traversed_twice():
    loop = winding_loop(M2, 0, 1)
    twice = Concatenation(loop, loop)
    assert delta_1_0(twice).values[0] == pytest.approx(1.0, abs=1e-9)


def test_delta_rejects_non_loop():
    c = elem(M2, [[1.0, 0], [0, 1.0]])
    with pytest.raises(NotALoop):
        delta_1_0(ExpLine(c))


@pytest.mark.parametrize(
    "domain,tol,bad",
    [
        ((0.0, 0.75), 1e-8, 0.75),
        ((0.25, 1.0), 1e-8, 0.25),
        ((0.25, 0.75), 1e-8, 0.25),
        # e^c - 1 = a (E_00 + E_01 + E_10 + E_11): every entry a is within
        # tol, its norm 2a is not, and the SVD route decides
        ((0.0, 1.0), 1.5e-7, 1.0),
    ],
)
def test_delta_names_the_endpoint_that_is_not_the_identity(domain, tol, bad):
    if tol == 1e-8:
        c = winding_loop(M2, 0, 1).c
    else:
        c = elem(M2, sla.logm(np.eye(2) + 1e-7 * np.ones((2, 2))))
    with pytest.raises(NotALoop, match=rf"^endpoint at t={bad} is not the identity$"):
        delta_1_0(ExpLine(c, domain), endpoint_tol=tol)


def unitary_on_the_grid_only():
    """e^{tc}, c = s diag(8 pi i, -8 pi i) s^{-1} with s not unitary: the
    value is +-1 at t = k/8, and s diag(i, -i) s^{-1}, not unitary, at
    the midpoints between."""
    s = np.array([[1.0, 0.5], [0.0, 1.0]])
    return ExpLine(elem(M2, s @ np.diag([8j * np.pi, -8j * np.pi]) @ np.linalg.inv(s)))


def test_delta_checks_the_midpoints_of_the_9_point_grid():
    # unitary at linspace(0, 1, 9), not unitary between: the 17-point
    # check names the first midpoint
    with pytest.raises(NotUnitaryPath, match="at t=0.0625 "):
        delta_1_0(unitary_on_the_grid_only())


def test_delta_rejects_non_unitary_loop():
    # e^{sin(pi t) c} with c self-adjoint: a loop through positives
    c = elem(M2, [[0.4, 0], [0, -0.2]])
    ts = np.linspace(0.0, 1.0, 33)
    samples = tuple(
        (float(t), exp_element(float(np.sin(np.pi * t)) * c)) for t in ts
    )
    with pytest.raises(NotUnitaryPath):
        delta_1_0(Sampled(samples))


def test_delta_names_the_first_failing_t_before_the_endpoints():
    # e^{800 t} overflows from t = 0.8873 on: the first of the 17 points
    # past it is 0.9375, and finiteness is tested before the endpoints
    with pytest.raises(NonFiniteValue, match=r"at t=0\.9375: "):
        delta_1_0(ExpLine(elem(M2, [[800.0, 0], [0, 800.0]])))


def test_delta_rejects_a_singular_value_on_its_grid():
    # e^{-64 t} <= 1e-12 from t = 0.4317 on: 0.4375 is a midpoint of the
    # 9-point grid, and invertibility is tested before the endpoints
    with pytest.raises(SingularValueOnPath, match=r"at t=0\.4375$"):
        delta_1_0(ExpLine(elem(M2, [[-64.0, 0], [0, 0]])))
