"""The four-condition checker: exact pairing arithmetic, density decisions,
and witness distances against a brute-force lattice search."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apfp import (
    AbstractDescriptor,
    AffFunction,
    AlgebraDescriptor,
    K0Data,
    adjoint,
    check_abstract,
    check_conditions,
    pairing_consistency,
    rho,
    rho_image_distance,
    universal_trace,
)
from apfp.determinant import ExpLine
from apfp.errors import InconsistentFlags, RankMismatch, RankTooHighForDensity
from apfp.sampling import random_element, rng_from

from oracles import nearest_lattice_point

M1 = AlgebraDescriptor((1,))
M2 = AlgebraDescriptor((2,))
M23 = AlgebraDescriptor((2, 3))

SEEDS = st.integers(min_value=0, max_value=10**6)
SMALL_INTS = st.integers(min_value=-20, max_value=20)


# ---------------------------------------------------------------------------
# trace simplex


def extreme_traces(x):
    """The extreme tracial states at x: tr(x_i) / n_i, block by block."""
    return [c / n for c, n in zip(universal_trace(x).coords, x.algebra.block_sizes)]


def test_extreme_traces_are_tracial_and_unital():
    rng = rng_from(3)
    x = random_element(M23, rng)
    y = random_element(M23, rng)
    for v in extreme_traces(M23.identity()):
        assert v == pytest.approx(1.0)
    for v in extreme_traces(x @ y - y @ x):
        assert abs(v) <= 1e-12
    for v in extreme_traces(adjoint(x) @ x):
        assert v.real >= -1e-12 and abs(v.imag) <= 1e-12


# ---------------------------------------------------------------------------
# the pairing rho


def test_rho_closed_form():
    assert rho((0, 0), M23).values == (Fraction(0), Fraction(0))
    assert rho((1, 0), M23).values == (Fraction(1, 2), Fraction(0))
    assert rho((3, -2), M23).values == (Fraction(3, 2), Fraction(-2, 3))


def test_rho_rank_check():
    with pytest.raises(RankMismatch):
        rho((1,), M23)


@given(st.tuples(SMALL_INTS, SMALL_INTS), st.tuples(SMALL_INTS, SMALL_INTS))
def test_rho_is_additive_exactly(g, h):
    total = tuple(a + b for a, b in zip(g, h))
    assert rho(total, M23).values == (rho(g, M23) + rho(h, M23)).values


@given(st.tuples(SMALL_INTS, SMALL_INTS))
def test_image_distance_of_lattice_points_is_zero(g):
    dist, nearest = rho_image_distance(rho(g, M23), M23)
    assert dist == 0
    assert nearest == g


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
def test_image_distance_matches_brute_force(v1, v2):
    f = AffFunction((v1, v2))
    dist, nearest = rho_image_distance(f, M23)
    gens = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3)))
    oracle_dist, _ = nearest_lattice_point(f.values, gens, radius=12)
    assert dist == oracle_dist
    # the reported vector must achieve the reported distance
    achieved = max(
        abs(v - Fraction(g, n)) for v, g, n in zip(f.values, nearest, M23.block_sizes)
    )
    assert achieved == dist


# ---------------------------------------------------------------------------
# concrete block algebras


@pytest.mark.parametrize(
    "alg,expected_distance",
    [
        (M1, Fraction(1, 2)),
        (M2, Fraction(1, 4)),
        (M23, Fraction(1, 4)),
    ],
)
def test_finite_dimensional_verdicts(alg, expected_distance):
    report = check_conditions(alg)
    assert not report
    assert report.failing_set() == {"no_findim_reps", "rho_dense"}
    assert report.no_findim_reps.source == "computed"
    assert report.rho_dense.source == "computed"
    assert Fraction(report.rho_dense.witness["distance"]) == expected_distance


def test_deep_point_distance_against_brute_force():
    # the witness function c_i = 1/(2 n_i) really is at max-norm distance
    # max_i 1/(2 n_i) from the pairing range
    gens = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3)))
    deep = (Fraction(1, 4), Fraction(1, 6))
    dist, _ = nearest_lattice_point(deep, gens, radius=6)
    assert dist == Fraction(1, 4)


# ---------------------------------------------------------------------------
# abstract descriptors


def dyadic_irrational_descriptor(**kwargs):
    # K0 image generated by 1 and theta (irrational): dense
    gens = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    return AbstractDescriptor(
        k0=K0Data(1, gens),
        no_findim_reps=True,
        stable_rank_one=True,
        k1_trivial=True,
        **kwargs,
    )


def test_abstract_dense_group_passes():
    report = check_abstract(dyadic_irrational_descriptor())
    assert report
    assert report.rho_dense.source == "computed"
    assert report.failing_set() == frozenset()


def test_abstract_rational_generators_are_cyclic():
    gens = ((Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(0)))
    desc = AbstractDescriptor(
        k0=K0Data(1, gens),
        no_findim_reps=True,
        stable_rank_one=True,
        k1_trivial=True,
    )
    report = check_abstract(desc)
    assert not report
    assert report.failing_set() == {"rho_dense"}
    # (1/2) Z + (1/3) Z = (1/6) Z; the witness is the cyclic generator
    assert report.rho_dense.witness["cyclic_generator"] == ["1/6", "0"]


def test_abstract_parallel_irrationals_are_cyclic():
    gens = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(2)))
    report = check_abstract(
        AbstractDescriptor(
            k0=K0Data(1, gens),
            no_findim_reps=True,
            stable_rank_one=True,
            k1_trivial=True,
        )
    )
    assert not report
    assert report.rho_dense.witness["cyclic_generator"] == ["0", "1"]


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8),
)
def test_abstract_density_is_scale_invariant(a1, b1, a2, b2, scale):
    gens = ((a1, b1), (a2, b2))
    scaled = tuple((scale * a, scale * b) for a, b in gens)
    before = check_abstract(
        AbstractDescriptor(K0Data(1, gens), True, True, True)
    )
    after = check_abstract(
        AbstractDescriptor(K0Data(1, scaled), True, True, True)
    )
    assert bool(before.rho_dense) == bool(after.rho_dense)


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    SMALL_INTS,
    SMALL_INTS,
)
def test_abstract_density_ignores_redundant_generators(a1, b1, a2, b2, m, n):
    gens = ((a1, b1), (a2, b2))
    # an integer combination of existing generators adds nothing
    extra = (m * a1 + n * a2, m * b1 + n * b2)
    before = check_abstract(
        AbstractDescriptor(K0Data(1, gens), True, True, True)
    )
    after = check_abstract(
        AbstractDescriptor(K0Data(1, gens + (extra,)), True, True, True)
    )
    assert bool(before.rho_dense) == bool(after.rho_dense)


def test_abstract_rank_two_needs_assertion():
    desc = AbstractDescriptor(
        k0=K0Data(rank=2),
        no_findim_reps=True,
        stable_rank_one=True,
        k1_trivial=True,
    )
    with pytest.raises(RankTooHighForDensity):
        check_abstract(desc)


def test_abstract_rank_two_with_assertion_passes():
    desc = AbstractDescriptor(
        k0=K0Data(rank=2),
        no_findim_reps=True,
        stable_rank_one=True,
        k1_trivial=True,
        rho_dense=True,
    )
    report = check_abstract(desc)
    assert report
    assert report.rho_dense.source == "asserted"


def test_abstract_contradictory_assertion_raises():
    with pytest.raises(InconsistentFlags):
        check_abstract(dyadic_irrational_descriptor(rho_dense=False))


def test_report_verdict_must_be_conjunction():
    from apfp.checker import ConditionCheck, ConditionReport

    good = ConditionCheck(True, "asserted")
    with pytest.raises(InconsistentFlags):
        ConditionReport(good, good, good, good, apfp_verdict=False)


# ---------------------------------------------------------------------------
# pairing consistency of loops


def winding_loop(alg, block, windings):
    blocks = []
    for i, n in enumerate(alg.block_sizes):
        b = np.zeros((n, n), dtype=complex)
        if i == block:
            b[0, 0] = 2j * np.pi * windings
        blocks.append(b)
    from apfp import Element

    return ExpLine(Element(alg, tuple(blocks)))


def test_constant_loop_is_consistent():
    check = pairing_consistency(M23, ExpLine(M23.zero()))
    assert check
    assert check.nearest_vector == (0, 0)
    assert check.distance <= 1e-9


def test_winding_loops_land_on_lattice():
    for w in (1, 2):
        check = pairing_consistency(M2, winding_loop(M2, 0, w))
        assert check
        assert check.nearest_vector == (w,)
        assert check.function.values[0] == pytest.approx(w / 2, abs=1e-9)


def test_pairing_distance_is_exact():
    # delta_1_0 reads -0.6666666666666666 on this M3 loop; its exact
    # distance from -2/3 is 3.7e-17, which subtracting the float -2/3 reads as 0.0
    m3 = AlgebraDescriptor((3,))
    check = pairing_consistency(m3, winding_loop(m3, 0, -2))
    assert check.function.values == (-0.6666666666666666,)
    assert check.nearest_vector == (-2,)
    assert check.distance == float(abs(Fraction(-0.6666666666666666) + Fraction(2, 3)))
    assert check.distance == 3.700743415417188e-17


def test_determinant_needs_no_checker():
    # AffFunction lives in algebra beside TraceValue, so determinant does
    # not import checker, and checker imports delta_1_0 at the top
    import ast
    from pathlib import Path

    import apfp.algebra
    import apfp.checker

    src = Path(apfp.algebra.__file__).parent
    det = ast.parse((src / "determinant.py").read_text())
    assert not any(isinstance(n, ast.ImportFrom) and n.module == "checker" for n in ast.walk(det))
    chk = ast.parse((src / "checker.py").read_text())
    assert all(n in chk.body for n in ast.walk(chk) if isinstance(n, (ast.Import, ast.ImportFrom)))
    assert AffFunction is apfp.algebra.AffFunction is apfp.checker.AffFunction
