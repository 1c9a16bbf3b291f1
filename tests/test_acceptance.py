"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line so a suite log reads as a checklist.
Tolerances here are contractual; do not relax them.
"""

import functools
import json

import numpy as np

from apfp import (
    AbstractDescriptor,
    AlgebraDescriptor,
    Concatenation,
    Element,
    ExpLine,
    K0Data,
    OptimizerConfig,
    PointwiseProduct,
    Reversal,
    adjoint,
    best_approx_distance,
    check_abstract,
    check_conditions,
    commutator_factor_su,
    distance_to_closure,
    evaluate,
    factor_positive_products,
    is_positive,
    lattice_distance,
    mul,
    op_norm,
    pairing_consistency,
    path_determinant,
    polar_path,
    quotient_norm,
    split_into_exponentials,
    universal_trace,
)
from apfp.errors import NoConvergence
from apfp.sampling import (
    random_member,
    random_self_adjoint,
    random_special_unitary,
    rng_from,
)
from apfp.serialize import (
    element_from_json,
    element_to_json,
    element_to_obj,
    factorization_to_obj,
    path_from_json,
    path_to_json,
)

M1 = AlgebraDescriptor((1,))
M2 = AlgebraDescriptor((2,))
M3 = AlgebraDescriptor((3,))
M23 = AlgebraDescriptor((2, 3))

TWO_PI = 2.0 * np.pi


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS")

        return wrapper

    return deco


def coord_gap(u, v):
    return max(abs(a - b) for a, b in zip(u.coords, v.coords))


@criterion(1, "determinant calculus")
def test_determinant_calculus():
    rng = rng_from(20260101)
    lines = []
    for _ in range(50):
        c = random_self_adjoint(M23, rng, norm=float(rng.uniform(0.2, 2.0)))
        det = path_determinant(ExpLine(c))
        assert coord_gap(det, universal_trace(c)) <= 1e-8
        lines.append(ExpLine(c))
    for a, b in zip(lines[:8], lines[8:16]):
        da, db = path_determinant(a), path_determinant(b)
        assert coord_gap(path_determinant(Concatenation(a, b)), da + db) <= 2e-9
        assert coord_gap(path_determinant(PointwiseProduct(a, b)), da + db) <= 2e-9
        assert coord_gap(path_determinant(Reversal(a)), -1.0 * da) <= 2e-9
    for w1, w2 in ((1, 0), (0, 2), (3, 1)):
        gen = Element(
            M23,
            (
                np.diag([TWO_PI * 1j * w1, 0.0]),
                np.diag([TWO_PI * 1j * w2, 0.0, 0.0]),
            ),
        )
        loop = ExpLine(gen)
        assert lattice_distance(path_determinant(loop)) <= 1e-6
        assert lattice_distance(path_determinant(Concatenation(loop, loop))) <= 1e-6


@criterion(2, "polar path and exponential splitting")
def test_forward_construction():
    rng = rng_from(20260202)
    for _ in range(50):
        c = random_self_adjoint(M23, rng, norm=float(rng.uniform(0.2, 2.0)))
        d = random_self_adjoint(M23, rng, norm=float(rng.uniform(0.2, 2.0)))
        path = polar_path(c, d)
        det = path_determinant(path)
        assert max(abs(v) for v in det.coords) <= 1e-7
        split = split_into_exponentials(path)
        assert quotient_norm(split.trace_sum()) <= 1e-7
        assert op_norm(split.reconstruct() - evaluate(path, 1.0)) <= 1e-8


@criterion(3, "positive factorization of members")
def test_factorization_of_members():
    opt = OptimizerConfig(restarts=16, target_residual=1e-5, seed=0)
    successes = 0
    total = 0
    for alg, seed0 in ((M2, 300), (M3, 400)):
        for k in range(10):
            total += 1
            x = random_member(alg, rng_from((seed0, k)))
            try:
                got = factor_positive_products(x, m=5, opt=opt)
            except NoConvergence:
                continue
            assert got.restarts_used <= 16
            assert got.residual <= 1e-5 * op_norm(x)
            prod = alg.identity()
            for f in got.factors:
                assert is_positive(f, 1e-10)
                prod = mul(prod, f)
            assert op_norm(prod - x) == got.residual  # recomputed, exact
            successes += 1
    assert total == 20
    assert successes >= 18, f"only {successes}/20 reached the target"


@criterion(4, "determinant-phase obstruction")
def test_obstruction_distances():
    u = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    minus_one = Element(M1, (np.array([[-1.0 + 0j]]),))
    opt = OptimizerConfig(restarts=32, seed=0)
    lower = distance_to_closure(u).distance
    for m in (3, 5, 8):
        d2 = best_approx_distance(u, m=m, opt=opt)
        assert lower <= d2
        assert d2 >= 0.1
        # regression constant from the first derivation of this suite
        assert abs(d2 - 1.0) <= 1e-2
        d1 = best_approx_distance(minus_one, m=m, opt=opt)
        assert abs(d1 - 1.0) <= 1e-6


@criterion(5, "commutator witnesses in SU(n)")
def test_commutator_witnesses():
    for n in range(2, 7):
        alg = AlgebraDescriptor((n,))
        for k in range(50):
            u = random_special_unitary(alg, rng_from((500, n, k)))
            v, w = commutator_factor_su(u)
            recon = mul(mul(v, w), mul(adjoint(v), adjoint(w)))
            assert op_norm(recon - u) <= 1e-8


@criterion(6, "pairing consistency of winding loops")
def test_pairing_consistency_of_loops():
    for alg, n in ((M2, 2), (M3, 3)):
        for w in (1, 2, 3, 4):
            gen = np.zeros((n, n), dtype=complex)
            gen[0, 0] = TWO_PI * 1j * w
            loop = ExpLine(Element(alg, (gen,)))
            check = pairing_consistency(alg, loop, tol=1e-6)
            assert check.consistent
            assert check.nearest_vector == (w,)
            assert check.distance <= 1e-6


@criterion(7, "four-condition checker")
def test_condition_checker():
    for alg in (M1, M2, M23):
        report = check_conditions(alg)
        assert not report
        assert report.failing_set() == {"no_findim_reps", "rho_dense"}
    dense = AbstractDescriptor(
        K0Data.from_generators(((1, 0), (0, 1))),  # the group Z + theta Z
        no_findim_reps=True,
        stable_rank_one=True,
        k1_trivial=True,
    )
    assert check_abstract(dense)
    cyclic = AbstractDescriptor(
        K0Data.from_generators((("1/2", 0), ("1/3", 0))),
        no_findim_reps=True,
        stable_rank_one=True,
        k1_trivial=True,
    )
    report = check_abstract(cyclic)
    assert not report.rho_dense
    assert report.failing_set() == {"rho_dense"}


@criterion(8, "determinism and round-trips")
def test_determinism_and_round_trips():
    x = random_member(M2, rng_from(800))
    opt = OptimizerConfig(restarts=3, seed=4)

    def payload():
        got = factor_positive_products(x, m=3, opt=opt)
        obj = {
            "factorization": factorization_to_obj(got),
            "input": element_to_obj(x),
        }
        return json.dumps(obj, sort_keys=True).encode()

    assert payload() == payload()

    rng = rng_from(801)
    for _ in range(5):
        y = random_member(M23, rng)
        back = element_from_json(element_to_json(y))
        assert all(np.array_equal(a, b) for a, b in zip(back.blocks, y.blocks))
    line = ExpLine(random_self_adjoint(M23, rng, norm=1.0))
    again = path_from_json(path_to_json(line))
    assert all(np.array_equal(a, b) for a, b in zip(again.c.blocks, line.c.blocks))
