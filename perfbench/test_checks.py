"""Each check accepts a real output of the program and rejects a
deliberately wrong one; the smoke mode runs every workload end to end.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from apfp import cli, serialize  # noqa: E402
from apfp.algebra import AlgebraDescriptor, Element  # noqa: E402
from apfp.determinant import ExpLine, ProductPolar, Sampled, determinant_mod_lattice  # noqa: E402
from apfp.factorization import split_into_exponentials  # noqa: E402
from apfp.sampling import random_element, random_member, random_self_adjoint, rng_from  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

M2 = AlgebraDescriptor((2,))
M2_M3 = AlgebraDescriptor((2, 3))


def run_cli(tmp_path, argv, obj):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(obj))
    code = cli.main([argv[0], str(src), *argv[1:], "--out", str(out)])
    return code, json.loads(out.read_text())


def blocks(x):
    return [np.asarray(b) for b in x.blocks]


def rejects(check, *args, match=None):
    with pytest.raises(CheckFailed, match=match):
        check(*args)


# ---------------------------------------------------------------------------
# apfp factor


@pytest.fixture(scope="module")
def factored(tmp_path_factory):
    x = random_member(M2, rng_from(5))
    code, report = run_cli(
        tmp_path_factory.mktemp("factor"), ["factor", "--factors", "3"], serialize.element_to_obj(x)
    )
    return blocks(x), code, report


def with_factor(report, index, fn):
    bad = copy.deepcopy(report)
    fac = bad["results"]["factorization"]
    f = checks.blocks_from_obj(fac["factors"][index])
    fac["factors"][index] = serialize.element_to_obj(Element(M2, tuple(fn(b) for b in f)))
    return bad


def test_factorization_accepts_the_program_output(factored):
    x, code, report = factored
    checks.check_factorization(x, code, report, 3)


def test_factorization_rejects_a_negative_eigenvalue(factored):
    x, code, report = factored

    def shift(b):
        low = np.linalg.eigvalsh(b)[0]
        return b - (low + 1e-6 * np.linalg.norm(b, 2)) * np.eye(len(b))

    rejects(checks.check_factorization, x, code, with_factor(report, 0, shift), 3, match="negative")


def test_factorization_rejects_a_non_hermitian_factor(factored):
    x, code, report = factored
    skew = np.array([[0, 1e-6], [-1e-6, 0]], dtype=complex)
    bad = with_factor(report, 1, lambda b: b + skew)
    rejects(checks.check_factorization, x, code, bad, 3, match="hermitian")


def test_factorization_rejects_a_product_off_by_1e5(factored):
    x, code, report = factored
    # scaling one factor by 1 + 1e-5 keeps it positive and moves the
    # product by 1e-5 ||x||
    bad = with_factor(report, 2, lambda b: (1 + 1e-5) * b)
    rejects(checks.check_factorization, x, code, bad, 3, match="misses")


def test_factorization_rejects_a_misreported_residual(factored):
    x, code, report = factored
    bad = copy.deepcopy(report)
    bad["results"]["factorization"]["residual"] += 1e-8 * checks.norm(x)
    rejects(checks.check_factorization, x, code, bad, 3, match="reported residual")


def test_factorization_rejects_a_wrong_count_or_exit_code(factored):
    x, code, report = factored
    rejects(checks.check_factorization, x, code, report, 4, match="factors")
    rejects(checks.check_factorization, x, 5, report, 3, match="exit code")


def test_factorization_rejects_a_non_member_target(factored):
    x, code, report = factored
    turned = [np.exp(1e-6j) * b for b in x]
    rejects(checks.check_factorization, turned, code, report, 3)


# ---------------------------------------------------------------------------
# apfp factor on non-members


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    x = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    code, report = run_cli(
        tmp_path_factory.mktemp("probe"),
        ["factor", "--factors", "3", "--restarts", "2"],
        serialize.element_to_obj(x),
    )
    return blocks(x), code, report


def with_distance(report, value):
    bad = copy.deepcopy(report)
    bad["results"]["distance_probe"] = value
    return bad


def test_probe_accepts_the_program_output(probed):
    x, code, report = probed
    assert code == 4
    checks.check_distance_probe(x, code, report, 1.0, 1e-2)


def test_probe_rejects_a_distance_below_the_certified_bound(probed):
    x, code, report = probed
    lower, _ = checks.distance_bracket(x)
    assert lower == pytest.approx(1.0)
    rejects(checks.check_distance_probe, x, code, with_distance(report, lower - 1e-6), match="lower")


def test_probe_rejects_a_distance_above_the_trivial_bound(tmp_path):
    x = random_element(AlgebraDescriptor((1,)), rng_from(3))
    code, report = run_cli(
        tmp_path, ["factor", "--factors", "3", "--restarts", "2"], serialize.element_to_obj(x)
    )
    xb = blocks(x)
    checks.check_distance_probe(xb, code, report)
    _, upper = checks.distance_bracket(xb)
    rejects(checks.check_distance_probe, xb, code, with_distance(report, upper + 1e-6), match="upper")


def test_probe_rejects_a_missed_known_distance(probed):
    x, code, report = probed
    rejects(checks.check_distance_probe, x, code, with_distance(report, 0.98), 1.0, 1e-2)


def test_probe_rejects_a_wrong_phase_or_verdict(probed):
    x, code, report = probed
    bad = copy.deepcopy(report)
    bad["results"]["det_phases"][0] += 1e-8
    rejects(checks.check_distance_probe, x, code, bad, match="phase")
    bad = copy.deepcopy(report)
    bad["results"]["member"] = True
    rejects(checks.check_distance_probe, x, code, bad, match="member")
    rejects(checks.check_distance_probe, x, 0, report, match="exit code")


# ---------------------------------------------------------------------------
# apfp det-path


def shifted(report, block, delta):
    bad = copy.deepcopy(report)
    bad["results"]["determinant"]["coords"][block][1] += delta
    return bad


def test_path_value_rejects_a_determinant_shifted_by_1e6(tmp_path):
    c = random_element(M2_M3, rng_from(6), scale=0.5)
    code, report = run_cli(tmp_path, ["det-path"], serialize.path_to_obj(ExpLine(c)))
    want = checks.traces(blocks(c))
    checks.check_path_value(code, report, want, 1e-8)
    rejects(checks.check_path_value, code, shifted(report, 1, 1e-6), want, 1e-8)


def test_polar_path_rejects_a_nonzero_determinant(tmp_path):
    c = random_self_adjoint(M2_M3, rng_from(7), norm=1.5)
    d = random_self_adjoint(M2_M3, rng_from(8), norm=1.5)
    code, report = run_cli(tmp_path, ["det-path"], serialize.path_to_obj(ProductPolar(c, d)))
    checks.check_polar_path(code, report)
    rejects(checks.check_polar_path, code, shifted(report, 0, 1e-6))


def test_sampled_value_is_the_sum_of_segment_log_dets(tmp_path):
    c = random_element(M2_M3, rng_from(9), scale=0.3)
    d = random_element(M2_M3, rng_from(10), scale=0.3)
    samples = workloads.product_samples(c, d, 8)
    code, report = run_cli(tmp_path, ["det-path"], serialize.path_to_obj(Sampled(tuple(samples))))
    want = checks.sampled_determinant([blocks(v) for _, v in samples])
    checks.check_path_value(code, report, want, 1e-8)
    rejects(checks.check_path_value, code, shifted(report, 0, 1e-6), want, 1e-8)


def test_loop_rejects_a_wrong_invariant(tmp_path):
    gens = (np.diag([2j * np.pi, 0]), np.diag([-4j * np.pi, 0, 0]))
    code, report = run_cli(tmp_path, ["det-path"], serialize.path_to_obj(ExpLine(Element(M2_M3, gens))))
    checks.check_loop(code, report, [1, -2], (2, 3))
    rejects(checks.check_loop, code, report, [1, -1], (2, 3))
    bad = copy.deepcopy(report)
    bad["results"]["delta_1_0"]["values"][0] += 1e-5
    rejects(checks.check_loop, code, bad, [1, -2], (2, 3))


# ---------------------------------------------------------------------------
# apfp membership and the library calls


def test_membership_rejects_a_wrong_verdict_or_phase(tmp_path):
    for x in (random_element(M2_M3, rng_from(11)), random_member(M2_M3, rng_from(12))):
        code, report = run_cli(tmp_path, ["membership"], serialize.element_to_obj(x))
        checks.check_membership(blocks(x), code, report)
        bad = copy.deepcopy(report)
        bad["results"]["member"] = not report["results"]["member"]
        rejects(checks.check_membership, blocks(x), code, bad, match="member")
        bad = copy.deepcopy(report)
        bad["results"]["det_phases"][1] += 1e-8
        rejects(checks.check_membership, blocks(x), code, bad, match="phase")


def test_element_determinant_is_log_det_modulo_the_lattice():
    x = random_element(M2_M3, rng_from(13))
    got = list(determinant_mod_lattice(x).coords)
    checks.check_element_determinant(blocks(x), got)
    checks.check_element_determinant(blocks(x), [got[0] + 2j * np.pi, got[1] - 4j * np.pi])
    rejects(checks.check_element_determinant, blocks(x), [got[0], got[1] + 1e-6j])
    rejects(checks.check_element_determinant, blocks(x), [got[0] + 1e-6, got[1]])


def test_splitting_rejects_wrong_steps():
    c = random_self_adjoint(M2_M3, rng_from(14), norm=2.0)
    d = random_self_adjoint(M2_M3, rng_from(15), norm=2.0)
    logs = [blocks(h) for h in split_into_exponentials(ProductPolar(c, d)).logs]
    cb, db = blocks(c), blocks(d)
    checks.check_splitting(cb, db, logs)
    assert len(logs) >= 2
    merged = [[sum(h[i] for h in logs) for i in range(2)]]
    rejects(checks.check_splitting, cb, db, merged, match="exceeds")
    rejects(checks.check_splitting, cb, db, logs[:-1], match="polar part")
    nudged = [[h[0] + 1e-6 * np.eye(2), h[1]] for h in logs[:1]] + logs[1:]
    rejects(checks.check_splitting, cb, db, nudged)


# ---------------------------------------------------------------------------
# smoke: one round of each workload, end to end


@pytest.mark.parametrize("workload", ["factor-members", "distance-probe", "determinants"])
def test_smoke(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3", "--smoke"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
    assert result["failed"] == (1 if workload == "distance-probe" else 0)
    assert {"ok_jobs_per_s", "job_s.p50", "setup_s", "peak_rss_mb"} <= set(result["metrics"])
