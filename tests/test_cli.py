"""The command line: exit codes, report shape, and rerun determinism."""

import json

import numpy as np
import pytest

import apfp.cli
import apfp.determinant
from apfp import AlgebraDescriptor, Element, ExpLine, exp_element, path_determinant, polar_path
from apfp.cli import (
    EXIT_DEMO_FAILURE,
    EXIT_NOT_IN_CLOSURE,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RANK_TOO_HIGH,
    DEMOS,
    main,
)
from apfp.errors import NoConvergence
from apfp.sampling import random_element, random_member, random_self_adjoint, rng_from
from apfp.serialize import element_to_obj, path_to_obj

M2 = AlgebraDescriptor((2,))
M23 = AlgebraDescriptor((2, 3))


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def element_file(tmp_path, name, x):
    return write_json(tmp_path, name, element_to_obj(x))


# ---------------------------------------------------------------------------
# det-path


def test_det_path_exp_line(tmp_path, capsys):
    c = Element(M2, (np.diag([1.0, 2.0]).astype(complex),))
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    det = report["results"]["determinant"]
    assert det["coords"][0][0] == pytest.approx(3.0, abs=1e-9)
    assert report["results"]["is_positive"] is True
    assert report["results"]["is_loop"] is False
    assert "delta_1_0" not in report["results"]
    assert report["provenance"]["command"] == "det-path"


def test_det_path_winding_loop_reports_delta(tmp_path, capsys, monkeypatch):
    calls = []
    evaluated = []

    def counted(path, *rest):
        calls.append(path)
        return path_determinant(path, *rest)

    def counted_evaluate(path, t):
        evaluated.append(t)
        return apfp.determinant.evaluate(path, t)

    # one path_determinant call per top-level path, and the endpoints are
    # read from the 9 points of the unitarity check
    monkeypatch.setattr(apfp.cli, "path_determinant", counted)
    monkeypatch.setattr(apfp.determinant, "path_determinant", counted)
    monkeypatch.setattr(apfp.cli, "evaluate", counted_evaluate)
    c = Element(M2, (np.array([[2j * np.pi, 0], [0, 0]]),))
    f = write_json(tmp_path, "loop.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert len(calls) == 1
    assert len(evaluated) == 9
    res = report["results"]
    assert res["is_loop"] and res["is_unitary"]
    assert res["lattice_distance"] <= 1e-9
    assert res["delta_1_0"]["values"][0] == pytest.approx(0.5, abs=1e-9)


def test_det_path_loop_tolerance_reaches_delta(tmp_path, capsys):
    # endpoints 1e-7 off the identity: a loop at the named tolerance 1e-6
    c = Element(M2, (np.array([[2j * np.pi * (1 + 1e-8), 0], [0, 0]]),))
    f = write_json(tmp_path, "loop.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f, "--tol", "loop_endpoint=1e-6")
    assert code == EXIT_OK
    res = report["results"]
    assert res["is_loop"]
    assert res["delta_1_0"]["values"][0] == pytest.approx(0.5, abs=1e-7)


def test_det_path_ill_conditioned_polar_path_is_unitary(tmp_path, capsys):
    rng = rng_from(1)
    c = random_self_adjoint(M23, rng, norm=5.0)
    d = random_self_adjoint(M23, rng, norm=4.0)
    f = write_json(tmp_path, "polar.json", path_to_obj(polar_path(c, d)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["is_unitary"] is True


def test_det_path_rejects_bad_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["det-path", str(p)]) == EXIT_PARSE
    f = write_json(tmp_path, "unknown.json", {"kind": "spline"})
    assert main(["det-path", f]) == EXIT_PARSE


# ---------------------------------------------------------------------------
# factor and membership


def test_factor_positive_element(tmp_path, capsys):
    a = exp_element(random_self_adjoint(M2, rng_from(3), norm=0.8))
    f = element_file(tmp_path, "pos.json", a)
    code, report = run(capsys, "factor", f, "--factors", "3")
    assert code == EXIT_OK
    fac = report["results"]["factorization"]
    assert fac["residual"] == 0.0
    assert len(fac["factors"]) == 3
    assert report["provenance"]["factorization"]["route"] == "positive"


@pytest.mark.parametrize("factors, route", [("3", "search"), ("5", "construction")])
def test_factor_reports_route_and_largest_factor_norm(tmp_path, capsys, factors, route):
    f = element_file(tmp_path, "member.json", random_member(M2, rng_from(17)))
    code, report = run(capsys, "factor", f, "--factors", factors, "--restarts", "2")
    assert code == EXIT_OK
    got = report["provenance"]["factorization"]
    assert got["route"] == route
    norms = [
        max(np.linalg.norm(np.array(b)[..., 0] + 1j * np.array(b)[..., 1], 2) for b in p["blocks"])
        for p in report["results"]["factorization"]["factors"]
    ]
    assert got["max_factor_norm"] == pytest.approx(max(norms), rel=1e-12)
    assert "route" not in report["results"]["factorization"]


def test_factor_obstructed_element_exits_4_with_probe(tmp_path, capsys):
    x = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    f = element_file(tmp_path, "bad.json", x)
    code, report = run(capsys, "factor", f, "--factors", "3", "--restarts", "2")
    assert code == EXIT_NOT_IN_CLOSURE
    assert report["results"]["member"] is False
    assert report["results"]["distance_probe"] >= 0.1


def test_factor_reports_a_closed_distance_bracket(tmp_path, capsys):
    x = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    f = element_file(tmp_path, "bad.json", x)
    code, report = run(capsys, "factor", f, "--factors", "3")
    assert code == EXIT_NOT_IN_CLOSURE
    assert report["results"]["distance_bracket"] == [1.0, 1.0]
    assert report["results"]["distance_probe"] == 1.0
    assert report["provenance"]["distance"] == {"route": "bracket", "gap": 0.0}


def test_factor_reports_an_open_distance_bracket(tmp_path, capsys):
    f = element_file(tmp_path, "bad.json", random_element(M2, rng_from((77, 1))))
    code, report = run(capsys, "factor", f, "--factors", "5", "--restarts", "1")
    assert code == EXIT_NOT_IN_CLOSURE
    lower, upper = report["results"]["distance_bracket"]
    assert lower <= report["results"]["distance_probe"] <= upper
    got = report["provenance"]["distance"]
    assert got["route"] == "search"
    assert got["gap"] == upper - lower > 0.1


def test_factor_starved_optimizer_exits_5(tmp_path, capsys):
    x = random_member(M2, rng_from(11))
    f = element_file(tmp_path, "member.json", x)
    code, report = run(
        capsys,
        "factor",
        f,
        "--factors",
        "3",
        "--restarts",
        "1",
        "--max-iterations",
        "4",
        "--target-residual",
        "1e-13",
    )
    assert code == EXIT_NO_CONVERGENCE
    assert report["results"]["best_residual"] > 0.0


def test_factor_without_finite_residual_writes_strict_json(tmp_path, capsys, monkeypatch):
    def no_positive_restart(*args, **kwargs):
        raise NoConvergence("no restart gave positive factors", best_residual=np.inf, best=None)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    monkeypatch.setattr(apfp.cli, "factor_positive_products", no_positive_restart)
    f = element_file(tmp_path, "member.json", random_member(M2, rng_from(11)))
    assert main(["factor", f]) == EXIT_NO_CONVERGENCE
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["results"]["best_residual"] is None


@pytest.mark.parametrize(
    "blocks,expected",
    [
        # a 2x3 block is malformed input, not a numeric failure
        ([[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]], EXIT_PARSE),
        ([[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], EXIT_NUMERIC),
    ],
    ids=["non-square", "singular"],
)
def test_membership_bad_element_exits_with_error_line(tmp_path, capsys, blocks, expected):
    f = write_json(tmp_path, "x.json", {"blocks": blocks})
    assert main(["membership", f]) == expected
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_membership_reports_phases(tmp_path, capsys):
    x = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    f = element_file(tmp_path, "bad.json", x)
    code, report = run(capsys, "membership", f)
    assert code == EXIT_OK
    assert report["results"]["member"] is False
    assert report["results"]["det_phases"][0] == pytest.approx(np.pi)


# ---------------------------------------------------------------------------
# check


def test_check_block_algebra(tmp_path, capsys):
    f = write_json(tmp_path, "alg.json", {"block_sizes": [2, 3]})
    code, report = run(capsys, "check", f)
    assert code == EXIT_OK
    assert report["results"]["apfp_verdict"] is False
    assert report["results"]["failing"] == ["no_findim_reps", "rho_dense"]
    assert report["results"]["rho_dense"]["witness"]["distance"] == "1/4"


def test_check_abstract_dense(tmp_path, capsys):
    obj = {
        "rank": 1,
        "generators": [{"a": "1"}, {"b": "1"}],
        "flags": {
            "no_findim_reps": True,
            "stable_rank_one": True,
            "k1_trivial": True,
        },
    }
    f = write_json(tmp_path, "desc.json", obj)
    code, report = run(capsys, "check", f)
    assert code == EXIT_OK
    assert report["results"]["apfp_verdict"] is True


def test_check_rank_two_without_assertion_exits_6(tmp_path, capsys):
    obj = {
        "rank": 2,
        "flags": {
            "no_findim_reps": True,
            "stable_rank_one": True,
            "k1_trivial": True,
        },
    }
    f = write_json(tmp_path, "desc.json", obj)
    assert main(["check", f]) == EXIT_RANK_TOO_HIGH


def test_check_contradictory_assertion_exits_2(tmp_path, capsys):
    obj = {
        "rank": 1,
        "generators": [{"a": "1"}, {"b": "1"}],
        "flags": {
            "no_findim_reps": True,
            "stable_rank_one": True,
            "k1_trivial": True,
            "rho_dense": False,
        },
    }
    f = write_json(tmp_path, "desc.json", obj)
    assert main(["check", f]) == EXIT_PARSE


def test_check_needs_a_recognizable_shape(tmp_path, capsys):
    f = write_json(tmp_path, "desc.json", {"sizes": [2]})
    assert main(["check", f]) == EXIT_PARSE


# ---------------------------------------------------------------------------
# demos and bench


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demos_pass(name, capsys):
    code, report = run(capsys, "demo", "--name", name, "--restarts", "8")
    assert code == EXIT_OK, report
    assert report["results"]["passed"] is True


def test_unknown_demo_rejected(capsys):
    assert main(["demo", "--name", "nonsense"]) == EXIT_PARSE


def test_bench_reports_timings(capsys):
    code, report = run(capsys, "bench", "--restarts", "2")
    assert code == EXIT_OK
    assert report["provenance"]["timings"]


# ---------------------------------------------------------------------------
# output plumbing and determinism


def test_out_file_and_csv(tmp_path, capsys):
    x = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    f = element_file(tmp_path, "bad.json", x)
    dest = tmp_path / "report.csv"
    code = main(["membership", f, "--output", "csv", "--out", str(dest)])
    assert code == EXIT_OK
    header, row = dest.read_text().strip().splitlines()
    assert "member" in header.split(",")
    capsys.readouterr()


def test_rerun_results_are_byte_identical(tmp_path, capsys):
    x = random_member(M2, rng_from(17))
    f = element_file(tmp_path, "member.json", x)
    argv = ["factor", f, "--factors", "3", "--restarts", "2", "--seed", "9"]

    def results_bytes():
        code = main(list(argv))
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        return json.dumps(report["results"], sort_keys=True).encode()

    assert results_bytes() == results_bytes()


def test_constructed_results_do_not_depend_on_threads(tmp_path, capsys, monkeypatch):
    f = element_file(tmp_path, "member.json", random_member(M23, rng_from(19)))

    def results_bytes(threads):
        monkeypatch.setenv("APFP_THREADS", threads)
        code, report = run(capsys, "factor", f, "--factors", "5")
        assert code == EXIT_OK
        assert report["provenance"]["factorization"]["route"] == "construction"
        return json.dumps(report["results"], sort_keys=True).encode()

    assert results_bytes("1") == results_bytes("4") == results_bytes("1")


def test_global_flags_accepted_before_subcommand(tmp_path, capsys):
    f = write_json(tmp_path, "alg.json", {"block_sizes": [1]})
    code = main(["--seed", "3", "check", f])
    assert code == EXIT_OK
    capsys.readouterr()
