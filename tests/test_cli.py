"""The command line: exit codes, report shape, and rerun determinism."""

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import apfp
import apfp.cli
import apfp.determinant
import apfp.factorization
from apfp import (
    AlgebraDescriptor,
    Element,
    ExpLine,
    Sampled,
    distance_to_closure,
    evaluate,
    exp_element,
    path_determinant,
    polar_path,
)
from apfp.cli import (
    EXIT_DEMO_FAILURE,
    EXIT_NOT_IN_CLOSURE,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RANK_TOO_HIGH,
    DEMOS,
    TOLERANCES,
    _build_parser,
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


def counted_values(monkeypatch, kind):
    """The parameters at which paths of this kind are evaluated, in order."""
    seen = []
    values = kind._values

    def counted(path, ts):
        seen.extend(ts.tolist())
        return values(path, ts)

    monkeypatch.setattr(kind, "_values", counted)
    return seen


def counted_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *rest, **kw):
        calls.append(a.shape)
        return svd(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_det_path_winding_loop_reports_delta(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(path, *rest):
        calls.append(path)
        return path_determinant(path, *rest)

    # one path_determinant call per top-level path
    monkeypatch.setattr(apfp.cli, "path_determinant", counted)
    monkeypatch.setattr(apfp.determinant, "path_determinant", counted)
    seen = counted_values(monkeypatch, ExpLine)
    svds = counted_svds(monkeypatch)
    c = Element(M2, (np.array([[2j * np.pi, 0], [0, 0]]),))
    f = write_json(tmp_path, "loop.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert len(calls) == 1
    # two stacked evaluations: the 9 points of det-path's own check, then
    # the 17 of delta_1_0's
    assert seen == np.linspace(0.0, 1.0, 9).tolist() + np.linspace(0.0, 1.0, 17).tolist()
    # one SVD of each stack: the 9 values, the two endpoints minus 1, the
    # hermitian defects of the 9; in delta_1_0 the 17 values and the two
    # endpoints minus 1 again
    assert svds == [(9, 2, 2), (2, 2, 2), (9, 2, 2), (17, 2, 2), (2, 2, 2)]
    res = report["results"]
    assert res["is_loop"] and res["is_unitary"]
    assert res["lattice_distance"] <= 1e-9
    assert res["delta_1_0"]["values"][0] == pytest.approx(0.5, abs=1e-9)


def test_det_path_evaluates_a_path_that_is_no_loop_at_9_points(tmp_path, capsys, monkeypatch):
    seen = counted_values(monkeypatch, ExpLine)
    svds = counted_svds(monkeypatch)
    c = random_element(M23, rng_from(8))
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["is_loop"] is False
    assert seen == np.linspace(0.0, 1.0, 9).tolist()
    # per block: the 9 values, the two endpoints minus 1, the hermitian defects
    assert svds == [(9, 2, 2), (9, 3, 3), (2, 2, 2), (2, 3, 3), (9, 2, 2), (9, 3, 3)]


def test_det_path_positivity_survives_an_overflowing_defect(tmp_path, capsys):
    # e^{tc} is finite on [0, 1], but at t = 1 its off-diagonal entries
    # are about +-1.35e308 and v - v* would overflow; the path is not positive
    c = Element(M2, (np.array([[709.5, np.pi / 2], [-np.pi / 2, 709.5]], dtype=complex),))
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["is_positive"] is False


def test_det_path_loop_tolerance_reaches_delta(tmp_path, capsys):
    # endpoints 1e-7 off the identity: a loop at the named tolerance 1e-6
    c = Element(M2, (np.array([[2j * np.pi * (1 + 1e-8), 0], [0, 0]]),))
    f = write_json(tmp_path, "loop.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f, "--tol", "loop_endpoint=1e-6")
    assert code == EXIT_OK
    res = report["results"]
    assert res["is_loop"]
    assert res["delta_1_0"]["values"][0] == pytest.approx(0.5, abs=1e-7)


def test_det_path_names_the_first_singular_point(tmp_path, capsys):
    # e^{t diag(800, -800)} is singular from t = 1/8 on and overflows at
    # t = 1: the error names t = 0.125, the first of the 9 points to fail
    c = Element(M2, (np.diag([800.0, -800.0]).astype(complex),))
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    code = main(["det-path", f])
    out, err = capsys.readouterr()
    assert code == EXIT_NUMERIC and out == ""
    assert err == "error: SingularValueOnPath: singular value at t=0.125\n"


def test_det_path_loop_not_unitary_between_the_9_points_exits_3(tmp_path, capsys):
    # e^{tc} with c = s diag(8 pi i, -8 pi i) s^{-1}: unitary at the 9
    # points t = k/8, not at the midpoints delta_1_0 adds
    s = np.array([[1.0, 0.5], [0.0, 1.0]])
    c = Element(M2, (s @ np.diag([8j * np.pi, -8j * np.pi]) @ np.linalg.inv(s),))
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    code = main(["det-path", f])
    out, err = capsys.readouterr()
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("error: NotUnitaryPath: value at t=0.0625 is not unitary")


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


ONE = {"blocks": [[[[1.0, 0.0]]]]}


@pytest.mark.parametrize(
    "obj,expected",
    [
        ([{"kind": "ExpLine", "c": ONE}], EXIT_PARSE),
        ({"kind": "ExpLine", "c": ONE, "domain": [0.0]}, EXIT_PARSE),
        ({"kind": "ExpLine", "c": ONE, "domain": ["0", "1"]}, EXIT_PARSE),
        ({"kind": "ExpLine", "c": ONE, "domain": [0.0, float("nan")]}, EXIT_PARSE),
        ({"kind": "ExpLine", "c": {"blocks": [[[[1e300, 0.0]]]]}}, EXIT_NUMERIC),
        # unit-modulus values, but the trace 2e308 i overflows
        ({"kind": "ExpLine", "c": {"blocks": [[[[0.0, 1e308], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1e308]]]]}}, EXIT_NUMERIC),
    ],
    ids=["list", "one-entry-domain", "string-domain", "nan-domain", "overflowing-value", "overflowing-determinant"],
)
def test_det_path_bad_input_exits_with_error_line(tmp_path, capsys, obj, expected):
    f = write_json(tmp_path, "path.json", obj)
    assert main(["det-path", f]) == expected
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


# every JSON path or element object, well-formed or not, gives exit 0 with
# a report, or exit 2 or 3 with an error line; nothing escapes main
NUMBERS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e154, -1e154, 1e300, 1e308, -1e308, 10**400]),
    st.floats(),
    st.integers(-5, 5),
)
JUNK = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
PAIRS = st.tuples(NUMBERS, NUMBERS).map(list)


@st.composite
def element_objs(draw):
    """Mostly well-formed, sometimes hermitian, sometimes with junk entries."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    entry = st.one_of(PAIRS, JUNK) if draw(st.integers(0, 3)) == 0 else PAIRS
    hermitian = entry is PAIRS and draw(st.booleans())
    blocks = []
    for n in sizes:
        b = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if hermitian:
            for i in range(n):
                b[i][i] = [b[i][i][0], 0.0]
                for j in range(i):
                    b[i][j] = [b[j][i][0], -b[j][i][1]]
        blocks.append(b)
    return {"blocks": blocks}


def scaled(x, factor):
    def entry(e):
        if isinstance(e, list) and all(type(v) is float for v in e):
            return [v * factor for v in e]
        return e

    return {"blocks": [[[entry(e) for e in row] for row in b] for b in x["blocks"]]}


@st.composite
def sampled_objs(draw):
    # samples (1 + j/10) x: the steps are within 1/2 of 1 whenever x is invertible
    x = draw(element_objs())
    times = sorted(set(draw(st.lists(NUMBERS, min_size=1, max_size=4))))
    return {"kind": "Sampled", "samples": [[t, scaled(x, 1 + j / 10)] for j, t in enumerate(times)]}


def path_objs():
    domain = st.one_of(PAIRS, PAIRS, JUNK)
    leaves = st.one_of(
        st.fixed_dictionaries({"kind": st.just("ExpLine"), "c": element_objs()}, optional={"domain": domain}),
        st.fixed_dictionaries(
            {"kind": st.just("ProductPolar"), "c": element_objs(), "d": element_objs()}, optional={"domain": domain}
        ),
        sampled_objs(),
        JUNK,
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.fixed_dictionaries(
                {"kind": st.sampled_from(["PointwiseProduct", "Concatenation"]), "first": inner, "second": inner}
            ),
            st.fixed_dictionaries({"kind": st.just("Reversal"), "inner": inner}),
        ),
        max_leaves=3,
    )


def not_strict_json(constant):
    raise AssertionError(f"{constant} in a report")


def run_contract(command, obj):
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.json")
        with open(src, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, src])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_NUMERIC)
    if code == EXIT_OK:
        assert json.loads(out.getvalue(), parse_constant=not_strict_json)["results"]
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")


@settings(max_examples=150)
@given(path_objs())
def test_det_path_contract_on_any_path_object(obj):
    run_contract("det-path", obj)


@settings(max_examples=150)
@given(st.one_of(element_objs(), JUNK))
def test_membership_contract_on_any_element_object(obj):
    run_contract("membership", obj)


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


def test_factor_reports_the_closed_form_distance(tmp_path, capsys):
    # below four factors too, as the witness diag(1, 0) is positive
    x = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    f = element_file(tmp_path, "bad.json", x)
    code, report = run(capsys, "factor", f, "--factors", "3")
    assert code == EXIT_NOT_IN_CLOSURE
    assert report["results"]["distance_to_closure"] == 1.0
    assert report["results"]["distance_probe"] == 1.0
    assert report["provenance"]["distance"] == {"route": "closed_form"}


@pytest.mark.parametrize("factors, route", [("3", "search"), ("5", "closed_form")])
def test_factor_reports_the_distance_route(tmp_path, capsys, factors, route):
    f = element_file(tmp_path, "bad.json", random_element(M2, rng_from((77, 1))))
    code, report = run(capsys, "factor", f, "--factors", factors, "--restarts", "1")
    assert code == EXIT_NOT_IN_CLOSURE
    closure = report["results"]["distance_to_closure"]
    assert closure == distance_to_closure(random_element(M2, rng_from((77, 1)))).distance
    assert report["provenance"]["distance"] == {"route": route}
    if route == "search":
        assert report["results"]["distance_probe"] >= closure
    else:
        assert report["results"]["distance_probe"] == closure


def test_factor_computes_one_closure_distance_per_non_member(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return distance_to_closure(x)

    monkeypatch.setattr(apfp.factorization, "distance_to_closure", counted)
    monkeypatch.setattr(apfp.cli, "distance_to_closure", counted, raising=False)
    f = element_file(tmp_path, "bad.json", random_element(M2, rng_from((77, 1))))
    code, report = run(capsys, "factor", f, "--factors", "3", "--restarts", "1")
    assert code == EXIT_NOT_IN_CLOSURE
    assert len(calls) == 1
    assert report["results"]["distance_to_closure"] <= report["results"]["distance_probe"]


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


def test_membership_of_an_element_whose_determinant_overflows(tmp_path, capsys):
    # det = -3e924: slogdet's LU overflows, the phase is still pi
    b = 1e308 * np.array([[1, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=complex)
    f = element_file(tmp_path, "huge.json", Element(AlgebraDescriptor((3,)), (b,)))
    code = main(["membership", f])
    report = json.loads(capsys.readouterr().out, parse_constant=not_strict_json)
    assert code == EXIT_OK
    assert report["results"]["member"] is False
    assert report["results"]["det_phases"] == [pytest.approx(np.pi)]


def near_member_file(tmp_path):
    # det phase 1e-5: a member at tolerance 1e-3, not at the default 1e-8
    x = Element(M2, (np.diag([2.0, np.exp(1e-5j)]),))
    return element_file(tmp_path, "near.json", x)


def test_membership_reads_the_named_tolerance(tmp_path, capsys):
    f = near_member_file(tmp_path)
    code, report = run(capsys, "membership", f, "--tol", "membership=1e-3")
    assert code == EXIT_OK
    assert report["results"]["member"] is True
    assert report["results"]["tol"] == 1e-3
    code, report = run(capsys, "membership", f)
    assert code == EXIT_OK
    assert report["results"]["member"] is False


def test_factor_decides_membership_at_the_default_tolerance(tmp_path, capsys):
    # the factorizer enforces 1e-8, so a looser --tol membership cannot let
    # a non-member through to a bare error line
    f = near_member_file(tmp_path)
    argv = ["factor", f, "--tol", "membership=1e-3", "--restarts", "1", "--max-iterations", "50"]
    code, report = run(capsys, *argv)
    assert code == EXIT_NOT_IN_CLOSURE
    assert report["results"]["member"] is False
    assert report["results"]["distance_to_closure"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["membership", "--membership-tol", "1e-3"],
        ["membership", "--tol", "loop_endpoit=1e-3"],
        ["det-path", "--tol", "membership"],
        ["det-path", "--tol", "loop_endpoint=tight"],
        ["membership", "--tol", "membership=nan"],
        ["det-path", "--tol", "loop_endpoint=-1e-8"],
        ["factor", "--target-residual", "nan"],
        ["factor", "--gradient-tolerance", "nan"],
        ["factor", "--gradient-tolerance", "-1"],
    ],
    ids=[
        "removed-flag",
        "unknown-name",
        "no-value",
        "bad-value",
        "nan-tol",
        "negative-tol",
        "nan-target-residual",
        "nan-gradient-tolerance",
        "negative-gradient-tolerance",
    ],
)
def test_bad_tolerance_flags_exit_2(tmp_path, capsys, argv):
    f = near_member_file(tmp_path)
    assert main(argv[:1] + [f] + argv[1:]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--factors", "0"],
        ["--factors", "-1"],
        ["--restarts", "0"],
        ["--factors", "3", "--restarts", "0"],
        ["--restarts", "-2", "--factors", "5"],
        ["--max-iterations", "0"],
        ["--max-iterations", "-1"],
    ],
)
@pytest.mark.parametrize("member", [True, False])
def test_factor_counts_below_one_exit_2(tmp_path, capsys, flags, member):
    # a member reaches the factorizer, a non-member the distance probe;
    # both are refused before either runs
    x = random_member(M2, rng_from(17)) if member else random_element(M2, rng_from((77, 1)))
    f = element_file(tmp_path, "x.json", x)
    code = main(["factor", f, *flags])
    out, err = capsys.readouterr()
    assert code == EXIT_PARSE
    assert out == "" and err.startswith("error:") and "at least 1" in err


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


def test_constructed_results_do_not_depend_on_threads(tmp_path, capsys):
    # the construction runs serially; a rerun gives the same bytes
    f = element_file(tmp_path, "member.json", random_member(M23, rng_from(19)))

    def results_bytes():
        code, report = run(capsys, "factor", f, "--factors", "5")
        assert code == EXIT_OK
        assert report["provenance"]["factorization"]["route"] == "construction"
        return json.dumps(report["results"], sort_keys=True).encode()

    assert results_bytes() == results_bytes()


def test_global_flags_accepted_before_subcommand(tmp_path, capsys):
    f = write_json(tmp_path, "alg.json", {"block_sizes": [1]})
    code = main(["--seed", "3", "check", f])
    assert code == EXIT_OK
    capsys.readouterr()


def test_flags_do_not_carry_over_between_calls(tmp_path, capsys):
    f = write_json(tmp_path, "alg.json", {"block_sizes": [1]})
    code, first = run(capsys, "check", f, "--seed", "3", "--tol", "loop_endpoint=1e-6")
    assert code == EXIT_OK
    assert first["provenance"]["seed"] == 3
    assert first["provenance"]["tolerances"] == {"loop_endpoint": 1e-6}
    code, second = run(capsys, "check", f)
    assert code == EXIT_OK
    assert second["provenance"]["seed"] == 0
    assert second["provenance"]["tolerances"] == {}


def test_det_path_on_sample_times_takes_no_logarithm(tmp_path, capsys, monkeypatch):
    # the 9 check points of det-path are the 9 sample times, where the path's
    # value is its sample; sla.logm runs only strictly inside a segment
    rng = rng_from(23)
    c = random_self_adjoint(M23, rng, norm=1.0)
    d = random_self_adjoint(M23, rng, norm=1.0)
    samples = tuple(
        (float(t), exp_element(float(t) * c) @ exp_element(float(t) * d)) for t in np.linspace(0.0, 1.0, 9)
    )
    logm_calls = []
    logm = sla.logm

    def counted(a, *rest, **kw):
        logm_calls.append(a)
        return logm(a, *rest, **kw)

    monkeypatch.setattr(apfp.determinant.sla, "logm", counted)
    f = write_json(tmp_path, "sampled.json", path_to_obj(Sampled(samples)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["is_loop"] is False
    assert logm_calls == []

    path = Sampled(samples)
    for t, v in samples:
        got = evaluate(path, t)
        assert all(np.array_equal(a, b) for a, b in zip(got.blocks, v.blocks))
    assert logm_calls == []
    evaluate(path, 0.0625)
    assert logm_calls  # the counter sees the logarithms when they do run


def factor_in_a_fresh_process(tmp_path, x):
    """apfp factor --factors 5 on x through apfp.cli.main in a new
    interpreter: the exit code, whether scipy.optimize was loaded, and the
    report."""
    f = element_file(tmp_path, "x.json", x)
    script = (
        "import sys, apfp.cli\n"
        f"code = apfp.cli.main(['factor', {f!r}, '--factors', '5', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(apfp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    code, loaded = out.stdout.split()
    return int(code), loaded == "True", json.loads((tmp_path / "r.json").read_text())


def test_member_factored_without_loading_the_optimizer(tmp_path):
    code, loaded, report = factor_in_a_fresh_process(tmp_path, random_member(M2, rng_from(29)))
    assert (code, loaded) == (EXIT_OK, False)
    assert report["provenance"]["factorization"]["route"] == "construction"


def test_non_member_probed_without_loading_the_optimizer(tmp_path):
    # no search at m >= 4: the distance is the closed form's
    code, loaded, report = factor_in_a_fresh_process(tmp_path, random_element(M2, rng_from((77, 1))))
    assert (code, loaded) == (EXIT_NOT_IN_CLOSURE, False)
    assert report["provenance"]["distance"] == {"route": "closed_form"}


def test_readme_command_line_is_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line.split()[1] for line in block.splitlines()]
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == list(sub.choices)
    sentence = re.search(r"Global flags on every subcommand:(.*?)\.\s", section, re.S).group(1)
    flags = re.findall(r"`(--[\w-]+)", sentence)
    common = [f for a in parser._actions for f in a.option_strings if f not in ("-h", "--help")]
    assert flags == common
    names = re.findall(r"^- `(\w+)`, default ([\de.-]+)", section, re.M)
    assert {n: float(v) for n, v in names} == TOLERANCES


def test_perfbench_tracer_installs_on_the_cli(tmp_path, capsys, monkeypatch):
    # perfbench/tracing.py wraps functions on apfp.cli by name, among them
    # evaluate, delta_1_0 and best_approx_distance: a name that leaves
    # cli.py fails here, not in the benchmark's traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    names = ("evaluate", "delta_1_0", "best_approx_distance", "path_determinant", "main")
    before = {name: getattr(apfp.cli, name) for name in names}
    loop = ExpLine(Element(M2, (np.array([[2j * np.pi, 0], [0, 0]]),)))
    path_file = write_json(tmp_path, "loop.json", path_to_obj(loop))
    member_file = element_file(tmp_path, "member.json", random_member(M2, rng_from(29)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert apfp.cli.main(["det-path", path_file]) == EXIT_OK
        assert apfp.cli.main(["factor", member_file, "--factors", "5"]) == EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {name: getattr(apfp.cli, name) for name in names} == before
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.main.calls"][0] == 2
    assert metrics["determinant.path_determinant.ExpLine.calls"][0] == 1
    assert metrics["determinant.delta_1_0.busy_s"][0] > 0
    assert metrics["factorization.factor_positive_products.busy_s"][0] > 0
