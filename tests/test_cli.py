"""The command line: exit codes, report shape, and rerun determinism."""

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

import apfp
import apfp.cli
import apfp.determinant
import apfp.factorization
import apfp.serialize
from apfp import (
    AlgebraDescriptor,
    Element,
    ExpLine,
    OptimizerConfig,
    ProductPolar,
    Reversal,
    Sampled,
    distance_to_closure,
    evaluate,
    exp_element,
    factor_positive_products,
    membership_test,
    op_norm,
    path_determinant,
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
from apfp.sampling import (
    random_element,
    random_member,
    random_self_adjoint,
    random_special_unitary,
    rng_from,
)
from apfp.serialize import element_to_obj, factorization_to_obj, path_to_obj, payload_to_csv, report_to_json
from oracles import det_path_flags, det_path_mix

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


def test_det_path_canonical_representative_stays_in_the_strip(tmp_path, capsys):
    # T(c) = 0.5 - 1e-17 i lies within rounding below the lattice point 0
    c = Element(AlgebraDescriptor((1,)), (np.array([[0.5 - 1e-17j]]),))
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["determinant"]["coords"] == [[0.5, -1e-17]]
    assert report["results"]["canonical_representative"]["coords"] == [[0.5, 0.0]]


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
    # one SVD of each stack: the 9 values and the two endpoints minus 1,
    # whose entries are within the tolerance of 0; in delta_1_0 the 17
    # values and the two endpoints minus 1 again.  The hermitian defects
    # of the 9 take none: v/2 - v*/2 at t = 1/8 has an entry far above
    # its tolerance, which decides is_positive with no SVD.
    assert svds == [(9, 2, 2), (2, 2, 2), (17, 2, 2), (2, 2, 2)]
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
    # per block, the 9 values alone: an entry of v - 1 at an endpoint and
    # one of v/2 - v*/2 decide is_loop and is_positive, with no SVD of
    # the endpoints or of the hermitian defects
    assert svds == [(9, 2, 2), (9, 3, 3)]


def counted_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *rest, **kw):
        calls.append(a.shape)
        return eigvalsh(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_det_path_positive_path_still_takes_the_svd_route(tmp_path, capsys, monkeypatch):
    # e^{tc} for a hermitian c: v/2 - v*/2 is rounding alone, no entry of
    # it decides, and the SVD of the defects and the lowest eigenvalues
    # decide is_positive; an entry of e^c - 1 decides is_loop
    c = random_self_adjoint(M23, rng_from(8), norm=1.5)
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    svds = counted_svds(monkeypatch)
    eigs = counted_eigvalsh(monkeypatch)
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["is_positive"] is True
    assert report["results"]["is_loop"] is False
    assert svds == [(9, 2, 2), (9, 3, 3), (9, 2, 2), (9, 3, 3)]
    assert eigs == [(9, 2, 2), (9, 3, 3)]


def test_det_path_positivity_survives_an_overflowing_defect(tmp_path, capsys):
    # e^{tc} is finite on [0, 1], but at t = 1 its off-diagonal entries
    # are about +-1.35e308 and v - v* would overflow; the path is not positive
    c = Element(M2, (np.array([[709.5, np.pi / 2], [-np.pi / 2, 709.5]], dtype=complex),))
    f = write_json(tmp_path, "line.json", path_to_obj(ExpLine(c)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["is_positive"] is False


HUGE_SKEW = {"blocks": [[[[0.0, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]]]}
# |c_11| = 1.84e308 overflows, and c is not hermitian
HUGE_MODULUS = {"blocks": [[[[1.3e308, 1.3e308], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]]]}


@pytest.mark.parametrize(
    "obj,expected,answer",
    [
        # ||v*v - 1|| overflows in s**2: not unitary
        (
            path_to_obj(ExpLine(Element(M2, (np.array([[709.5, np.pi / 2], [-np.pi / 2, 709.5]], dtype=complex),)))),
            EXIT_OK,
            {"is_loop": False, "is_unitary": False, "is_positive": False},
        ),
        # the trace 2e308 i overflows: the determinant is not finite
        (
            {"kind": "ExpLine", "c": {"blocks": [[[[0.0, 1e308], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1e308]]]]}},
            EXIT_NUMERIC,
            "error: NonFiniteValue: path determinant is not finite\n",
        ),
        # c - c* would overflow in the hermitian check: c is not hermitian
        (
            {"kind": "ProductPolar", "c": HUGE_SKEW, "d": {"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}},
            EXIT_PARSE,
            "error: bad path file: ProductPolar needs self-adjoint c and d\n",
        ),
        # the scale max |c_ij| would overflow to inf, which would pass any
        # defect: read at half scale, c is not hermitian
        (
            {"kind": "ProductPolar", "c": HUGE_MODULUS, "d": {"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}},
            EXIT_PARSE,
            "error: bad path file: ProductPolar needs self-adjoint c and d\n",
        ),
    ],
    ids=["overflowing-defect", "overflowing-determinant", "overflowing-hermitian-check", "overflowing-hermitian-scale"],
)
def test_det_path_handled_overflow_warns_nothing(tmp_path, capsys, obj, expected, answer):
    f = write_json(tmp_path, "path.json", obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["det-path", f])
    out, err = capsys.readouterr()
    assert code == expected
    if code == EXIT_OK:
        assert err == ""
        assert {k: v for k, v in json.loads(out)["results"].items() if k in answer} == answer
    else:
        assert out == "" and err == answer


def det_path_report_flags(tmp_path, capsys, path, *flags):
    f = write_json(tmp_path, "path.json", path_to_obj(path))
    code, report = run(capsys, "det-path", f, *flags)
    assert code == EXIT_OK
    return {k: report["results"][k] for k in ("is_loop", "is_unitary", "is_positive")}


def test_det_path_flags_match_the_svd_route_on_the_benchmark_kinds(tmp_path, capsys):
    seen = set()
    for seed in range(20):
        for kind, path in det_path_mix(rng_from((25, seed))).items():
            want = det_path_flags(path, TOLERANCES["loop_endpoint"])
            assert det_path_report_flags(tmp_path, capsys, path) == want, (kind, seed)
            seen.add(tuple(want.values()))
    # loops, unitary paths that are no loop, and paths that are neither
    assert seen == {(True, True, False), (False, True, False), (False, False, False)}


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_det_path_endpoint_entry_straddles_the_loop_tolerance(tmp_path, capsys, factor):
    # the winding loop with its endpoint turned by about factor * tol: its
    # entry of v - 1 is about factor * tol, and the loop holds below 1 only
    tol = 1e-6
    path = ExpLine(Element(M2, (np.array([[1j * (2 * np.pi + factor * tol), 0], [0, 0]]),)))
    got = det_path_report_flags(tmp_path, capsys, path, "--tol", f"loop_endpoint={tol}")
    assert got == det_path_flags(path, tol)
    assert got["is_loop"] is (factor < 1)


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_det_path_skew_entry_straddles_the_positivity_tolerance(tmp_path, capsys, factor):
    # rotations by t a: ||v|| = 1, and v/2 - v*/2 has entries +-sin(t a),
    # at t = 1 factor times the half tolerance 5e-9, while (v + v*)/2 =
    # cos(t a) 1 is positive
    a = factor * 5e-9
    path = ExpLine(Element(M2, (np.array([[0.0, a], [-a, 0.0]], dtype=complex),)))
    got = det_path_report_flags(tmp_path, capsys, path)
    assert got == det_path_flags(path, TOLERANCES["loop_endpoint"])
    assert got["is_positive"] is (factor < 1)


@pytest.mark.parametrize("generator,loop", [(0.0, True), (2j * np.pi, False)], ids=["identity", "winding"])
def test_det_path_loop_at_tolerance_zero(tmp_path, capsys, generator, loop):
    # at tolerance 0 the constant identity path is a loop, and the winding
    # loop, whose endpoint misses 1 by rounding, is not
    path = ExpLine(Element(M2, (np.array([[generator, 0], [0, 0]]),)))
    got = det_path_report_flags(tmp_path, capsys, path, "--tol", "loop_endpoint=0")
    assert got == det_path_flags(path, 0.0)
    assert got["is_loop"] is loop


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
    f = write_json(tmp_path, "polar.json", path_to_obj(ProductPolar(c, d)))
    code, report = run(capsys, "det-path", f)
    assert code == EXIT_OK
    assert report["results"]["is_unitary"] is True


@pytest.mark.parametrize("command", ["det-path", "factor", "membership", "check"])
@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000 + "]" * 100000], ids=["long-integer", "deep-array"])
def test_json_that_python_cannot_hold_exits_2(tmp_path, capsys, command, text):
    p = tmp_path / "in.json"
    p.write_text(text)
    assert main([command, str(p)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_det_path_rejects_bad_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["det-path", str(p)]) == EXIT_PARSE
    f = write_json(tmp_path, "unknown.json", {"kind": "spline"})
    assert main(["det-path", f]) == EXIT_PARSE


ONE = {"blocks": [[[[1.0, 0.0]]]]}


def nested_reversals(depth):
    obj = {"kind": "ExpLine", "c": ONE}
    for _ in range(depth):
        obj = {"kind": "Reversal", "inner": obj}
    return obj


@pytest.mark.parametrize(
    "obj,expected",
    [
        ([{"kind": "ExpLine", "c": ONE}], EXIT_PARSE),
        ({"kind": "ExpLine", "c": ONE, "domain": [0.0]}, EXIT_PARSE),
        ({"kind": "ExpLine", "c": ONE, "domain": ["0", "1"]}, EXIT_PARSE),
        ({"kind": "ExpLine", "c": ONE, "domain": [0.0, float("nan")]}, EXIT_PARSE),
        (nested_reversals(600), EXIT_PARSE),
        ({"kind": "ExpLine", "c": {"blocks": [[[[1e300, 0.0]]]]}}, EXIT_NUMERIC),
        # unit-modulus values, but the trace 2e308 i overflows
        ({"kind": "ExpLine", "c": {"blocks": [[[[0.0, 1e308], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1e308]]]]}}, EXIT_NUMERIC),
        # the step is about 1.1 I with eigenvalues a subnormal amount apart,
        # where scipy's logm meets a nan and raises a bare Exception
        (
            {
                "kind": "Sampled",
                "samples": [
                    [0.0, {"blocks": [[[[1e-300, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]]}],
                    [1.0, {"blocks": [[[[1.1e-300, 1.1], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.1]]]]}],
                ],
            },
            EXIT_NUMERIC,
        ),
    ],
    ids=[
        "list",
        "one-entry-domain",
        "string-domain",
        "nan-domain",
        "nested-past-the-stack",
        "overflowing-value",
        "overflowing-determinant",
        "subnormal-eigenvalue-gap",
    ],
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


def run_contract(command, obj, *flags, reports=(EXIT_OK,), errors=(EXIT_PARSE, EXIT_NUMERIC)):
    """The exit codes in reports write a strict JSON report with results;
    those in errors write an error line alone."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.json")
        with open(src, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, src, *flags])
    assert code in (*reports, *errors)
    if code in reports:
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


# det = -3e924: slogdet's LU overflows, though every singular value is finite
HUGE_M3 = {"blocks": [[[[v * 1e308, 0.0] for v in row] for row in [[1, 1, -1], [1, 0, 1], [-1, 1, 0]]]]}


@settings(max_examples=150)
@given(st.one_of(element_objs(), JUNK))
@example(HUGE_M3)
def test_factor_contract_on_any_element_object(obj):
    # few restarts and iterations: a member that reaches the search ends
    # in exit 0 or 5 all the same
    flags = ("--factors", "5", "--restarts", "1", "--max-iterations", "20")
    run_contract("factor", obj, *flags, reports=(EXIT_OK, EXIT_NOT_IN_CLOSURE, EXIT_NO_CONVERGENCE))


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


def counted_block_calls(monkeypatch, x):
    """Per block of x, the values-only SVDs and the slogdets taken of
    that block; any other slogdet is counted under None."""
    calls = []
    svd, slogdet = np.linalg.svd, np.linalg.slogdet

    def block_of(a):
        hits = [i for i, b in enumerate(x.blocks) if a.shape == b.shape and np.array_equal(a, b)]
        return hits[0] if hits else None

    def counted_svd(a, *rest, **kw):
        if not kw.get("compute_uv", True) and block_of(a) is not None:
            calls.append(("svd", block_of(a)))
        return svd(a, *rest, **kw)

    def counted_slogdet(a):
        calls.append(("slogdet", block_of(a)))
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "slogdet", counted_slogdet)
    return calls


def one_svd_and_one_slogdet_per_block(x):
    return sorted([("slogdet", i) for i in range(x.algebra.rank)] + [("svd", i) for i in range(x.algebra.rank)])


def test_factor_computes_each_invariant_once_per_member(tmp_path, capsys, monkeypatch):
    # the report's membership test, factor_positive_products' own, the
    # overflow check, the construction's scale and log |det| and the
    # report's relative residual share one SVD and one slogdet of each
    # block, kept on x
    x = random_member(M23, rng_from(29))
    calls = counted_block_calls(monkeypatch, x)
    code, report = run(capsys, "factor", element_file(tmp_path, "member.json", x), "--factors", "5")
    assert code == EXIT_OK
    assert report["provenance"]["factorization"]["route"] == "construction"
    assert sorted(calls) == one_svd_and_one_slogdet_per_block(x)
    monkeypatch.undo()
    member = membership_test(x)
    direct = {
        "member": member.member,
        "det_phases": list(member.det_phases),
        "factors_requested": 5,
        "factorization": factorization_to_obj(factor_positive_products(x, 5)),
    }
    # repr keeps every bit (and the sign of zero); the factors of direct
    # are array leaves, those read back from the report nested lists
    assert report_to_json(report["results"]) == report_to_json(direct)


def test_factor_computes_each_invariant_once_per_non_member(tmp_path, capsys, monkeypatch):
    # the membership test and the closed-form distance read one phase of
    # each block determinant
    x = random_element(M23, rng_from((77, 1)))
    calls = counted_block_calls(monkeypatch, x)
    code, report = run(capsys, "factor", element_file(tmp_path, "bad.json", x), "--factors", "5")
    assert code == EXIT_NOT_IN_CLOSURE
    assert report["provenance"]["distance"] == {"route": "closed_form"}
    assert sorted(calls) == one_svd_and_one_slogdet_per_block(x)


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
        # JSON booleans are no numbers, though complex(True, False) is 1
        ([[[[True, False]]]], EXIT_PARSE),
        ([[[[1.0, 0.0], [0.0, False]], [[0.0, 0.0], [1.0, 0.0]]]], EXIT_PARSE),
    ],
    ids=["non-square", "singular", "boolean", "boolean-imaginary-part"],
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


def test_factor_of_an_element_whose_determinant_overflows(tmp_path, capsys):
    # the distance reads the phase pi of the membership test
    f = write_json(tmp_path, "huge.json", HUGE_M3)
    code, report = run(capsys, "factor", f, "--factors", "5")
    assert code == EXIT_NOT_IN_CLOSURE
    assert report["results"]["det_phases"] == [pytest.approx(np.pi)]
    assert report["results"]["distance_to_closure"] == pytest.approx(1e308, rel=1e-12)


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


TRUE_FLAGS = {"no_findim_reps": True, "stable_rank_one": True, "k1_trivial": True}
DENSE = [{"a": "1"}, {"b": "1"}]


@pytest.mark.parametrize(
    "obj",
    [
        5,
        None,
        {"rank": 1, "flags": 5},
        {"block_sizes": [2.5]},
        {"block_sizes": [True]},
        {"block_sizes": ["3"]},
        {"block_sizes": "23"},
        {"block_sizes": [0]},
        {"rank": 1.9, "generators": DENSE, "flags": TRUE_FLAGS},
        {"rank": True, "generators": DENSE, "flags": TRUE_FLAGS},
        {"rank": 1, "generators": DENSE, "flags": {**TRUE_FLAGS, "k1_trivial": "false"}},
        {"rank": 1, "generators": DENSE, "flags": {**TRUE_FLAGS, "stable_rank_one": None}},
        {"rank": 2, "flags": {**TRUE_FLAGS, "rho_dense": 1}},
        {"rank": 1, "generators": {"a": "1"}, "flags": TRUE_FLAGS},
        {"rank": 1, "generators": ["1", {"b": "1"}], "flags": TRUE_FLAGS},
        {"rank": 1, "generators": [{"a": "1/0"}], "flags": TRUE_FLAGS},
        {"rank": 1, "generators": [{"a": True}], "flags": TRUE_FLAGS},
        # str() of a 5001-digit witness would pass Python's 4300-digit limit
        {"rank": 1, "generators": [{"a": "1e5000"}], "flags": TRUE_FLAGS},
        # parallel generators whose cyclic witness has a 6126-digit denominator
        {"rank": 1, "generators": [{"a": f"1/{p**2000}"} for p in (3, 5, 7, 11)], "flags": TRUE_FLAGS},
    ],
    ids=[
        "number",
        "null",
        "flags-number",
        "fractional-size",
        "boolean-size",
        "string-size",
        "string-sizes",
        "zero-size",
        "fractional-rank",
        "boolean-rank",
        "string-flag",
        "null-flag",
        "number-density",
        "generators-object",
        "generator-string",
        "zero-denominator",
        "boolean-coordinate",
        "long-coordinate",
        "long-witness",
    ],
)
def test_check_bad_descriptor_exits_2(tmp_path, capsys, obj):
    f = write_json(tmp_path, "desc.json", obj)
    assert main(["check", f]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_check_refuses_a_large_exponent_before_expanding_it(tmp_path):
    # Fraction would build 10^(10^9) first; a fresh process that the test
    # can stop times the call
    obj = {"rank": 1, "generators": [{"a": "1e1000000000"}], "flags": TRUE_FLAGS}
    f = write_json(tmp_path, "desc.json", obj)
    script = (
        "import time, apfp.cli\n"
        "start = time.process_time()\n"
        f"code = apfp.cli.main(['check', {f!r}])\n"
        "print(code, time.process_time() - start)\n"
    )
    src = os.path.dirname(os.path.dirname(apfp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30)
    code, seconds = out.stdout.split()
    assert int(code) == EXIT_PARSE and float(seconds) < 1.0
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


def test_check_reads_a_large_exponent_before_fraction_does(tmp_path, capsys, monkeypatch):
    # in process, with a Fraction that records its input in place of the
    # one serialize calls: a missing guard fails here, not by expanding
    seen = []

    def fraction(v):
        seen.append(v)
        if v == "1e1000000000":
            raise ValueError("expanded")
        return Fraction(v)

    monkeypatch.setattr(apfp.serialize, "Fraction", fraction)
    obj = {"rank": 1, "generators": [{"a": "1e1000000000"}], "flags": TRUE_FLAGS}
    assert main(["check", write_json(tmp_path, "desc.json", obj)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and "has more than 6000 bits" in err
    assert seen == []


RATIONALS = st.one_of(st.sampled_from(["0", "1", "-2", "1/2", "-1/3", "2/4", "1/0", "x"]), NUMBERS, JUNK)
FLAGS = st.fixed_dictionaries(
    {},
    optional={
        name: st.one_of(st.booleans(), st.booleans(), JUNK)
        for name in ("no_findim_reps", "stable_rank_one", "k1_trivial", "rho_dense")
    },
)
DESCRIPTORS = st.one_of(
    st.fixed_dictionaries({"block_sizes": st.one_of(st.lists(st.one_of(st.integers(1, 4), JUNK), max_size=3), JUNK)}),
    st.fixed_dictionaries(
        {"rank": st.one_of(st.integers(1, 3), JUNK)},
        optional={
            "generators": st.one_of(
                st.lists(st.fixed_dictionaries({}, optional={"a": RATIONALS, "b": RATIONALS}), max_size=3), JUNK
            ),
            "flags": st.one_of(FLAGS, FLAGS, JUNK),
        },
    ),
    JUNK,
)


@settings(max_examples=150)
@given(DESCRIPTORS)
def test_check_contract_on_any_descriptor_object(obj):
    run_contract("check", obj, errors=(EXIT_PARSE, EXIT_RANK_TOO_HIGH))


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


LOOP = ExpLine(Element(M2, (np.array([[2j * np.pi, 0], [0, 0]]),)))
# one input per subcommand and exit path: (argv after the input file,
# input object or None, exit code, a key results must hold)
REPORTS = {
    "factor-member": (["factor", "--factors", "5"], element_to_obj(random_member(M2, rng_from(29))), EXIT_OK, "factorization"),
    "factor-non-member": (
        ["factor", "--factors", "5"],
        element_to_obj(random_element(M2, rng_from((77, 1)))),
        EXIT_NOT_IN_CLOSURE,
        "distance_to_closure",
    ),
    "factor-no-convergence": (["factor"], element_to_obj(random_member(M2, rng_from(11))), EXIT_NO_CONVERGENCE, "best_residual"),
    "det-path-loop": (["det-path"], path_to_obj(LOOP), EXIT_OK, "delta_1_0"),
    "membership": (["membership"], element_to_obj(random_element(M23, rng_from(5))), EXIT_OK, "det_phases"),
    "check": (["check"], {"block_sizes": [2, 3]}, EXIT_OK, "apfp_verdict"),
    "demo": (["demo", "--name", "loop-lattice"], None, EXIT_OK, "nearest_vector"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_are_json_dumps_byte_for_byte(name, tmp_path, capsys, monkeypatch):
    argv, obj, want_code, key = REPORTS[name]
    if obj is not None:
        argv = argv[:1] + [write_json(tmp_path, "in.json", obj)] + argv[1:]
    if name == "factor-no-convergence":

        def fail(*args, **kwargs):
            raise NoConvergence("no restart gave positive factors", best_residual=np.inf, best=None)

        monkeypatch.setattr(apfp.cli, "factor_positive_products", fail)
    written = []
    write = apfp.serialize.report_to_json

    def spy(report):
        written.append((report, write(report)))
        return written[-1][1]

    monkeypatch.setattr(apfp.serialize, "report_to_json", spy)
    assert main(argv) == want_code
    out = capsys.readouterr().out
    [(report, text)] = written
    assert key in report["results"]
    # the factors are float64 array leaves, which json writes as their lists
    assert text == json.dumps(report, sort_keys=True, indent=2, default=np.ndarray.tolist)
    assert out == text + "\n"


def test_out_file_and_csv(tmp_path, capsys):
    x = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    f = element_file(tmp_path, "bad.json", x)
    dest = tmp_path / "report.csv"
    code = main(["membership", f, "--output", "csv", "--out", str(dest)])
    assert code == EXIT_OK
    header, row = dest.read_text().strip().splitlines()
    assert "member" in header.split(",")
    capsys.readouterr()


def test_factor_csv_flattens_the_factors_as_nested_lists(tmp_path, capsys):
    # the payload's factors are array leaves; the CSV is the one that
    # element_to_obj's nested lists of the factors give
    x = random_member(M23, rng_from(29))
    f = element_file(tmp_path, "member.json", x)
    dest = tmp_path / "report.csv"
    assert main(["factor", f, "--factors", "5", "--output", "csv", "--out", str(dest)]) == EXIT_OK
    fac = factor_positive_products(x, 5)
    member = membership_test(x)
    nested = {
        "member": True,
        "det_phases": list(member.det_phases),
        "factors_requested": 5,
        "factorization": {
            "factors": [element_to_obj(p) for p in fac.factors],
            "residual": fac.residual,
            "relative_residual": fac.residual / max(1e-300, op_norm(x)),
            "restarts_used": 0,
        },
    }
    assert dest.read_text() == payload_to_csv(nested)
    # one column per real and imaginary part of every entry: 5 (2*2 + 3*3) * 2
    header = dest.read_text().splitlines()[0].split(",")
    columns = [name for name in header if name.startswith("factorization_factors_")]
    assert len(columns) == 130
    assert columns[-1] == "factorization_factors_4_blocks_1_2_2_1"


def test_elapsed_seconds_is_never_negative(tmp_path, capsys, monkeypatch):
    # the wall clock may step back during a run; elapsed time reads a
    # monotonic clock
    clock = iter(range(10**6, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    f = element_file(tmp_path, "x.json", random_element(M23, rng_from(5)))
    code, report = run(capsys, "membership", f)
    assert code == EXIT_OK
    assert report["provenance"]["elapsed_seconds"] >= 0


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


def test_each_optimizer_field_has_one_flag():
    parser = _build_parser()
    flags = [f for a in parser._actions for f in a.option_strings]
    for field in dataclasses.fields(OptimizerConfig):
        assert flags.count("--" + field.name.replace("_", "-")) == 1


def test_factor_without_optimizer_flags_echoes_the_defaults(tmp_path, capsys):
    f = element_file(tmp_path, "member.json", random_member(M2, rng_from(29)))
    code, report = run(capsys, "factor", f)
    assert code == EXIT_OK
    default = dataclasses.asdict(OptimizerConfig())
    assert report["provenance"]["seed"] == default.pop("seed")
    assert report["provenance"]["optimizer"] == default


def test_det_path_on_sample_times_takes_no_logarithm(tmp_path, capsys, monkeypatch):
    # the 9 check points of det-path are the 9 sample times, where the path's
    # value is its sample; scipy.linalg.logm runs only strictly inside a segment
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

    monkeypatch.setattr(sla, "logm", counted)
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


def cli_in_a_fresh_process(tmp_path, *argv):
    """apfp.cli.main(argv) in a new interpreter: the exit code, which of
    scipy.linalg and scipy.optimize it loaded, and the report."""
    out_file = str(tmp_path / "r.json")
    script = (
        "import sys, apfp.cli\n"
        f"code = apfp.cli.main({[*argv, '--out', out_file]!r})\n"
        "print(code, *(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(apfp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    code, *loaded = out.stdout.split()
    return int(code), set(loaded), json.loads(Path(out_file).read_text())


def factor_in_a_fresh_process(tmp_path, x):
    """apfp factor --factors 5 on x in a new interpreter (see above)."""
    return cli_in_a_fresh_process(tmp_path, "factor", element_file(tmp_path, "x.json", x), "--factors", "5")


def test_member_factored_without_loading_the_optimizer(tmp_path):
    # nor scipy.linalg: the construction needs numpy alone
    code, loaded, report = factor_in_a_fresh_process(tmp_path, random_member(M2, rng_from(29)))
    assert (code, loaded) == (EXIT_OK, set())
    assert report["provenance"]["factorization"]["route"] == "construction"


def test_non_member_probed_without_loading_the_optimizer(tmp_path):
    # no search at m >= 4: the distance is the closed form's, from numpy alone
    code, loaded, report = factor_in_a_fresh_process(tmp_path, random_element(M2, rng_from((77, 1))))
    assert (code, loaded) == (EXIT_NOT_IN_CLOSURE, set())
    assert report["provenance"]["distance"] == {"route": "closed_form"}


def fresh_process_inputs(tmp_path):
    rng = rng_from(31)
    c = random_self_adjoint(M23, rng, norm=1.0)
    d = random_self_adjoint(M23, rng, norm=1.0)
    loop = ExpLine(Element(M2, (np.array([[2j * np.pi, 0], [0, 0]]),)))
    general = ExpLine(Element(M2, (np.array([[0.3, 1.0], [0.0, -0.2j]]),)))
    return {
        "membership": ["membership", element_file(tmp_path, "x.json", random_element(M23, rng))],
        "hermitian-exp-line": ["det-path", write_json(tmp_path, "h.json", path_to_obj(ExpLine(c)))],
        "product-polar": ["det-path", write_json(tmp_path, "p.json", path_to_obj(ProductPolar(c, d)))],
        "loop": ["det-path", write_json(tmp_path, "l.json", path_to_obj(loop))],
        "general-exp-line": ["det-path", write_json(tmp_path, "g.json", path_to_obj(general))],
    }


@pytest.mark.parametrize(
    "name", ["membership", "hermitian-exp-line", "product-polar", "loop", "general-exp-line"]
)
def test_what_each_route_loads(tmp_path, capsys, name):
    # only a generator neither hermitian nor skew-hermitian takes expm
    loaded = {"scipy.linalg"} if name == "general-exp-line" else set()
    argv = fresh_process_inputs(tmp_path)[name]
    code, got, report = cli_in_a_fresh_process(tmp_path, *argv)
    assert (code, got) == (EXIT_OK, loaded)
    assert report["results"] == run(capsys, *argv)[1]["results"]


def test_search_linalgerror_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    # the m < 4 search can raise LinAlgError (its polish overflows exp);
    # best_approx_distance lets it through, the command line reports it
    def search(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(apfp.factorization, "_search", search)
    f = element_file(tmp_path, "x.json", random_element(M2, rng_from((77, 1))))
    assert main(["factor", f, "--factors", "3"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: LinAlgError: SVD did not converge\n"


def test_member_search_linalgerror_exits_5(tmp_path, capsys, monkeypatch):
    # an eigh or SVD in the M3 block's search does not converge: the
    # member route reports NoConvergence with no best run, though the M2
    # block's search ran, not a numeric failure
    search = apfp.factorization._search

    def failing_on_m3(obj, *args, **kwargs):
        if obj.n == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return search(obj, *args, **kwargs)

    monkeypatch.setattr(apfp.factorization, "_search", failing_on_m3)
    x = random_member(M23, rng_from((901, 2, 2)))
    f = element_file(tmp_path, "member.json", x)
    code, report = run(capsys, "factor", f, "--factors", "1", "--restarts", "3")
    assert code == EXIT_NO_CONVERGENCE
    assert report["results"]["best_residual"] is None


@pytest.mark.parametrize("factors", ["3", "5"])
def test_member_whose_scale_overflows_exits_3(tmp_path, capsys, factors):
    # tr x = 2e308 overflows; the member test alone still answers
    x = Element(M2, (1e308 * np.array([[1, 1], [-1, 1]], dtype=complex),))
    f = element_file(tmp_path, "huge.json", x)
    code, report = run(capsys, "membership", f)
    assert (code, report["results"]["member"]) == (EXIT_OK, True)
    assert main(["factor", f, "--factors", factors]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: NonFiniteValue:")
    assert "Traceback" not in err


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
    # cli.py fails here, not in the benchmark's traced run.  It also
    # replaces the name scipy on apfp.factorization with a namespace that
    # holds optimize.minimize alone, so a Schur route of that module
    # (commutator_factor_su) must not reach scipy.linalg through it
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
        u = random_special_unitary(M2, rng_from(37))
        v, w = apfp.factorization.commutator_factor_su(u)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {name: getattr(apfp.cli, name) for name in names} == before
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.main.calls"][0] == 2
    assert metrics["determinant.path_determinant.ExpLine.calls"][0] == 1
    assert metrics["determinant.delta_1_0.busy_s"][0] > 0
    assert metrics["factorization.factor_positive_products.busy_s"][0] > 0
    (vb,), (wb,) = v.blocks, w.blocks
    assert np.allclose(vb @ wb @ vb.conj().T @ wb.conj().T, u.blocks[0], atol=1e-10)
