"""Exact JSON round-trips for elements, paths, and report payloads."""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from apfp import (
    AlgebraDescriptor,
    Concatenation,
    Element,
    ExpLine,
    PointwiseProduct,
    ProductPolar,
    Reversal,
    Sampled,
)
from apfp import serialize
from apfp.sampling import random_element, random_self_adjoint, rng_from
from apfp.serialize import (
    descriptor_from_obj,
    aff_function_to_obj,
    condition_report_to_obj,
    element_from_obj,
    element_to_obj,
    factorization_to_obj,
    flatten_for_csv,
    payload_to_csv,
    report_to_json,
    trace_value_to_obj,
)

M1 = AlgebraDescriptor((1,))
M2 = AlgebraDescriptor((2,))
M23 = AlgebraDescriptor((2, 3))

SEEDS = st.integers(min_value=0, max_value=10**6)

TRICKY = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def element_through_json(x: Element) -> Element:
    return element_from_obj(json.loads(json.dumps(element_to_obj(x))))


def exact_equal(x: Element, y: Element) -> bool:
    return x.algebra == y.algebra and all(
        np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks)
    )


# ---------------------------------------------------------------------------
# elements


@given(SEEDS)
def test_element_obj_round_trip_is_exact(seed):
    x = random_element(M23, rng_from(seed))
    assert exact_equal(element_from_obj(element_to_obj(x)), x)


@given(TRICKY, TRICKY)
def test_element_json_round_trip_keeps_every_bit(re, im):
    x = Element(M1, (np.array([[re + 1j * im]]),))
    back = element_through_json(x)
    assert exact_equal(back, x)


def test_element_obj_is_the_per_entry_floats():
    x = random_element(M23, rng_from(4))
    x = Element(M23, (x.blocks[0] * np.array([[1, -0.0], [1j, -1j]]), x.blocks[1]))
    want = [[[[float(v.real), float(v.imag)] for v in row] for row in b] for b in x.blocks]
    # repr keeps the sign of zero
    assert repr(element_to_obj(x)["blocks"]) == repr(want)


@pytest.mark.parametrize("entry", [[True, False], [1.0, True], [False, 0.5]])
def test_element_entries_must_be_numbers(entry):
    with pytest.raises(ValueError, match="numbers"):
        element_from_obj({"blocks": [[[entry]]]})


def test_element_json_survives_17_digit_floats():
    v = 0.1 + 0.2  # famously not 0.3
    x = Element(M1, (np.array([[v + 1e-17j]]),))
    assert exact_equal(element_through_json(x), x)


# ---------------------------------------------------------------------------
# paths


def path_round_trip(path):
    back = serialize.path_from_obj(json.loads(json.dumps(serialize.path_to_obj(path))))
    assert type(back) is type(path)
    ts = np.linspace(path.domain[0], path.domain[1], 7)
    for a, b in zip(back._values(ts), path._values(ts)):
        assert np.array_equal(a, b)
    return back


def test_exp_line_round_trip():
    rng = rng_from(3)
    path_round_trip(ExpLine(random_element(M23, rng)))


def test_product_polar_round_trip():
    rng = rng_from(5)
    c = random_self_adjoint(M23, rng, norm=1.0)
    d = random_self_adjoint(M23, rng, norm=1.0)
    path_round_trip(ProductPolar(c, d))


def test_sampled_round_trip():
    from apfp import exp_element

    rng = rng_from(7)
    c = random_self_adjoint(M2, rng, norm=1.0)
    samples = tuple(
        (float(t), exp_element(float(t) * c)) for t in np.linspace(0.0, 1.0, 9)
    )
    path_round_trip(Sampled(samples))


def test_composite_path_round_trip():
    rng = rng_from(11)
    a = ExpLine(random_element(M23, rng, scale=0.5))
    b = ExpLine(random_element(M23, rng, scale=0.5))
    path_round_trip(Concatenation(PointwiseProduct(a, b), Reversal(a)))


def test_path_objects_keep_their_keys_and_order():
    from apfp import exp_element

    rng = rng_from(13)
    c = random_self_adjoint(M2, rng, norm=0.5)
    d = random_self_adjoint(M2, rng, norm=0.5)
    a, b = M2.identity(), exp_element(0.1 * d)
    domain = (0.25, 0.75)
    path = Reversal(
        Concatenation(
            PointwiseProduct(ExpLine(c, domain), ProductPolar(c, d, domain)),
            Sampled(((0.0, a), (1.0, b))),
        )
    )
    el = element_to_obj
    want = {
        "kind": "Reversal",
        "domain": [0.25, 1.75],
        "inner": {
            "kind": "Concatenation",
            "domain": [0.25, 1.75],
            "first": {
                "kind": "PointwiseProduct",
                "domain": [0.25, 0.75],
                "first": {"kind": "ExpLine", "domain": [0.25, 0.75], "c": el(c)},
                "second": {"kind": "ProductPolar", "domain": [0.25, 0.75], "c": el(c), "d": el(d)},
            },
            "second": {"kind": "Sampled", "domain": [0.0, 1.0], "samples": [[0.0, el(a)], [1.0, el(b)]]},
        },
    }
    # json.dumps keeps the order of the keys: the texts agree only if it is the same
    obj = serialize.path_to_obj(path)
    assert json.dumps(obj) == json.dumps(want)
    assert json.dumps(serialize.path_to_obj(serialize.path_from_obj(obj))) == json.dumps(want)
    for other in (c, M2, object()):
        with pytest.raises(ValueError, match="unknown path kind"):
            serialize.path_to_obj(other)


def test_path_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        serialize.path_from_obj({"kind": "spline", "data": {}})


def test_readme_path_kinds_are_the_serializer_kinds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    span = re.search(r'- path: `\{"kind": (.*?), \.\.\.\}`', readme, re.S).group(1)
    kinds = re.findall(r'"(\w+)"', span)
    assert kinds == ["ExpLine", "ProductPolar", "Sampled", "PointwiseProduct", "Concatenation", "Reversal"]
    assert set(kinds) == set(serialize.PATH_KINDS)
    for kind in kinds:
        with pytest.raises(KeyError):  # the kind is known, its fields are missing
            serialize.path_from_obj({"kind": kind})


# ---------------------------------------------------------------------------
# descriptors and reports


def test_abstract_descriptor_round_trip():
    obj = {
        "rank": 1,
        "generators": [{"a": "1"}, {"a": "1/2", "b": "1/3"}],
        "flags": {
            "no_findim_reps": True,
            "stable_rank_one": True,
            "k1_trivial": True,
        },
    }
    desc = descriptor_from_obj(obj)
    assert desc.k0.generators == (
        (Fraction(1), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 3)),
    )
    assert desc.rho_dense is None


def test_condition_report_serializes():
    from apfp import check_conditions

    report = check_conditions(M23)
    obj = condition_report_to_obj(report)
    text = json.dumps(obj, sort_keys=True)
    assert json.loads(text)["apfp_verdict"] is False
    assert sorted(obj["failing"]) == ["no_findim_reps", "rho_dense"]


def test_factorization_payload():
    from apfp import factor_positive_products
    from apfp.sampling import random_positive

    a = random_positive(M2, rng_from(13))
    got = factor_positive_products(a, m=2)
    obj = factorization_to_obj(got)
    assert obj["residual"] == 0.0
    assert obj["restarts_used"] == 0
    assert len(obj["factors"]) == 2


def test_trace_value_payload_and_csv():
    from apfp import universal_trace

    t = universal_trace(M23.identity())
    obj = trace_value_to_obj(t)
    assert obj["block_sizes"] == [2, 3]
    flat = dict(flatten_for_csv({"trace": obj, "flag": True}))
    assert flat["trace_block_0_re"] == 2.0
    assert flat["trace_block_1_re"] == 3.0
    assert flat["flag"] == 1
    text = payload_to_csv({"trace": obj, "flag": True})
    header, row = text.strip().splitlines()
    assert "trace_block_0_re" in header
    assert len(header.split(",")) == len(row.split(","))


def test_aff_function_payload():
    from apfp import AffFunction

    obj = aff_function_to_obj(AffFunction((Fraction(1, 2), 0.25)))
    assert obj["values"] == [0.5, 0.25]


# ---------------------------------------------------------------------------
# the report writer

JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)  # a float subclass, as json treats it
    | st.sampled_from([-0.0, np.nan, np.inf, -np.inf])
    | st.text()
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40,
)
DEEP = [{"a": [[{"b": []}], {}]}]
for _ in range(60):
    DEEP = [DEEP, {"k\u00e9\ud7ff\n": DEEP[-1:]}]


@given(JSON_TREES)
@example(DEEP)
@example({"\u2603 snow": ["\x00\x1f\"\\/", "\U0001f600"], "": [[], {}, [[]]]})
def test_report_writer_is_json_dumps(tree):
    assert report_to_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


SPECIAL_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, np.nan, np.inf, -np.inf]
FLOAT64_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
    elements=st.floats() | st.sampled_from(SPECIAL_FLOATS),
)


def nested(leaf, depth: int):
    """leaf at depth levels of {"k": [leaf, 0.5]}."""
    for _ in range(depth):
        leaf = {"k": [leaf, 0.5]}
    return leaf


@given(FLOAT64_ARRAYS, st.integers(min_value=0, max_value=3))
@example(np.array([[-0.0, 5e-324], [1e16, 1e-5]]), 2)
@example(np.array(SPECIAL_FLOATS), 0)
@example(np.zeros((2, 0, 3)), 1)
def test_report_writer_writes_an_array_as_its_list(arr, depth):
    want = json.dumps(nested(arr.tolist(), depth), sort_keys=True, indent=2)
    assert report_to_json(nested(arr, depth)) == want
    # and the CSV flattening reads it as the same nested lists
    assert payload_to_csv(nested(arr, depth)) == payload_to_csv(nested(arr.tolist(), depth))


def test_report_writer_rejects_what_json_rejects():
    for bad in (np.int64(1), {1j: 1}, object()):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            report_to_json(bad)
