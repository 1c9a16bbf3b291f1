"""JSON and CSV input/output.

An Element travels as {"blocks": [B_1, ..., B_k]} with each B_i an
n_i x n_i row-major array of [re, im] pairs; the descriptor is implied
by the block shapes.  Floats are emitted through Python's shortest
round-trip repr, which preserves all 17 significant digits needed to
reconstruct the exact double.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import AffFunction, AlgebraDescriptor, Element, TraceValue, op_norm
from .checker import (
    CONDITION_NAMES,
    AbstractDescriptor,
    ConditionCheck,
    ConditionReport,
    K0Data,
)
from .determinant import (
    Concatenation,
    ExpLine,
    InvertiblePath,
    PointwiseProduct,
    ProductPolar,
    Reversal,
    Sampled,
)


# ---------------------------------------------------------------------------
# elements


def element_to_obj(x: Element):
    # a frozen block is C-ordered complex128: its float64 view holds the
    # [re, im] pairs in row-major order
    return {"blocks": [b.view(np.float64).reshape(len(b), len(b), 2).tolist() for b in x.blocks]}


def _entry(re, im) -> complex:
    if isinstance(re, bool) or isinstance(im, bool):
        raise ValueError(f"element entries must be numbers, got [{re!r}, {im!r}]")
    return complex(re, im)


def element_from_obj(obj) -> Element:
    blocks = []
    for b in obj["blocks"]:
        arr = np.array([[_entry(re, im) for re, im in row] for row in b], dtype=complex)
        blocks.append(arr)
    alg = AlgebraDescriptor(tuple(len(b) for b in blocks))
    return Element(alg, tuple(blocks))


# ---------------------------------------------------------------------------
# paths


def _parameter(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(float(v)):
        raise ValueError(f"path parameter must be a finite number, got {v!r}")
    return float(v)


def _domain(obj) -> tuple[float, float]:
    dom = obj.get("domain", (0.0, 1.0))
    if not isinstance(dom, (list, tuple)) or len(dom) != 2:
        raise ValueError(f"domain must be two numbers, got {dom!r}")
    return (_parameter(dom[0]), _parameter(dom[1]))


# what a path field holds, as (writer, reader).  The readers look up
# element_from_obj and path_from_obj when they run, so a wrapper set on
# this module sees the nested reads too.
_ELEMENT = (element_to_obj, lambda obj: element_from_obj(obj))
_PATH = (lambda path: path_to_obj(path), lambda obj: path_from_obj(obj))
_SAMPLES = (
    lambda samples: [[t, element_to_obj(v)] for t, v in samples],
    lambda obj: tuple((_parameter(t), element_from_obj(v)) for t, v in obj),
)

# the path kinds by name, each with its class and its fields in the order
# they are written; every kind writes its domain after its kind
PATH_KINDS = {
    "ExpLine": (ExpLine, {"c": _ELEMENT}),
    "ProductPolar": (ProductPolar, {"c": _ELEMENT, "d": _ELEMENT}),
    "Sampled": (Sampled, {"samples": _SAMPLES}),
    "PointwiseProduct": (PointwiseProduct, {"first": _PATH, "second": _PATH}),
    "Concatenation": (Concatenation, {"first": _PATH, "second": _PATH}),
    "Reversal": (Reversal, {"inner": _PATH}),
}
# the kinds built on the domain a path object gives
_ON_A_DOMAIN = (ExpLine, ProductPolar)


def path_to_obj(path: InvertiblePath):
    for kind, (cls, fields) in PATH_KINDS.items():
        if isinstance(path, cls):
            obj = {"kind": kind, "domain": list(path.domain)}
            for name, (write, _) in fields.items():
                obj[name] = write(getattr(path, name))
            return obj
    raise ValueError(f"unknown path kind {type(path).__name__}")


def path_from_obj(obj) -> InvertiblePath:
    """The path an object describes; ValueError (or KeyError, TypeError,
    OverflowError, and RecursionError for paths nested past the stack) on
    anything else.  The domain, when given, is two finite numbers; the
    composite kinds and Sampled take theirs from their parts."""
    if not isinstance(obj, dict):
        raise ValueError(f"a path is a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in PATH_KINDS:
        raise ValueError(f"unknown path kind {kind!r}")
    cls, fields = PATH_KINDS[kind]
    domain = _domain(obj)
    parts = {"domain": domain} if cls in _ON_A_DOMAIN else {}
    for name, (_, read) in fields.items():  # a loop, not a comprehension: one frame less per nested path
        parts[name] = read(obj[name])
    return cls(**parts)


# ---------------------------------------------------------------------------
# descriptors and reports


def _count(v, what) -> int:
    """A JSON integer >= 1; booleans are no integers."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {v!r}")
    return v


def _json(v, kind, what):
    """v when it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(v, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, got {v!r}")
    return v


# bits of all generator coordinates, numerators and denominators: a cyclic
# witness has at most about twice as many, within the 4300 digits str() writes
MAX_GENERATOR_BITS = 6000


def _rational(v) -> Fraction:
    """A generator coordinate: a JSON number or a string such as "1/3"."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"a generator coordinate must be a number or a string, got {v!r}")
    # a string's exponent is read before Fraction expands it
    if isinstance(v, str) and abs(int(v.lower().partition("e")[2] or 0)) > MAX_GENERATOR_BITS:
        raise ValueError(f"generator coordinate {v!r} has more than {MAX_GENERATOR_BITS} bits")
    try:
        return Fraction(v)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad generator coordinate {v!r}: {exc}") from exc


def _generator(g) -> tuple[Fraction, Fraction]:
    _json(g, dict, "a generator")
    return (_rational(g.get("a", "0")), _rational(g.get("b", "0")))


def descriptor_from_obj(obj) -> AlgebraDescriptor | AbstractDescriptor:
    """The algebra a descriptor object describes: {"block_sizes": [...]}
    for a concrete one, {"rank": ..., "generators": [...], "flags": {...}}
    for an abstract one.  ValueError on anything else, among it a block
    size or rank that is not an integer >= 1, a flag that is not a
    boolean (rho_dense may be null) and a zero denominator."""
    _json(obj, dict, "a descriptor")
    if "block_sizes" in obj:
        sizes = _json(obj["block_sizes"], list, "block_sizes")
        return AlgebraDescriptor(tuple(_count(n, "a block size") for n in sizes))
    if "rank" not in obj:
        raise ValueError("descriptor needs block_sizes or rank")
    rank = _count(obj["rank"], "rank")
    gens = obj.get("generators")
    if gens is not None:
        gens = tuple(_generator(g) for g in _json(gens, list, "generators"))
        bits = sum(r.numerator.bit_length() + r.denominator.bit_length() for g in gens for r in g)
        if bits > MAX_GENERATOR_BITS:
            raise ValueError(f"the generator coordinates have {bits} bits, more than {MAX_GENERATOR_BITS}")
    given = _json(obj.get("flags", {}), dict, "flags")
    # the three asserted flags default to false, rho_dense to null
    flags = {name: given.get(name, None if name == "rho_dense" else False) for name in CONDITION_NAMES}
    for name, v in flags.items():
        if not isinstance(v, bool) and not (name == "rho_dense" and v is None):
            raise ValueError(f"flag {name} must be true or false, got {v!r}")
    return AbstractDescriptor(K0Data(rank, gens), **flags)


def condition_report_to_obj(report: ConditionReport):
    def check(c: ConditionCheck):
        out = {"value": c.value, "source": c.source}
        if c.witness is not None:
            out["witness"] = c.witness
        return out

    return {
        **{name: check(getattr(report, name)) for name in CONDITION_NAMES},
        "apfp_verdict": report.apfp_verdict,
        "failing": sorted(report.failing_set()),
    }


def factorization_to_obj(f):
    """The report payload of a PositiveFactorization.  Each factor's
    blocks are float64 arrays of [re, im] pairs, views of its stacks,
    which report_to_json and flatten_for_csv write as element_to_obj's
    nested lists."""
    views = [s.view(np.float64).reshape(*s.shape, 2) for s in f.stacks]
    return {
        "factors": [{"blocks": [v[j] for v in views]} for j in range(len(views[0]))],
        "residual": f.residual,
        "relative_residual": f.residual / max(1e-300, op_norm(f.target)),
        "restarts_used": f.restarts_used,
    }


def trace_value_to_obj(v: TraceValue):
    return {
        "coords": [[c.real, c.imag] for c in v.coords],
        "block_sizes": list(v.algebra.block_sizes),
    }


def aff_function_to_obj(f: AffFunction):
    return {"values": [float(v) for v in f.values]}


# ---------------------------------------------------------------------------
# reports


def report_to_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for a
    tree of dicts with str keys, lists, tuples, str, int, float, bool and
    None, where a float64 array stands for its .tolist().  With indent
    set, the json module encodes through its pure-Python encoder; this
    writer lays out the same text from the same pieces: float.__repr__
    (NaN, Infinity, -Infinity spelled as json spells them), int.__repr__,
    and encode_basestring_ascii for strings and keys.  A finite array is
    filled into a layout made once per shape and position."""
    return _encode(obj, "\n")


@functools.lru_cache(maxsize=256)
def _array_layout(shape: tuple[int, ...], newline: str) -> str:
    """The text _encode lays out for a nested list of this shape, with %s
    in place of each value."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = newline + "  "
    item = _array_layout(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + newline + "]"


def _encode(obj, newline: str) -> str:
    # newline is the line break and indent that lead the closing bracket
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # a finite float, the usual item, is written in place: v - v is 0
        # for it alone
        items = [float.__repr__(v) if type(v) is float and v - v == 0.0 else _encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        text = _array_layout(obj.shape, newline) % tuple(map(float.__repr__, obj.ravel().tolist()))
        # float.__repr__ writes no "n" but in nan and inf, which json
        # spells NaN and Infinity: a non-finite array goes the list way
        return text if "n" not in text else _encode(obj.tolist(), newline)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# CSV flattening


def flatten_for_csv(payload, prefix=""):
    """Flatten a report into (column, value) pairs; per-block complex
    vectors become block_i_re / block_i_im columns, and an array its
    .tolist()."""
    if isinstance(payload, np.ndarray):
        payload = payload.tolist()
    rows = []
    if isinstance(payload, dict):
        if set(payload) == {"coords", "block_sizes"}:
            for i, (re, im) in enumerate(payload["coords"]):
                rows.append((f"{prefix}block_{i}_re", re))
                rows.append((f"{prefix}block_{i}_im", im))
            return rows
        for key in payload:
            rows.extend(flatten_for_csv(payload[key], f"{prefix}{key}_"))
        return rows
    if isinstance(payload, (list, tuple)):
        if all(isinstance(v, (int, float, bool)) for v in payload):
            for i, v in enumerate(payload):
                rows.append((f"{prefix}{i}", v))
            return rows
        for i, v in enumerate(payload):
            rows.extend(flatten_for_csv(v, f"{prefix}{i}_"))
        return rows
    value = payload
    if isinstance(value, bool):
        value = int(value)
    rows.append((prefix.rstrip("_"), value))
    return rows


def payload_to_csv(payload) -> str:
    rows = flatten_for_csv(payload)
    header = ",".join(name for name, _ in rows)
    line = ",".join(repr(v) if isinstance(v, float) else str(v) for _, v in rows)
    return header + "\n" + line + "\n"
