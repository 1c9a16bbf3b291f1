"""JSON and CSV input/output.

An Element travels as {"blocks": [B_1, ..., B_k]} with each B_i an
n_i x n_i row-major array of [re, im] pairs; the descriptor is implied
by the block shapes.  Floats are emitted through Python's shortest
round-trip repr, which preserves all 17 significant digits needed to
reconstruct the exact double.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import AlgebraDescriptor, Element, TraceValue, op_norm
from .checker import (
    AbstractDescriptor,
    AffFunction,
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
from .factorization import PositiveFactorization


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


def element_to_json(x: Element) -> str:
    return json.dumps(element_to_obj(x))


def element_from_json(text: str) -> Element:
    return element_from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# paths


def path_to_obj(path: InvertiblePath):
    if isinstance(path, ExpLine):
        return {
            "kind": "ExpLine",
            "domain": list(path.domain),
            "c": element_to_obj(path.c),
        }
    if isinstance(path, ProductPolar):
        return {
            "kind": "ProductPolar",
            "domain": list(path.domain),
            "c": element_to_obj(path.c),
            "d": element_to_obj(path.d),
        }
    if isinstance(path, Sampled):
        return {
            "kind": "Sampled",
            "domain": list(path.domain),
            "samples": [[t, element_to_obj(v)] for t, v in path.samples],
        }
    if isinstance(path, PointwiseProduct):
        return {
            "kind": "PointwiseProduct",
            "domain": list(path.domain),
            "first": path_to_obj(path.first),
            "second": path_to_obj(path.second),
        }
    if isinstance(path, Concatenation):
        return {
            "kind": "Concatenation",
            "domain": list(path.domain),
            "first": path_to_obj(path.first),
            "second": path_to_obj(path.second),
        }
    if isinstance(path, Reversal):
        return {
            "kind": "Reversal",
            "domain": list(path.domain),
            "inner": path_to_obj(path.inner),
        }
    raise ValueError(f"unknown path kind {type(path).__name__}")


def _parameter(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(float(v)):
        raise ValueError(f"path parameter must be a finite number, got {v!r}")
    return float(v)


def _domain(obj) -> tuple[float, float]:
    dom = obj.get("domain", (0.0, 1.0))
    if not isinstance(dom, (list, tuple)) or len(dom) != 2:
        raise ValueError(f"domain must be two numbers, got {dom!r}")
    return (_parameter(dom[0]), _parameter(dom[1]))


# the path kinds a path object may name, each with its reader of (obj, domain)
PATH_KINDS = {
    "ExpLine": lambda obj, domain: ExpLine(element_from_obj(obj["c"]), domain),
    "ProductPolar": lambda obj, domain: ProductPolar(
        element_from_obj(obj["c"]), element_from_obj(obj["d"]), domain
    ),
    "Sampled": lambda obj, _: Sampled(
        tuple((_parameter(t), element_from_obj(v)) for t, v in obj["samples"])
    ),
    "PointwiseProduct": lambda obj, _: PointwiseProduct(
        path_from_obj(obj["first"]), path_from_obj(obj["second"])
    ),
    "Concatenation": lambda obj, _: Concatenation(
        path_from_obj(obj["first"]), path_from_obj(obj["second"])
    ),
    "Reversal": lambda obj, _: Reversal(path_from_obj(obj["inner"])),
}


def path_from_obj(obj) -> InvertiblePath:
    """The path an object describes; ValueError (or KeyError, TypeError,
    OverflowError) on anything else.  The domain, when given, is two finite numbers; the
    composite kinds and Sampled take theirs from their parts."""
    if not isinstance(obj, dict):
        raise ValueError(f"a path is a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in PATH_KINDS:
        raise ValueError(f"unknown path kind {kind!r}")
    return PATH_KINDS[kind](obj, _domain(obj))


def path_to_json(path: InvertiblePath) -> str:
    return json.dumps(path_to_obj(path))


def path_from_json(text: str) -> InvertiblePath:
    return path_from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# abstract descriptors and reports


def abstract_descriptor_from_obj(obj) -> AbstractDescriptor:
    rank = int(obj["rank"])
    gens = obj.get("generators")
    if gens is not None:
        k0 = K0Data(
            rank=rank,
            generators=tuple(
                (Fraction(g.get("a", "0")), Fraction(g.get("b", "0"))) for g in gens
            ),
        )
    else:
        k0 = K0Data(rank=rank)
    flags = obj.get("flags", {})
    return AbstractDescriptor(
        k0=k0,
        no_findim_reps=bool(flags.get("no_findim_reps", False)),
        stable_rank_one=bool(flags.get("stable_rank_one", False)),
        k1_trivial=bool(flags.get("k1_trivial", False)),
        rho_dense=flags.get("rho_dense"),
    )


def abstract_descriptor_to_obj(desc: AbstractDescriptor):
    obj = {"rank": desc.k0.rank}
    if desc.k0.generators is not None:
        obj["generators"] = [
            {"a": str(a), "b": str(b)} for a, b in desc.k0.generators
        ]
    flags = {
        "no_findim_reps": desc.no_findim_reps,
        "stable_rank_one": desc.stable_rank_one,
        "k1_trivial": desc.k1_trivial,
    }
    if desc.rho_dense is not None:
        flags["rho_dense"] = desc.rho_dense
    obj["flags"] = flags
    return obj


def condition_report_to_obj(report: ConditionReport):
    def check(c: ConditionCheck):
        out = {"value": c.value, "source": c.source}
        if c.witness is not None:
            out["witness"] = c.witness
        return out

    return {
        "no_findim_reps": check(report.no_findim_reps),
        "stable_rank_one": check(report.stable_rank_one),
        "k1_trivial": check(report.k1_trivial),
        "rho_dense": check(report.rho_dense),
        "apfp_verdict": report.apfp_verdict,
        "failing": sorted(report.failing_set()),
    }


def factorization_to_obj(f: PositiveFactorization):
    return {
        "factors": [element_to_obj(p) for p in f.factors],
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
    None.  With indent set, the json module encodes through its
    pure-Python encoder; this writer lays out the same text from the same
    pieces: float.__repr__ (NaN, Infinity, -Infinity spelled as json
    spells them), int.__repr__, and encode_basestring_ascii for strings
    and keys."""
    return _encode(obj, "\n")


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
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# CSV flattening


def flatten_for_csv(payload, prefix=""):
    """Flatten a report into (column, value) pairs; per-block complex
    vectors become block_i_re / block_i_im columns."""
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
