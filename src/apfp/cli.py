"""Command line interface.

Subcommands: det-path, factor, membership, check, demo.  Reports
are JSON (or flattened CSV) with a deterministic "results" section and a
"provenance" section carrying seed, config echo and timings.  Exit codes:
0 success, 2 parse/input error, 3 numeric failure, 4 not in closure,
5 optimizer non-convergence, 6 density rank too high, 7 demo failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import serialize
from .algebra import (
    LOOP_ENDPOINT_TOL,
    MEMBERSHIP_TOL,
    AlgebraDescriptor,
    Element,
    _identity_at,
    _op_norms,
    _positive_at,
    _unitarity_defects,
    adjoint,
    op_norm,
    quotient_norm,
)
from .checker import check_abstract, check_conditions, pairing_consistency
from .determinant import (
    ExpLine,
    ProductPolar,
    delta_1_0,
    evaluate,  # noqa: F401  (the tracer in perfbench/ wraps it here)
    evaluate_many,
    lattice_distance,
    lattice_reduce,
    path_determinant,
)
from .errors import (
    APFPError,
    DescriptorMismatch,
    InconsistentFlags,
    NoConvergence,
    NonFiniteValue,
    RankTooHighForDensity,
)
from .factorization import (
    OptimizerConfig,
    _distance_probe,
    best_approx_distance,  # noqa: F401  (the tracer in perfbench/ wraps it here)
    commutator_factor_su,
    factor_positive_products,
    membership_test,
    split_into_exponentials,
)
from .sampling import random_self_adjoint, random_special_unitary, rng_from

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_NOT_IN_CLOSURE = 4
EXIT_NO_CONVERGENCE = 5
EXIT_RANK_TOO_HIGH = 6
EXIT_DEMO_FAILURE = 7

# the names --tol accepts, with their defaults: loop_endpoint is read by
# det-path, membership by membership
TOLERANCES = {"loop_endpoint": LOOP_ENDPOINT_TOL, "membership": MEMBERSHIP_TOL}


@dataclass(frozen=True)
class RunConfig:
    tolerances: dict = field(default_factory=dict)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    output_format: str = "json"

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCES[name]))


class _DemoFailure(Exception):
    pass


@functools.lru_cache(maxsize=1)
def _build_parser():
    # built once per process: parse_args returns a fresh namespace on each
    # call, so no flag carries over from one call to the next.
    # global flags live on a parent parser so they parse in either
    # position: `apfp --seed 1 factor f.json` or `apfp factor f.json --seed 1`;
    # SUPPRESS keeps a later subparser from clobbering an earlier value
    common = argparse.ArgumentParser(add_help=False)
    for f in fields(OptimizerConfig):
        flag = "--" + f.name.replace("_", "-")
        common.add_argument(flag, type=type(f.default), default=argparse.SUPPRESS)
    common.add_argument("--output", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--out", metavar="FILE", default=argparse.SUPPRESS)
    common.add_argument(
        "--tol",
        action="append",
        default=argparse.SUPPRESS,
        metavar="NAME=VALUE",
        help="named tolerance override, repeatable",
    )

    p = argparse.ArgumentParser(
        prog="apfp",
        parents=[common],
        description="Numerical laboratory for approximate positive factorization in block matrix algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("det-path", parents=[common], help="determinant of a path of invertibles")
    d.add_argument("path_file")

    f = sub.add_parser("factor", parents=[common], help="factor an invertible into positive elements")
    f.add_argument("element_file")
    f.add_argument("--factors", type=int, default=5, metavar="M")

    m = sub.add_parser("membership", parents=[common], help="decide membership in the closure of P(A)")
    m.add_argument("element_file")

    c = sub.add_parser("check", parents=[common], help="evaluate the four characterization conditions")
    c.add_argument("descriptor_file")

    dm = sub.add_parser("demo", parents=[common], help="run a bundled end-to-end scenario")
    dm.add_argument("--name", required=True, choices=sorted(DEMOS))
    return p


def _config_from_args(args) -> RunConfig:
    get = lambda name, default: getattr(args, name, default)
    tols = {}
    for entry in get("tol", []):
        if "=" not in entry:
            raise ValueError(f"bad --tol {entry!r}, expected NAME=VALUE")
        name, val = entry.split("=", 1)
        name = name.strip()
        if name not in TOLERANCES:
            known = ", ".join(TOLERANCES)
            raise ValueError(f"unknown --tol name {name!r}, expected one of {known}")
        tols[name] = float(val)
        if not 0 <= tols[name] < np.inf:
            raise ValueError(f"--tol {name} must be finite and non-negative, got {tols[name]}")
    if get("factors", 1) < 1:
        raise ValueError(f"--factors must be at least 1, got {get('factors', 1)}")
    given = {f.name: getattr(args, f.name) for f in fields(OptimizerConfig) if hasattr(args, f.name)}
    return RunConfig(
        tolerances=tols,
        optimizer=OptimizerConfig(**given),
        output_format=get("output", "json"),
    )


def _read_json(path):
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # longer than int() reads; RecursionError, arrays nested past the stack
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise _ParseError(str(exc)) from exc


class _ParseError(Exception):
    pass


def _load(path, from_obj, what):
    """from_obj applied to the JSON in path; _ParseError naming what on failure."""
    obj = _read_json(path)
    try:
        return from_obj(obj)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, DescriptorMismatch) as exc:
        raise _ParseError(f"bad {what} file: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_det_path(args, config: RunConfig):
    path = _load(args.path_file, serialize.path_from_obj, "path")
    det = path_determinant(path)
    t1, t2 = path.domain
    # one stack of the 9 values and their singular values decides the
    # three flags; the first and last points are exactly t1 and t2
    grid = evaluate_many(path, np.linspace(t1, t2, 9))
    endpoint_tol = config.tol("loop_endpoint")
    endpoints_identity = _identity_at([b[[0, -1]] for b in grid.blocks], endpoint_tol)
    unitary = not _unitarity_defects(grid.svals).any()
    positive = _positive_at(grid.blocks, 1e-8 * np.maximum(1.0, _op_norms(grid.svals)))
    results = {
        "determinant": serialize.trace_value_to_obj(det),
        "canonical_representative": serialize.trace_value_to_obj(lattice_reduce(det)),
        "lattice_rank": path.algebra.rank,
        "lattice_distance": lattice_distance(det),
        "is_loop": endpoints_identity,
        "is_unitary": unitary,
        "is_positive": positive,
    }
    if endpoints_identity and unitary:
        f = delta_1_0(path, endpoint_tol=endpoint_tol)
        results["delta_1_0"] = {
            **serialize.aff_function_to_obj(f),
            "imag_residual": max(abs(c.real) / (2 * np.pi) for c in det.coords),
        }
    return results, EXIT_OK


def _cmd_factor(args, config: RunConfig):
    x = _load(args.element_file, serialize.element_from_obj, "element")
    # the default tolerance: the one factor_positive_products enforces
    member = membership_test(x)
    results = {
        "member": member.member,
        "det_phases": list(member.det_phases),
        "factors_requested": args.factors,
    }
    if not member:
        distance, closure, route = _distance_probe(x, args.factors, config.optimizer)
        if closure is None:
            raise NonFiniteValue("the distance to the closure overflows")
        results["distance_probe"] = distance
        results["distance_to_closure"] = closure.distance
        # how the distance was reached goes to provenance: results stay the answer
        return results, EXIT_NOT_IN_CLOSURE, {"distance": {"route": route}}
    try:
        fac = factor_positive_products(x, args.factors, config.optimizer)
    except NoConvergence as exc:
        # inf when no restart gave finite positive factors; null keeps the
        # report strict JSON
        best = float(exc.best_residual)
        results["best_residual"] = best if np.isfinite(best) else None
        return results, EXIT_NO_CONVERGENCE
    results["factorization"] = serialize.factorization_to_obj(fac)
    # how the factors were found goes to provenance: results stay the answer
    route = {"route": fac.route, "max_factor_norm": fac.max_factor_norm}
    return results, EXIT_OK, {"factorization": route}


def _cmd_membership(args, config: RunConfig):
    x = _load(args.element_file, serialize.element_from_obj, "element")
    member = membership_test(x, config.tol("membership"))
    results = {
        "member": member.member,
        "det_phases": list(member.det_phases),
        "tol": member.tol,
    }
    return results, EXIT_OK


def _cmd_check(args, config: RunConfig):
    desc = _load(args.descriptor_file, serialize.descriptor_from_obj, "descriptor")
    check = check_conditions if isinstance(desc, AlgebraDescriptor) else check_abstract
    return serialize.condition_report_to_obj(check(desc)), EXIT_OK


# ---------------------------------------------------------------------------
# demos: end-to-end scenarios with their invariants asserted


def _demo_splitting(config: RunConfig):
    alg = AlgebraDescriptor((2, 3))
    rng = rng_from((config.optimizer.seed, 202))
    c = random_self_adjoint(alg, rng, norm=1.4)
    d = random_self_adjoint(alg, rng, norm=0.9)
    split = split_into_exponentials(ProductPolar(c, d))
    qn = quotient_norm(split.trace_sum())
    recon = op_norm(split.reconstruct() - split.endpoint)
    if qn > 1e-7:
        raise _DemoFailure(f"trace sum quotient norm {qn:.3e} exceeds 1e-7")
    if recon > 1e-8:
        raise _DemoFailure(f"endpoint reconstruction error {recon:.3e} exceeds 1e-8")
    return {
        "segments": len(split.logs),
        "trace_sum_quotient_norm": qn,
        "endpoint_reconstruction_error": recon,
    }


def _demo_commutator(config: RunConfig):
    alg = AlgebraDescriptor((4,))
    rng = rng_from((config.optimizer.seed, 303))
    u = random_special_unitary(alg, rng)
    v, w = commutator_factor_su(u)
    err = op_norm(v @ w @ adjoint(v) @ adjoint(w) - u)
    if err > 1e-8:
        raise _DemoFailure(f"commutator reconstruction error {err:.3e} exceeds 1e-8")
    return {"block_size": 4, "reconstruction_error": err}


def _demo_loop_lattice(config: RunConfig):
    alg = AlgebraDescriptor((2,))
    gen = np.zeros((2, 2), dtype=complex)
    gen[0, 0] = 2j * np.pi
    loop = ExpLine(Element(alg, (gen,)))
    det = path_determinant(loop)
    dist = lattice_distance(det)
    if dist > 1e-6:
        raise _DemoFailure(f"loop determinant misses the lattice by {dist:.3e}")
    pc = pairing_consistency(alg, loop)
    if not pc:
        raise _DemoFailure("loop invariant misses the pairing range")
    return {
        "determinant": serialize.trace_value_to_obj(det),
        "lattice_distance": dist,
        "nearest_vector": list(pc.nearest_vector),
        "pairing_distance": pc.distance,
    }


DEMOS = {
    "splitting-trace-zero": _demo_splitting,
    "commutator-witness": _demo_commutator,
    "loop-lattice": _demo_loop_lattice,
}


def _cmd_demo(args, config: RunConfig):
    try:
        results = DEMOS[args.name](config)
    except _DemoFailure as exc:
        return {"demo": args.name, "passed": False, "reason": str(exc)}, EXIT_DEMO_FAILURE
    return {"demo": args.name, "passed": True, **results}, EXIT_OK


# ---------------------------------------------------------------------------
# driver


def _emit(report, config: RunConfig, out_file):
    if config.output_format == "csv":
        text = serialize.payload_to_csv(report["results"])
    else:
        text = serialize.report_to_json(report) + "\n"
    if out_file:
        with open(out_file, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize everything else
        return EXIT_PARSE if exc.code not in (0,) else 0
    started = time.perf_counter()
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE

    handlers = {
        "det-path": _cmd_det_path,
        "factor": _cmd_factor,
        "membership": _cmd_membership,
        "check": _cmd_check,
        "demo": _cmd_demo,
    }
    try:
        results, code, *extra = handlers[args.command](args, config)
    except (_ParseError, InconsistentFlags) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except RankTooHighForDensity as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RANK_TOO_HIGH
    except (APFPError, np.linalg.LinAlgError) as exc:
        # the search lets LinAlgError through: exp can overflow in its polish
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERIC

    report = {
        "results": results,
        "provenance": {
            "command": args.command,
            "seed": config.optimizer.seed,
            "tolerances": config.tolerances,
            "optimizer": {
                f.name: getattr(config.optimizer, f.name)
                for f in fields(OptimizerConfig)
                if f.name != "seed"
            },
            "elapsed_seconds": time.perf_counter() - started,
        },
    }
    for more in extra:
        report["provenance"].update(more)
    _emit(report, config, getattr(args, "out", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
