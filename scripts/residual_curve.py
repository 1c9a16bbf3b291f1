#!/usr/bin/env python3
"""Residual of the best m-factor approximation for seeded random members
of the closure, as m grows.  From m = 4 on, members are factored in
closed form, essentially exactly; the optimizer runs only below four
factors, or where the construction fails."""

import argparse
import csv
import sys

from apfp import AlgebraDescriptor, OptimizerConfig, op_norm, residual_curve
from apfp.sampling import random_member, rng_from


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--block-sizes", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--ms", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--instances", type=int, default=3)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="-", help="CSV destination, - for stdout")
    args = parser.parse_args()

    alg = AlgebraDescriptor(tuple(args.block_sizes))
    opt = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    rows = []
    for k in range(args.instances):
        x = random_member(alg, rng_from((args.seed, k)))
        scale = op_norm(x)
        for m, res in residual_curve(x, args.ms, opt=opt):
            rows.append(
                {
                    "instance": k,
                    "m": m,
                    "residual": repr(res),
                    "relative_residual": repr(res / scale),
                }
            )
            print(f"instance {k}  m={m:2d}  relative={res / scale:.3e}", file=sys.stderr)

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.DictWriter(
            out, fieldnames=["instance", "m", "residual", "relative_residual"]
        )
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
