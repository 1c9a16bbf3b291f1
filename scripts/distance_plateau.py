#!/usr/bin/env python3
"""Sweep the factor count m for determinant-obstructed unitaries and
record their distance to products of m positives.

The interesting observation: the distance does not decay with m.  For
diag(1,-1) in M2 it plateaus at 1, the same value that is analytically
forced for -1 in M1; for both the closed-form distance to the closure
is 1 with a positive witness, so every value is exact and no search runs.
"""

import argparse
import csv
import sys

import numpy as np

from apfp import AlgebraDescriptor, Element, OptimizerConfig, best_approx_distance


def targets():
    yield "diag(1,-1) in M2", Element(
        AlgebraDescriptor((2,)), (np.diag([1.0, -1.0]).astype(complex),)
    )
    yield "-1 in M1", Element(AlgebraDescriptor((1,)), (np.array([[-1.0 + 0j]]),))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ms", type=int, nargs="+", default=[1, 2, 3, 5, 8])
    parser.add_argument("--restarts", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="-", help="CSV destination, - for stdout")
    args = parser.parse_args()

    opt = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    rows = []
    for label, x in targets():
        for m in args.ms:
            d = best_approx_distance(x, m=m, opt=opt)
            rows.append({"target": label, "m": m, "distance": repr(d)})
            print(f"{label}  m={m:2d}  distance={d:.9f}", file=sys.stderr)

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=["target", "m", "distance"])
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
