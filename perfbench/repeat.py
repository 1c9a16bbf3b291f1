"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload determinants --seeds 1-10 --seconds 20
    python3 perfbench/repeat.py --workload determinants --seeds 11-20 --trace 1

Runs are sequential, one process each.  Every run's result line is kept
in perfbench/results/<workload>-trace<t>-seeds<first>-<last>.json, and
for each metric the median, the quartiles (statistics.quantiles, n=4)
and the spread, (q3 - q1) / median, are printed, with the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(results):
    names = list(results[0]["metrics"])
    rows = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
        }
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="first-last")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", args.seconds,
                "--trace", args.trace,
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["info"] = json.loads(lines[-2])["info"]
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} ({share:.4f})", flush=True)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    summary = summarize(results)
    with open(os.path.join(HERE, "results", name), "w") as fh:
        json.dump({"runs": results, "summary": summary}, fh, indent=1)
    for metric, row in summary.items():
        print(
            f"{metric:58s} {row['median']:.6g} {row['unit']}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
