"""Benchmark of apfp end to end: `apfp factor`, `apfp det-path` and
`apfp membership` through `apfp.cli.main`, and the library calls
`determinant_mod_lattice` and `split_into_exponentials`.

    python3 perfbench/run.py --workload factor-members --seed 1 --seconds 20 --trace 0

One process runs a workload's rounds of jobs (see workloads.py) until
they have taken `--seconds` reference seconds and at least MIN_JOBS
have run, or WALL_CAP times `--seconds` of wall time has passed, always
whole rounds, then checks every output (checks.py) and prints one JSON
object as the last line of standard output; the line before it holds
the run's details, raw wall-clock figures and the machine.  With
`--trace 1` the same rounds run once more with spans around each
layer's public functions (tracing.py), and the per-layer figures are
printed instead.  `--smoke` runs one round with no time floor and no
repeated set-up.

Job times are reported in reference seconds: a job's CPU time scaled by
PROBE_REF_S over the CPU time of a fixed numpy probe run just before
and just after it.  CPU time leaves out the time the process waits for
a core that others hold; the probe cancels most of the drift in the
speed of a core on a shared machine; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("factor-members", "distance-probe", "determinants")
# the tail percentile needs ten jobs beyond it, so 40 jobs at least; the
# cost of a factor-members input varies most from seed to seed (a few
# take three to four times the median), so ten rounds of it
MIN_JOBS = {"factor-members": 160, "distance-probe": 40, "determinants": 40}
WALL_CAP = 3  # stop after the round that passes WALL_CAP * --seconds of wall time
SETUP_PROBES = 2  # fresh interpreters that repeat the set-up; with this one, 3 samples
POOL_ROUNDS = {"factor-members": 16, "distance-probe": 32, "determinants": 96}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "APFP_THREADS")
PROBE_REPS = 150
PROBE_REF_S = 3.0e-3  # the probe's time at the reference speed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one round, no time floor")
    # internal: time one set-up in this fresh interpreter and print it
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def speed_probe():
    """CPU seconds of a fixed piece of numpy work of the program's kind:
    PROBE_REPS eigendecompositions and exponentials of a 3x3 hermitian."""
    import numpy as np

    a = np.array([[2.0, 1 - 1j, 0.5j], [1 + 1j, -1.0, 0.25], [-0.5j, 0.25, 0.5]])
    t0 = time.process_time()
    for _ in range(PROBE_REPS):
        w, q = np.linalg.eigh(a)
        (q * np.exp(w)) @ q.conj().T
    return time.process_time() - t0


def timed_setup(workload, workdir):
    """Import apfp (numpy and scipy with it), then run one warm-up job on
    fixed inputs, in CPU seconds, unscaled: the probe, run after it, does
    not track the speed at which the import ran.  Returns (seconds,
    warm-up job, its value); the warm-up input is written between the two
    timings."""
    t0 = time.process_time()
    import apfp.cli  # noqa: F401

    imported = time.process_time() - t0
    import workloads

    job = workloads.warmup_job(workload, workdir)
    t1 = time.process_time()
    value = job.call("warmup")
    return imported + time.process_time() - t1, job, value


def probe_setup(workload, workdir):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe", workdir],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Record(NamedTuple):
    job: object
    value: object
    wall: float  # seconds
    cpu: float  # CPU seconds
    error: str | None


def run_job(job, uid):
    """(value, wall seconds, CPU seconds, error) of one timed call."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        value = job.call(uid)
    except Exception as exc:  # a job that raises counts as failed
        value, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None
    return value, time.perf_counter() - t0, time.process_time() - c0, error


def reference_seconds(records, probes):
    """Each job's CPU time scaled by PROBE_REF_S over the mean of the
    probes just before and just after it; probes[i] ran before job i."""
    return [
        rec.cpu * PROBE_REF_S / (0.5 * (probes[i] + probes[i + 1]))
        for i, rec in enumerate(records)
    ]


def run_phase(rounds, seconds, min_jobs, order=None, tracer=None):
    """Whole rounds until the jobs have taken `seconds` reference seconds
    and `min_jobs` have run, or WALL_CAP * `seconds` of wall time have
    passed, or exactly the rounds in `order`.  A speed probe runs before
    the first job and after each.  Returns (records, reference seconds
    of each, wall seconds, order, probes)."""
    records = []
    probes = [speed_probe()]
    done = []
    t0 = time.perf_counter()
    while True:
        if order is not None:
            if len(done) == len(order):
                break
            r = order[len(done)]
        else:
            if done and (
                (sum(reference_seconds(records, probes)) >= seconds and len(records) >= min_jobs)
                or time.perf_counter() - t0 >= WALL_CAP * seconds
            ):
                break
            r = len(done) % len(rounds)
        tag = "t" if tracer else "u"
        for slot, job in enumerate(rounds[r]):
            uid = f"{tag}{len(done)}-{slot}"
            if tracer:
                tracer.job = uid
            value, dt, cpu, error = run_job(job, uid)
            probes.append(speed_probe())
            records.append(Record(job, value, dt, cpu, error))
        done.append(r)
    return records, reference_seconds(records, probes), time.perf_counter() - t0, done, probes


def check_records(records, failures, wrong):
    """Runs every check; counts failed calls by reason in `failures`,
    appends wrong outputs to `wrong` and returns the number of jobs that
    returned and passed their checks."""
    ok = 0
    for rec in records:
        if rec.error is not None:
            key = f"{rec.job.kind}: {rec.error.splitlines()[0][:120]}"
            failures[key] = failures.get(key, 0) + 1
            continue
        try:
            rec.job.check(rec.value)
            ok += 1
        except Exception as exc:
            wrong.append(f"{rec.job.kind}: {type(exc).__name__}: {exc}")
    return ok


def job_figures(times, ok):
    """Throughput, median and tail of one list of job times."""
    times = sorted(times)
    out = {
        "ok_jobs_per_s": (ok / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
    }
    if len(times) >= 40:
        # the highest percentile with ten jobs beyond it
        out["job_s.tail"] = (times[len(times) - 11], "s")
    return out


def kind_medians(records):
    """Job count and median wall seconds per job kind."""
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.job.kind, []).append(rec.wall)
    return {k: [len(v), statistics.median(v)] for k, v in by_kind.items()}


def machine():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
    }


def main(argv=None):
    args = parse_args(argv)
    for v in THREAD_VARIABLES:
        os.environ[v] = "1"
    if not os.path.isfile(os.path.join(SRC, "apfp", "__init__.py")):
        sys.stderr.write(f"error: no apfp sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        seconds, _, _ = timed_setup(args.workload, args.setup_probe)
        print(repr(seconds))
        return 0

    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    setup, warm, warm_value = timed_setup(args.workload, os.path.join(workdir, "setup0"))
    import apfp
    import workloads

    if not os.path.abspath(apfp.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: apfp was imported from {apfp.__file__}, not {SRC}\n")
        return 2
    setup_samples = [setup]
    if not args.smoke:
        setup_samples += [
            probe_setup(args.workload, os.path.join(workdir, f"setup{k + 1}"))
            for k in range(SETUP_PROBES)
        ]

    rounds = workloads.build_rounds(
        args.workload, args.seed, workdir, 1 if args.smoke else POOL_ROUNDS[args.workload]
    )
    seconds, min_jobs = (0.0, 0) if args.smoke else (args.seconds, MIN_JOBS[args.workload])
    records, ref, wall, order, probes = run_phase(rounds, seconds, min_jobs)

    traced_records = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_records, traced_ref, _, _, _ = run_phase(rounds, 0.0, 0, order=order, tracer=tracer)
        finally:
            tracer.uninstall()
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json"))

    failures, wrong = {}, []
    ok = check_records(records, failures, wrong)
    check_records(traced_records, failures, wrong)
    try:
        warm.check(warm_value)
    except Exception as exc:
        wrong.append(f"warm-up {warm.kind}: {type(exc).__name__}: {exc}")

    if args.trace:
        metrics = tracer.layer_metrics(len(order))
        metrics["trace.overhead_pct"] = (100.0 * (sum(traced_ref) / sum(ref) - 1.0), "%")
    else:
        metrics = job_figures(ref, ok)
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    for w in wrong:
        sys.stderr.write(f"wrong output: {w}\n")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(order),
        "jobs_per_round": len(rounds[0]),
        "timed_phase_s": wall,
        "wall": {k: v for k, (v, _) in job_figures([r.wall for r in records], ok).items()},
        "cpu_over_wall": sum(r.cpu for r in records) / sum(r.wall for r in records),
        "probe_cpu_s": {"min": min(probes), "median": statistics.median(probes), "max": max(probes)},
        "setup_samples_s": setup_samples,
        "job_s_by_kind": kind_medians(records),
        "failures": failures,
        "wrong_outputs": len(wrong),
        "machine": machine(),
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(records) + len(traced_records),
                "failed": sum(failures.values()),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
