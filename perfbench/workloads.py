"""The three workloads: their seeded inputs, their jobs and their checks.

A workload is a list of rounds; a round is a fixed list of jobs with the
same make-up in every round, and only its inputs differ from round to
round.  Inputs come from `apfp.sampling` with the generator seeded by
(seed, workload tag, round, slot), and are written to files with
`apfp.serialize`, so a path's `kind` is spelled the way the program
reads it.  A job's `call` is the timed call into the program through a
public entry point, looked up on its module at call time; its `check`
is untimed and uses `checks` alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

import apfp.cli as cli
import apfp.determinant as determinant
import apfp.factorization as factorization
from apfp import serialize
from apfp.algebra import AlgebraDescriptor, Element, op_norm
from apfp.determinant import Concatenation, ExpLine, PointwiseProduct, ProductPolar, Reversal, Sampled
from apfp.sampling import (
    random_element,
    random_member,
    random_self_adjoint,
    rng_from,
)

import checks

M1 = AlgebraDescriptor((1,))
M2 = AlgebraDescriptor((2,))
M2_M3 = AlgebraDescriptor((2, 3))

TAGS = {"factor-members": 1, "distance-probe": 2, "determinants": 3}
WARMUP_SEED = 2103


class ExitCode(Exception):
    """`apfp.cli.main` returned an exit code that carries no result."""


@dataclass
class Job:
    kind: str
    call: Callable[[str], object]  # uid -> value, timed; raising means failed
    check: Callable[[object], None]  # value -> None or CheckFailed, untimed


def blocks(x: Element):
    return [np.asarray(b) for b in x.blocks]


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def cli_job(kind, workdir, name, obj, argv, check, ok_codes=(0,)):
    """`apfp <argv[0]> <input file> <argv[1:]> --out <file>` through
    `apfp.cli.main`; check(code, report) sees the report read back."""
    src = os.path.join(workdir, "in", name + ".json")
    write_json(src, obj)

    def call(uid):
        out = os.path.join(workdir, "out", uid + ".json")
        code = cli.main([argv[0], src, *argv[1:], "--out", out])
        if code not in ok_codes:
            raise ExitCode(f"exit code {code}")
        return code, out

    def verify(value):
        code, out = value
        check(code, checks.load_report(out))

    return Job(kind, call, verify)


# ---------------------------------------------------------------------------
# factor-members: the optimizer's early-stopping route


FACTORS = 5
# M2 members only: some M3 and M2+M3 members raise NoConvergence (see
# CHANGES.md), which would make the failed share depend on the seed.
MEMBERS = 16


def factor_job(workdir, name, x):
    xb = blocks(x)
    return cli_job(
        f"factor/{'+'.join(f'M{n}' for n in x.algebra.block_sizes)}",
        workdir,
        name,
        serialize.element_to_obj(x),
        ["factor", "--factors", str(FACTORS)],
        lambda code, report: checks.check_factorization(xb, code, report, FACTORS),
    )


def factor_members_round(seed, r, workdir):
    return [
        factor_job(workdir, f"r{r}-s{slot}", random_member(M2, rng_from((seed, TAGS["factor-members"], r, slot))))
        for slot in range(MEMBERS)
    ]


# ---------------------------------------------------------------------------
# distance-probe: every restart runs, then the op-norm polish


PROBE_FACTORS = 3
PROBE_RESTARTS = 2
# random_element(M2, rng_from(4)) overflows exp in the op-norm polish and
# raises LinAlgError out of main at these settings; kept once per round
# until the program survives it.
FAILING_SEED = 4
FAILING_RESTARTS = 4


def probe_job(workdir, name, x, factors, restarts, expected=None, expected_tol=None):
    xb = blocks(x)
    return cli_job(
        f"probe/{name.split('-')[-1]}",
        workdir,
        name,
        serialize.element_to_obj(x),
        ["factor", "--factors", str(factors), "--restarts", str(restarts)],
        lambda code, report: checks.check_distance_probe(
            xb, code, report, expected, expected_tol
        ),
        ok_codes=(4,),
    )


# Seeded non-members of M2 and M2+M3 are left out: in every family tried,
# some seeds raise LinAlgError (see CHANGES.md), which would make the
# failed share depend on the seed.  Scalars in M1 never did in 200 seeds.
SCALARS = 8


def distance_probe_round(seed, r, workdir):
    """diag(1, -1) in M2 and -1 in M1, whose distance to the closure is 1,
    SCALARS seeded complex scalars, and the failing input."""
    tag = TAGS["distance-probe"]
    flip = Element(M2, (np.diag([1.0, -1.0]).astype(complex),))
    minus_one = Element(M1, (np.array([[-1.0]], dtype=complex),))
    jobs = [
        probe_job(workdir, f"r{r}-diag", flip, PROBE_FACTORS, PROBE_RESTARTS, 1.0, 1e-2),
        probe_job(workdir, f"r{r}-minus1", minus_one, PROBE_FACTORS, PROBE_RESTARTS, 1.0, 1e-6),
    ]
    for slot in range(SCALARS):
        x = random_element(M1, rng_from((seed, tag, r, slot)))
        jobs.append(probe_job(workdir, f"r{r}-{slot}-scalar", x, PROBE_FACTORS, PROBE_RESTARTS))
    x = random_element(M2, rng_from(FAILING_SEED))
    jobs.append(probe_job(workdir, f"r{r}-linalgerror", x, PROBE_FACTORS, FAILING_RESTARTS))
    return jobs


# ---------------------------------------------------------------------------
# determinants: quadrature and the element determinant


def polar_pair(rng):
    """Self-adjoint c, d in M2+M3 with norms drawn from [1, 2]."""
    c = random_self_adjoint(M2_M3, rng, norm=float(rng.uniform(1.0, 2.0)))
    d = random_self_adjoint(M2_M3, rng, norm=float(rng.uniform(1.0, 2.0)))
    return c, d


def det_path_job(workdir, name, path, check):
    return cli_job(
        f"det-path/{name.split('-')[-1]}",
        workdir,
        name,
        serialize.path_to_obj(path),
        ["det-path"],
        check,
    )


def value_check(want, tol):
    return lambda code, report: checks.check_path_value(code, report, want, tol)


def product_samples(c, d, segments):
    """Samples of t -> e^{tc} e^{td} at segments + 1 equally spaced t."""
    out = []
    for t in np.linspace(0.0, 1.0, segments + 1):
        g = [
            scipy.linalg.expm(t * cb) @ scipy.linalg.expm(t * db)
            for cb, db in zip(c.blocks, d.blocks)
        ]
        out.append((float(t), Element(c.algebra, tuple(g))))
    return out


def determinants_round(seed, r, workdir):
    tag = TAGS["determinants"]
    rngs = [rng_from((seed, tag, r, slot)) for slot in range(11)]
    jobs = []

    def gen(rng, scale=0.5):
        return random_element(M2_M3, rng, scale=scale)

    def tr(x):
        return checks.traces(blocks(x))

    c = gen(rngs[0])
    jobs.append(det_path_job(workdir, f"r{r}-ExpLine", ExpLine(c), value_check(tr(c), 1e-8)))

    c, d = polar_pair(rngs[1])
    jobs.append(
        det_path_job(workdir, f"r{r}-ProductPolar", ProductPolar(c, d), checks.check_polar_path)
    )

    # with ||c|| = ||d|| = 1/2 every step of 8 is within e (e^{1/8} - 1)
    # < 1/2 of the identity, as Sampled requires
    c, d = (0.5 / op_norm(v) * v for v in (gen(rngs[2]), gen(rngs[2])))
    samples = product_samples(c, d, 8)
    want = checks.sampled_determinant([blocks(v) for _, v in samples])
    jobs.append(det_path_job(workdir, f"r{r}-Sampled", Sampled(tuple(samples)), value_check(want, 1e-8)))

    c1, c2 = gen(rngs[3]), gen(rngs[3])
    want = [a + b for a, b in zip(tr(c1), tr(c2))]
    jobs.append(
        det_path_job(
            workdir, f"r{r}-PointwiseProduct", PointwiseProduct(ExpLine(c1), ExpLine(c2)), value_check(want, 2e-9)
        )
    )
    c1, c2 = gen(rngs[4]), gen(rngs[4])
    want = [a + b for a, b in zip(tr(c1), tr(c2))]
    jobs.append(
        det_path_job(
            workdir, f"r{r}-Concatenation", Concatenation(ExpLine(c1), ExpLine(c2)), value_check(want, 2e-9)
        )
    )
    c = gen(rngs[5])
    jobs.append(
        det_path_job(workdir, f"r{r}-Reversal", Reversal(ExpLine(c)), value_check([-t for t in tr(c)], 2e-9))
    )

    windings = [int(w) for w in rngs[6].integers(-3, 4, size=M2_M3.rank)]
    gens = []
    for w, n in zip(windings, M2_M3.block_sizes):
        g = np.zeros((n, n), dtype=complex)
        g[0, 0] = 2j * np.pi * w
        gens.append(g)
    loop = ExpLine(Element(M2_M3, tuple(gens)))
    jobs.append(
        det_path_job(
            workdir,
            f"r{r}-loop",
            loop,
            lambda code, report, w=windings: checks.check_loop(code, report, w, M2_M3.block_sizes),
        )
    )

    for slot, x in ((7, gen(rngs[7], 1.0)), (8, random_member(M2_M3, rngs[8]))):
        xb = blocks(x)
        jobs.append(
            cli_job(
                "membership",
                workdir,
                f"r{r}-membership{slot}",
                serialize.element_to_obj(x),
                ["membership"],
                lambda code, report, xb=xb: checks.check_membership(xb, code, report),
            )
        )

    x = gen(rngs[9], 1.0)
    xb = blocks(x)
    jobs.append(
        Job(
            "determinant_mod_lattice",
            lambda uid, x=x: determinant.determinant_mod_lattice(x),
            lambda value, xb=xb: checks.check_element_determinant(xb, value.coords),
        )
    )

    c, d = polar_pair(rngs[10])
    path = ProductPolar(c, d)
    cb, db = blocks(c), blocks(d)
    jobs.append(
        Job(
            "split_into_exponentials",
            lambda uid, path=path: factorization.split_into_exponentials(path),
            lambda value, cb=cb, db=db: checks.check_splitting(
                cb, db, [blocks(h) for h in value.logs]
            ),
        )
    )
    return jobs


ROUND_BUILDERS = {
    "factor-members": factor_members_round,
    "distance-probe": distance_probe_round,
    "determinants": determinants_round,
}


def build_rounds(workload, seed, workdir, count):
    for sub in ("in", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    return [ROUND_BUILDERS[workload](seed, r, workdir) for r in range(count)]


def warmup_job(workload, workdir):
    """The first job of a round on fixed inputs, the same for every seed."""
    return build_rounds(workload, WARMUP_SEED, workdir, 1)[0][0]
