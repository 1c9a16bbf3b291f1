"""The four-condition characterization checker.

For a concrete block algebra the conditions (no finite-dimensional
representations, stable rank one, trivial K1, dense pairing range) are
closed-form facts: the two that fail are computed with a witness, and the
two that hold for every block algebra (GL_n dense in M_n, K1 trivial) are
asserted.  For abstract descriptors the only computation is the density
of the K0 pairing range, decided in exact rational arithmetic for rank
one with a single symbolic irrational; everything else is asserted data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import AffFunction, AlgebraDescriptor
from .determinant import delta_1_0
from .errors import InconsistentFlags, RankMismatch, RankTooHighForDensity

CONDITION_NAMES = ("no_findim_reps", "stable_rank_one", "k1_trivial", "rho_dense")


@dataclass(frozen=True)
class TraceSimplex:
    """Tracial states of a block algebra; the extreme points are the
    normalized block traces tr(x_i)/n_i."""

    algebra: AlgebraDescriptor

    @property
    def rank(self) -> int:
        return self.algebra.rank


@dataclass(frozen=True)
class K0Data:
    """K0 pairing data of an abstract descriptor: its rank and, when
    known, a finite list of generator images a + b*theta with exact
    rational a, b and theta a fixed symbolic irrational."""

    rank: int
    generators: Optional[tuple[tuple[Fraction, Fraction], ...]] = None


@dataclass(frozen=True)
class ConditionCheck:
    value: bool
    source: str  # "computed" or "asserted"
    witness: object = None

    def __bool__(self):
        return self.value


@dataclass(frozen=True)
class ConditionReport:
    no_findim_reps: ConditionCheck
    stable_rank_one: ConditionCheck
    k1_trivial: ConditionCheck
    rho_dense: ConditionCheck
    apfp_verdict: bool

    def __post_init__(self):
        expect = all(
            getattr(self, name).value for name in CONDITION_NAMES
        )
        if self.apfp_verdict != expect:
            raise InconsistentFlags("verdict must be the conjunction of the four conditions")

    def failing_set(self) -> frozenset:
        return frozenset(
            name for name in CONDITION_NAMES if not getattr(self, name).value
        )

    def __bool__(self):
        return self.apfp_verdict


def _report(no_findim, sr1, k1, dense) -> ConditionReport:
    verdict = all(c.value for c in (no_findim, sr1, k1, dense))
    return ConditionReport(no_findim, sr1, k1, dense, verdict)


# ---------------------------------------------------------------------------
# the pairing


def rho(g: Sequence[int], simplex: TraceSimplex) -> AffFunction:
    """The pairing of an integer K0 vector with the extreme traces:
    value g_i / n_i at the i-th extreme point, exactly."""
    g = tuple(int(v) for v in g)
    if len(g) != simplex.rank:
        raise RankMismatch(f"vector length {len(g)} != rank {simplex.rank}")
    return AffFunction(
        tuple(Fraction(gi, n) for gi, n in zip(g, simplex.algebra.block_sizes))
    )


def rho_image_distance(f: AffFunction, alg: AlgebraDescriptor):
    """Exact max-norm distance from f (rational values) to the pairing
    range, together with the nearest integer vector.  Coordinates are
    independent: the range is the product of the lattices (1/n_i) Z."""
    nearest = []
    dist = Fraction(0)
    for v, n in zip(f.values, alg.block_sizes):
        v = Fraction(v)
        g = round(v * n)  # round-half-even; at a tie either side is nearest
        nearest.append(g)
        dist = max(dist, abs(v - Fraction(g, n)))
    return dist, tuple(nearest)


# ---------------------------------------------------------------------------
# concrete block algebras


def check_conditions(alg: AlgebraDescriptor) -> ConditionReport:
    """Evaluate the four conditions for a concrete block algebra.

    Finite-dimensional algebras always fail exactly two conditions: they
    have finite-dimensional representations (the identity one), and the
    pairing range (1/n_1) Z x ... x (1/n_k) Z is closed, never dense.
    """
    dim = sum(alg.block_sizes)
    no_findim = ConditionCheck(
        False,
        "computed",
        witness={
            "representation": "identity",
            "dimension": dim,
            "note": "the algebra acts on itself, a nonzero finite dimensional representation",
        },
    )
    sr1 = ConditionCheck(
        True,
        "asserted",
        witness="GL_n is dense in M_n: raise the zero singular values of a singular block",
    )
    k1 = ConditionCheck(
        True,
        "asserted",
        witness="K1 of a finite direct sum of matrix blocks is trivial",
    )
    # deep point of the pairing lattice: c_i = 1/(2 n_i) sits at max-norm
    # distance max_i 1/(2 n_i) from the range of rho
    deep = AffFunction(tuple(Fraction(1, 2 * n) for n in alg.block_sizes))
    dist, nearest = rho_image_distance(deep, alg)
    dense = ConditionCheck(
        False,
        "computed",
        witness={
            "function": [str(v) for v in deep.values],
            "distance": str(dist),
            "nearest_vector": list(nearest),
        },
    )
    return _report(no_findim, sr1, k1, dense)


# ---------------------------------------------------------------------------
# abstract descriptors


@dataclass(frozen=True)
class AbstractDescriptor:
    """User-supplied data for an algebra known only through its K-theory:
    three asserted flags plus the K0 pairing generators.  rho_dense may be
    asserted; at rank one it is computed and any assertion must agree."""

    k0: K0Data
    no_findim_reps: bool
    stable_rank_one: bool
    k1_trivial: bool
    rho_dense: Optional[bool] = None


def _density_rank_one(gens: tuple[tuple[Fraction, Fraction], ...]):
    """Decide density of the subgroup of R generated by {a_j + b_j theta}
    (theta irrational).  Dense iff not cyclic iff some pair of generators
    is non-parallel as rational vectors (a_j, b_j)."""
    nonzero = [g for g in gens if g[0] != 0 or g[1] != 0]
    for i in range(len(nonzero)):
        ai, bi = nonzero[i]
        for j in range(i + 1, len(nonzero)):
            aj, bj = nonzero[j]
            if ai * bj - aj * bi != 0:
                return True, {"non_parallel_pair": [[str(ai), str(bi)], [str(aj), str(bj)]]}
    if not nonzero:
        return False, {"cyclic_generator": ["0", "0"]}
    a0, b0 = nonzero[0]
    ratios = [(a / a0 if a0 != 0 else b / b0) for a, b in nonzero]
    den = math.lcm(*(r.denominator for r in ratios))
    num = math.gcd(*(int(r * den) for r in ratios))
    r = Fraction(num, den)
    return False, {"cyclic_generator": [str(r * a0), str(r * b0)]}


def check_abstract(desc: AbstractDescriptor) -> ConditionReport:
    """Conditions for an abstract descriptor; the density of the pairing
    range is the only computation."""
    k0 = desc.k0
    if k0.rank == 1 and k0.generators is not None:
        dense_val, witness = _density_rank_one(k0.generators)
        if desc.rho_dense is not None and desc.rho_dense != dense_val:
            raise InconsistentFlags(
                f"rho_dense asserted {desc.rho_dense} but computed {dense_val}"
            )
        dense = ConditionCheck(dense_val, "computed", witness)
    elif desc.rho_dense is not None:
        dense = ConditionCheck(desc.rho_dense, "asserted", None)
    else:
        raise RankTooHighForDensity(
            f"density at rank {k0.rank} must be asserted (only rank 1 is decidable here)"
        )
    return _report(
        ConditionCheck(desc.no_findim_reps, "asserted"),
        ConditionCheck(desc.stable_rank_one, "asserted"),
        ConditionCheck(desc.k1_trivial, "asserted"),
        dense,
    )


# ---------------------------------------------------------------------------
# loops against the pairing range


@dataclass(frozen=True)
class PairingCheck:
    consistent: bool
    nearest_vector: tuple[int, ...]
    distance: float
    function: AffFunction

    def __bool__(self):
        return self.consistent


PAIRING_TOL = 1e-6


def pairing_consistency(alg: AlgebraDescriptor, loop) -> PairingCheck:
    """Check that the loop invariant lands within PAIRING_TOL of the
    pairing range of K0, with the exact distance and nearest vector of
    rho_image_distance."""
    f = delta_1_0(loop)
    dist, nearest = rho_image_distance(f, alg)
    return PairingCheck(dist <= PAIRING_TOL, nearest, float(dist), f)
