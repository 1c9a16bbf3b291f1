"""Seeded random elements for tests, demos and benchmarks.

Every generator takes an explicit numpy Generator so reproducibility is
the caller's choice, not hidden state.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor, Element, _herm, exp_element, op_norm


def rng_from(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaussian(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_element(alg: AlgebraDescriptor, rng, scale: float = 1.0) -> Element:
    return Element(alg, tuple(scale * _gaussian(rng, n) for n in alg.block_sizes))


def random_self_adjoint(alg: AlgebraDescriptor, rng, norm: float | None = None) -> Element:
    x = Element(alg, tuple(_herm(_gaussian(rng, n)) for n in alg.block_sizes))
    if norm is not None:
        x = (norm / op_norm(x)) * x
    return x


def random_unitary(alg: AlgebraDescriptor, rng) -> Element:
    """Haar unitary per block: QR with the R-diagonal phases divided out."""
    blocks = []
    for n in alg.block_sizes:
        q, r = np.linalg.qr(_gaussian(rng, n))
        d = np.diag(r)
        blocks.append(q * (d / np.abs(d)))
    return Element(alg, tuple(blocks))


def random_special_unitary(alg: AlgebraDescriptor, rng) -> Element:
    """Haar-like determinant-one unitary: divide out the determinant
    phase, then renormalize once more against roundoff."""
    blocks = []
    for b, n in zip(random_unitary(alg, rng).blocks, alg.block_sizes):
        u = b * np.exp(-1j * np.angle(np.linalg.det(b)) / n)
        u = u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)
        blocks.append(u)
    return Element(alg, tuple(blocks))


def random_positive(alg: AlgebraDescriptor, rng, spread: float = 1.0) -> Element:
    """exp of a random self-adjoint: positive definite, well conditioned."""
    return exp_element(spread * random_self_adjoint(alg, rng))


def random_member(alg: AlgebraDescriptor, rng, spread: float = 0.7) -> Element:
    """A random invertible with blockwise determinant phase zero: a
    determinant-one unitary times a positive invertible."""
    u = random_special_unitary(alg, rng)
    a = random_positive(alg, rng, spread)
    return Element(alg, tuple(ub @ ab for ub, ab in zip(u.blocks, a.blocks)))
