"""Seeded random cone generation with prescribed multiplicity.

Cones are produced as upper-triangular matrices in Hermite-style shape: the
diagonal is a random factorization of the requested determinant, entries
above each pivot are reduced modulo it, and 2 * dim random shears hide the
triangular structure without changing the lattice data.  The generator
stream is a pure function of (seed, dim, det, index).
"""

from __future__ import annotations

import random

from . import exact
from .cones import SimplicialCone
from .errors import PreconditionError


def _factor(m: int):
    factors = []
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.append(d)
            m //= d
        d += 1
    if m > 1:
        factors.append(m)
    return factors


def random_cone(dim: int, det: int, rng: random.Random):
    """Random full-dimensional cone in Z^dim with multiplicity exactly det."""
    if dim < 1 or det < 1:
        raise PreconditionError("dimension and determinant must be positive")
    diag = [1] * dim
    for p in _factor(det):
        diag[rng.randrange(dim)] *= p
    rows = [[0] * dim for _ in range(dim)]
    for j in range(dim):
        rows[j][j] = diag[j]
        for i in range(j):
            rows[i][j] = rng.randrange(diag[j])
    # Shear row operations only: determinant and lattice index are preserved.
    for _ in range(2 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return SimplicialCone(exact.columns(exact.freeze(rows)))


def seeded_rng(seed, dim: int, det: int, index: int) -> random.Random:
    """Independent deterministic stream per experiment cell entry."""
    return random.Random(f"{seed}:{dim}:{det}:{index}")
