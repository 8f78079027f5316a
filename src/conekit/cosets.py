"""Dual-lattice coset structure of cone generators.

For each generator, the dual vector is classified by its coset modulo the
dual of the saturated lattice lin R cap Z^n.  In the saturation basis W the
dual of generator i pairs with W to row i of C^{-1} (R = W C), so its coset
label is row i of the integer matrix mult * C^{-1} reduced mod mult, read off
the cone context.  Generators in the trivial coset have an integral dual;
generators in a common non-trivial coset form equal pairs.  These two
situations are precisely what the decomposition recursion branches on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import cones
from .cones import SimplicialCone


@dataclass(frozen=True)
class CosetProfile:
    integral_flags: tuple  # per generator: dual lies in (lin R cap Z^n)^*
    equal_pairs: tuple  # (i, j) with i < j and dual difference integral
    nontrivial_class_count: int
    elementary_divisors: tuple  # of (lin R cap Z^n) / R Z^k
    cyclic: bool
    class_reps: tuple  # canonical coset label per generator (coords mod 1)


@lru_cache(maxsize=None)
def coset_profile(cone: SimplicialCone) -> CosetProfile:
    """Integrality flags, equal-coset pairs, and quotient group structure."""
    ctx = cones._context(cone)
    mult = ctx.mult
    labels = [tuple(x % mult for x in row) for row in ctx.coord_adj]
    k = cone.dim
    integral_flags = tuple(not any(label) for label in labels)
    equal_pairs = tuple(
        (i, j) for i in range(k) for j in range(i + 1, k) if labels[i] == labels[j]
    )
    nontrivial = len({label for label in labels if any(label)})
    divisors = ctx.divisors
    cyclic = sum(1 for d in divisors if d > 1) <= 1
    return CosetProfile(
        integral_flags=integral_flags,
        equal_pairs=equal_pairs,
        nontrivial_class_count=nontrivial,
        elementary_divisors=divisors,
        cyclic=cyclic,
        class_reps=tuple(
            tuple(Fraction(x, mult) for x in label) for label in labels
        ),
    )

