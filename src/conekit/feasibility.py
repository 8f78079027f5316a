"""Exact feasibility of small rational inequality systems.

Fourier-Motzkin elimination over exact rationals.  Constraints are kept in a
canonical integer form and deduplicated after every elimination step, the
variable with the fewest pairings is eliminated first, and the final
variable is resolved by comparing bounds directly, cross-multiplied.
Coefficients may be ints or `Fraction`s: the cover construction passes
integer adjugate rows, and `perfbench` probes the same routine with the
rational inverses of `exact.rat_inverse`.  Only meant for systems with a
handful of variables (open-cone intersection tests).
"""

from __future__ import annotations

from math import gcd, lcm

from . import exact


def _canonical(coeffs, rhs):
    """Scale a . x >= b by a positive rational into coprime integer form.

    Entries are ints or Fractions; both carry `numerator` and `denominator`.
    """
    scale = lcm(*(x.denominator for x in coeffs), rhs.denominator)
    ints = [x.numerator * (scale // x.denominator) for x in coeffs]
    b = rhs.numerator * (scale // rhs.denominator)
    g = gcd(*ints, b)
    if g > 1:
        ints = [x // g for x in ints]
        b //= g
    return tuple(ints), b


def fm_feasible(constraints, num_vars: int) -> bool:
    """Whether some x in R^num_vars satisfies a . x >= b for all (a, b) given."""
    system = set()
    for a, b in constraints:
        a, b = _canonical(a, b)
        if any(a):
            system.add((a, b))
        elif b > 0:
            return False
    alive = set(range(num_vars))
    while alive and system:
        counts = {}
        for v in alive:
            pos = sum(1 for a, _ in system if a[v] > 0)
            neg = sum(1 for a, _ in system if a[v] < 0)
            counts[v] = (pos * neg, pos + neg)
        var = min(alive, key=lambda v: counts[v])
        lowers = []  # x_var >= value expressions
        uppers = []
        rest = set()
        for a, b in system:
            if a[var] > 0:
                lowers.append((a, b))
            elif a[var] < 0:
                uppers.append((a, b))
            else:
                rest.add((a, b))
        alive.discard(var)
        if not alive:
            # Single variable left: every lower bound b1 / c1 must lie at or
            # below every upper bound b2 / a2[var] = -b2 / c2 (c1, c2 > 0).
            return all(
                b1 * -a2[var] + b2 * a1[var] <= 0
                for a1, b1 in lowers
                for a2, b2 in uppers
            )
        for a1, b1 in lowers:
            c1 = a1[var]
            for a2, b2 in uppers:
                c2 = -a2[var]
                combined = tuple(
                    c2 * x + c1 * y for x, y in zip(a1, a2)
                )
                rhs = c2 * b1 + c1 * b2
                combined, rhs = _canonical(combined, rhs)
                if any(combined):
                    rest.add((combined, rhs))
                elif rhs > 0:
                    return False
        system = rest
    return all(b <= 0 for a, b in system if not any(a)) if system else True


def open_cones_intersect(inv_a: exact.Matrix, inv_b: exact.Matrix) -> bool:
    """Whether the interiors of two full-dimensional simplicial cones meet.

    Arguments are the inverses of the generator matrices, rational, or
    scaled row by row by positive numbers such as the integer sign-normalised
    adjugates of `exact.scaled_inverse`; a point x is interior to a cone
    exactly when inv . x is strictly positive, and by homogeneity strict
    positivity is equivalent to inv . x >= 1 being feasible.
    """
    k = len(inv_a)
    constraints = [(row, 1) for row in inv_a] + [(row, 1) for row in inv_b]
    return fm_feasible(constraints, k)
