"""Exact Fourier-Motzkin feasibility on small systems."""

import random
from fractions import Fraction

from conekit import exact, feasibility, gen, oracle
from conekit.cones import SimplicialCone


def test_single_variable_bounds():
    assert feasibility.fm_feasible([((1,), 2), ((-1,), -3)], 1)  # 2 <= x <= 3
    assert not feasibility.fm_feasible([((1,), 3), ((-1,), -2)], 1)


def test_two_variables():
    # x >= 1, y >= 1, -x - y >= -1 is infeasible.
    assert not feasibility.fm_feasible(
        [((1, 0), 1), ((0, 1), 1), ((-1, -1), -1)], 2
    )
    assert feasibility.fm_feasible(
        [((1, 0), 1), ((0, 1), 1), ((-1, -1), -3)], 2
    )


def test_rational_coefficients():
    assert feasibility.fm_feasible(
        [((Fraction(1, 2), 0), 1), ((-1, 0), -2), ((0, 1), 0)], 2
    )
    assert not feasibility.fm_feasible(
        [((Fraction(1, 2), 0), 2), ((-1, 0), -3), ((0, 1), 0)], 2
    )


def test_trivial_contradiction():
    assert not feasibility.fm_feasible([((0, 0), 1)], 2)
    assert feasibility.fm_feasible([((0, 0), 0)], 2)
    assert feasibility.fm_feasible([], 2)


def _inverse(cone):
    return exact.rat_inverse(cone.matrix)


def _adjugate_rows(cone):
    """|det R| * R^{-1}: integer rows, positive multiples of the inverse's."""
    return exact.scaled_inverse(cone.matrix)[1]


def test_open_cones_intersect():
    a = SimplicialCone(((1, 0), (1, 2)))
    b = SimplicialCone(((1, 1), (0, 1)))
    c = SimplicialCone(((0, 1), (-1, 0)))
    # The interiors of a and b overlap where x < y < 2x.
    assert feasibility.open_cones_intersect(_inverse(a), _inverse(b))
    # a and c touch only along a boundary ray at most.
    assert not feasibility.open_cones_intersect(_inverse(a), _inverse(c))
    # A cone always meets itself.
    assert feasibility.open_cones_intersect(_inverse(a), _inverse(a))


def test_open_cones_disjoint_halves():
    a = SimplicialCone(((1, 0), (1, 1)))
    b = SimplicialCone(((1, 1), (0, 1)))
    # The two halves of the first quadrant split along (1, 1): interiors
    # are disjoint even though they share the diagonal ray.
    assert not feasibility.open_cones_intersect(_inverse(a), _inverse(b))


def test_fourier_motzkin_agrees_with_basic_solutions():
    # Two independent open-cone intersection tests, Fourier-Motzkin
    # elimination and the oracle's basic-solution enumeration, agree on
    # random full-dimensional cone pairs, on the two halves of a cone split
    # along g0 + g1 (a shared facet, disjoint interiors) and on a cone with
    # one of its halves; both verdicts must occur.  Both run on the integer
    # adjugate rows; Fourier-Motzkin also runs on the rational inverses, the
    # input the benchmark probes it with.
    rng = random.Random(61)
    verdicts = []
    for _ in range(40):
        dim = rng.randint(2, 4)
        r, s = (gen.random_cone(dim, rng.randint(1, 6), rng) for _ in range(2))
        g = r.generators
        mid = exact.vadd(g[0], g[1])
        left = SimplicialCone((g[0], mid) + g[2:])
        right = SimplicialCone((mid,) + g[1:])
        for a, b, expected in ((r, s, None), (left, right, False), (r, left, True)):
            rows_a, rows_b = _adjugate_rows(a), _adjugate_rows(b)
            fm = feasibility.open_cones_intersect(rows_a, rows_b)
            assert fm == feasibility.open_cones_intersect(_inverse(a), _inverse(b))
            assert fm == oracle._basic_solution_intersect(rows_a, rows_b)
            assert expected is None or fm == expected
            verdicts.append(fm)
    assert set(verdicts) == {True, False}
