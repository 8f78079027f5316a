"""Structured cone families: skew, Gorenstein-type, and two-prime cones."""

import random
from fractions import Fraction

import pytest

from conekit import cones, exact, gen, oracle, special
from conekit.cones import SimplicialCone
from conekit.errors import PreconditionError

CONE_12 = SimplicialCone(((1, 0), (1, 2)))


def test_make_skew_cone_shape():
    cone, spec = special.make_skew_cone(4, (0, 1, 2, 4))
    assert cone.generators[:3] == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    )
    assert cone.generators[3] == (0, 1, 2, 4)
    assert spec.delta == 4
    assert cones.multiplicity(cone) == 4


def test_make_skew_cone_normalizes_offsets():
    _, spec = special.make_skew_cone(4, (5, -1, 2, 4))
    assert spec.r == (1, 3, 2, 4)
    assert spec.values == frozenset({1, 3, 2})


def test_make_skew_cone_preconditions():
    with pytest.raises(PreconditionError):
        special.make_skew_cone(4, (1, 2, 3))
    with pytest.raises(PreconditionError):
        special.make_skew_cone(3, (1, 2, 0))


def test_skew_classes_hypothesis_holds():
    _, spec = special.make_skew_cone(4, (0, 1, 2, 4))
    assert spec.hypothesis_holds
    report = special.check_skew_classes(spec)
    assert report.nontrivial_class_count == 3
    assert report.bound_applies
    assert report.cross_checks_ok


def test_skew_classes_single_class_cases():
    # All offsets zero: only the skew generator is in a non-trivial coset.
    _, spec = special.make_skew_cone(4, (0, 0, 0, 4))
    report = special.check_skew_classes(spec)
    assert report.nontrivial_class_count == 1
    assert report.cross_checks_ok

    # All offsets delta - 1: every generator shares the skew coset.
    _, spec = special.make_skew_cone(4, (3, 3, 3, 4))
    report = special.check_skew_classes(spec)
    assert report.nontrivial_class_count == 1
    assert report.cross_checks_ok


def test_skew_classes_hypothesis_fails():
    _, spec = special.make_skew_cone(5, (1, 2, 3, 4, 7))
    assert not spec.hypothesis_holds
    report = special.check_skew_classes(spec)
    assert report.nontrivial_class_count == 5
    assert not report.bound_applies
    assert report.cross_checks_ok


def test_skew_unimodular_degenerate():
    _, spec = special.make_skew_cone(3, (0, 0, 1))
    report = special.check_skew_classes(spec)
    assert report.nontrivial_class_count == 0
    assert report.cross_checks_ok


def test_gorenstein_unimodular():
    cone = SimplicialCone(((1, 0), (0, 1)))
    check = special.gorenstein_check(cone)
    assert check.lam == (Fraction(1), Fraction(1))
    assert check.y == (1, 1)
    assert check.premise_holds
    assert check.divisor_count == 1
    assert check.cyclic


def test_gorenstein_example():
    check = special.gorenstein_check(CONE_12)
    assert check.lam == (Fraction(1, 2), Fraction(1, 2))
    assert check.y == (1, 1)
    assert check.y_integral and check.y_interior and check.covering_sampled
    assert check.premise_holds
    assert check.divisor_count == 2


def test_gorenstein_requires_full_dimension():
    with pytest.raises(PreconditionError):
        special.gorenstein_check(SimplicialCone(((1, 0, 0), (0, 1, 0))))


def test_pq_cone_constants():
    for p, q in ((2, 3), (2, 5), (3, 5)):
        cone = special.make_pq_cone(p, q)
        assert cones.multiplicity(cone) == p * q
        l = cone.generators[2][0]
        k = cone.generators[3][0]
        assert k * p + l * q == p * q - 1
        assert 1 <= k <= q - 1
        assert 1 <= l <= p - 1


def test_pq_cone_23_details():
    cone = special.make_pq_cone(2, 3)
    assert cone.generators == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (1, 1, 2, 0),
        (1, 1, 0, 3),
    )
    check = special.gorenstein_check(cone)
    assert check.lam == (
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 2),
        Fraction(1, 3),
    )
    assert check.y == (1, 1, 1, 1)
    assert check.premise_holds
    assert check.divisor_count == 4
    assert check.cyclic


def test_pq_family_premise_and_skewness():
    for p, q in ((2, 3), (2, 5), (3, 5)):
        cone = special.make_pq_cone(p, q)
        check = special.gorenstein_check(cone)
        assert check.premise_holds
        assert check.divisor_count == 4
        assert check.cyclic
        assert not special.has_skew_normal_form(cone)


def test_pq_cone_preconditions():
    with pytest.raises(PreconditionError):
        special.make_pq_cone(2, 2)
    with pytest.raises(PreconditionError):
        special.make_pq_cone(4, 3)


def test_skew_cones_have_skew_normal_form():
    cone, _ = special.make_skew_cone(4, (1, 2, 3, 5))
    assert special.has_skew_normal_form(cone)
    identity = SimplicialCone(((1, 0), (0, 1)))
    assert special.has_skew_normal_form(identity)


def _sampled_covering(cone, check):
    # The sampled loop `gorenstein_check` once ran: z - y in the cone for
    # every interior point z of the 2-dilated parallelepiped.
    if not check.y_integral:
        return False
    yv = exact.as_int_vector(check.y)
    return all(
        cones.contains(cone, exact.vsub(z, yv))
        for z in oracle.dilated_sample(cone, 2)
        if cones.contains_interior(cone, z)
    )


def test_gorenstein_covering_matches_sampled_loop():
    rng = random.Random(1616)
    family = [special.make_pq_cone(p, q) for p, q in ((2, 3), (2, 5), (3, 5), (2, 7))]
    family += [
        special.make_skew_cone(n, r)[0]
        for n, r in ((3, (1, 1, 3)), (4, (0, 1, 2, 4)), (4, (2, 2, 2, 3)), (5, (1, 2, 3, 4, 7)))
    ]
    family += [
        gen.random_cone(dim, det, rng) for dim in (2, 3, 4, 5) for det in range(1, 17)
    ]
    verdicts = set()
    for cone in family:
        check = special.gorenstein_check(cone)
        assert check.covering_sampled == _sampled_covering(cone, check), cone
        verdicts.add(check.covering_sampled)
    assert verdicts == {True, False}
