"""Dual coset profiles and their equivalence with coefficient structure."""

from fractions import Fraction
from math import floor

from conekit import cones, cosets, exact, gen
from conekit.cones import SimplicialCone
from conekit.decompose import _projection_data
from coset_lemma import check_lemma_coeff_equivalence

CONE_12 = SimplicialCone(((1, 0), (1, 2)))
CONE_DET5 = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))


def test_profile_unimodular():
    cone = SimplicialCone(((1, 0), (0, 1)))
    profile = cosets.coset_profile(cone)
    assert profile.integral_flags == (True, True)
    assert profile.equal_pairs == ((0, 1),)  # both trivial, hence equal
    assert profile.nontrivial_class_count == 0
    assert profile.elementary_divisors == (1, 1)
    assert profile.cyclic


def test_profile_examples():
    profile = cosets.coset_profile(CONE_12)
    assert profile.integral_flags == (False, False)
    assert profile.equal_pairs == ((0, 1),)
    assert profile.nontrivial_class_count == 1
    assert profile.elementary_divisors == (1, 2)
    assert profile.cyclic

    profile = cosets.coset_profile(CONE_DET5)
    assert profile.integral_flags == (False, False, False, False)
    assert profile.equal_pairs == ()
    assert profile.nontrivial_class_count == 4
    assert profile.elementary_divisors == (1, 1, 1, 5)
    assert profile.cyclic


def test_profile_noncyclic():
    cone = SimplicialCone(((2, 0), (0, 2)))
    profile = cosets.coset_profile(cone)
    assert profile.elementary_divisors == (2, 2)
    assert not profile.cyclic


def test_class_reps_mod_one():
    profile = cosets.coset_profile(CONE_DET5)
    for rep in profile.class_reps:
        assert all(0 <= x < 1 for x in rep)
    assert profile.class_reps[3] == (Fraction(0), Fraction(0), Fraction(0), Fraction(1, 5))


def _random_cones(dims=(2, 3, 4), dets=(1, 2, 3, 4, 6, 9), reps=3, seed=11):
    for dim in dims:
        for det in dets:
            for i in range(reps):
                yield gen.random_cone(dim, det, gen.seeded_rng(seed, dim, det, i))


def test_lemma_coeff_equivalence_random():
    for cone in _random_cones():
        assert check_lemma_coeff_equivalence(cone)


def test_equal_pairs_transitive_random():
    for cone in _random_cones():
        profile = cosets.coset_profile(cone)
        pairs = set(profile.equal_pairs)
        for i, j in list(pairs):
            for j2, k in list(pairs):
                if j2 == j and (i, k) not in pairs and i != k:
                    raise AssertionError(f"equal pairs not transitive: {pairs}")


def test_projection_preserves_coset_structure():
    # Projecting along one generator of an equal-coset pair keeps the
    # parallelepiped in bijection: its size is the projected multiplicity
    # and the projected multiplicity never exceeds the original.
    for cone in _random_cones(dims=(3, 4, 5), dets=(2, 4, 6, 8), reps=2, seed=23):
        profile = cosets.coset_profile(cone)
        mult = cones.multiplicity(cone)
        for axis in range(cone.dim):
            data = _projection_data(cone, axis)
            sub_mult = cones.multiplicity(data.subcone)
            assert sub_mult <= mult
            # The projection maps par(R) onto par of the projected cone.
            par = cones.enumerate_parallelepiped(cone)
            image = set()
            for p in par.points:
                proj = exact.matvec(data.coords, cones.lattice_coords(cone, p.vector))
                lam = cones.coefficients(data.subcone, proj)
                # reduce into the half-open parallelepiped
                floors = tuple(floor(x) for x in lam)
                shift = tuple(0 for _ in proj)
                for f, g in zip(floors, data.subcone.generators):
                    shift = exact.vadd(shift, exact.vscale(f, g))
                image.add(exact.vsub(proj, shift))
            sub_par = set(cones.enumerate_parallelepiped(data.subcone).vectors())
            assert image == sub_par
        if profile.equal_pairs:
            i, j = profile.equal_pairs[0]
            data = _projection_data(cone, i)
            # Equal-pair projection preserves the multiplicity exactly.
            assert cones.multiplicity(data.subcone) == mult


def test_projection_of_equal_pair_preserves_multiplicity():
    # The two generators of ((1,0),(1,2)) share a coset, so projecting along
    # either one keeps the multiplicity at exactly 2.
    for axis in (0, 1):
        data = _projection_data(CONE_12, axis)
        assert data.subcone.dim == 1
        assert cones.multiplicity(data.subcone) == 2
