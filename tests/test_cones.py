"""Cone invariants: multiplicity, parallelepiped points, Hilbert bases."""

import random
from fractions import Fraction
from math import floor

import pytest

from conekit import cones, cosets, exact, gen, oracle
from conekit.cones import SimplicialCone
from conekit.decompose import _projection_data
from conekit.errors import MembershipError, PreconditionError

CONE_12 = SimplicialCone(((1, 0), (1, 2)))
CONE_DET5 = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))


def test_cone_rejects_dependent_generators():
    with pytest.raises(PreconditionError):
        SimplicialCone(((1, 1), (2, 2)))


def test_cone_rejects_empty_generators():
    with pytest.raises(PreconditionError):
        SimplicialCone(((),))
    with pytest.raises(PreconditionError):
        SimplicialCone(((), ()))


def test_cone_rejects_non_integral_generators():
    for bad in (1.9, Fraction(3, 2)):
        with pytest.raises(PreconditionError, match="integers"):
            SimplicialCone(((bad, 0), (1, 2)))
    assert SimplicialCone(((Fraction(2, 2), 0), (1, 2))).generators == CONE_12.generators


def test_facet_is_the_cone_of_the_remaining_generators():
    for dim in range(2, 8):
        for det in (1, 2, 3, 5):
            cone = gen.random_cone(dim, det, gen.seeded_rng(43, dim, det, 0))
            for i in range(dim):
                facet = cone.facet(i)
                rest = cone.generators[:i] + cone.generators[i + 1:]
                assert facet == SimplicialCone(rest)
                assert cone.facet(i) is facet


def test_facet_of_a_ray_has_no_generators():
    with pytest.raises(PreconditionError):
        SimplicialCone(((1, 2),)).facet(0)


def test_non_integral_point_is_not_a_member():
    # Full-dimensional and lower-dimensional cones take different routes to
    # the lattice coordinates; neither may truncate a non-integral point.
    flat = SimplicialCone(((1, 0, 0), (1, 2, 0)))
    for cone, z in ((CONE_12, (Fraction(1, 2), 0)), (CONE_12, (2.9, 2)),
                    (flat, (Fraction(1, 2), 0, 0)), (flat, (2.0, 0, 0))):
        with pytest.raises(MembershipError):
            cones.lattice_coords(cone, z)
        with pytest.raises(MembershipError):
            cones.scaled_coefficients(cone, z)
        assert not cones.contains(cone, z)
        assert not cones.contains_interior(cone, z)
    assert cones.contains(CONE_12, (Fraction(4, 2), 2))


def test_multiplicity_examples():
    assert cones.multiplicity(CONE_12) == 2
    assert cones.multiplicity(CONE_DET5) == 5
    e3 = SimplicialCone(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert cones.multiplicity(e3) == 1


def test_multiplicity_lower_dimensional():
    # The single generator (2, 2) spans the lattice Z(1,1); its coordinate
    # there is 2, so the half-open segment holds two lattice points.
    cone = SimplicialCone(((2, 2),))
    assert cones.multiplicity(cone) == 2
    par = cones.enumerate_parallelepiped(cone)
    assert par.vectors() == ((0, 0), (1, 1))


def test_saturation_basis_examples():
    e3 = SimplicialCone(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert cones.saturation_basis(e3).matrix == exact.identity(3)
    lat = cones.saturation_basis(SimplicialCone(((2, 2),)))
    assert exact.columns(lat.matrix) in (((1, 1),), ((-1, -1),))
    assert lat.ambient_dim == 2
    assert cones.saturation_basis(CONE_12).matrix == exact.identity(2)


def test_context_reads_one_snf_per_cone(monkeypatch):
    # Every per-cone quantity comes from the one Smith normal form of the
    # generator matrix that the context computes.  The cones are used by no
    # other test, so no cached context hides a call.
    calls = []
    snf = exact.snf

    def counting_snf(a):
        calls.append(a)
        return snf(a)

    monkeypatch.setattr(exact, "snf", counting_snf)
    full = SimplicialCone(((1, 4, 1), (5, 9, 2), (6, 5, 3)))
    flat = SimplicialCone(((3, 1, 4, 1), (5, 9, 2, 7)))
    for cone in (full, flat):
        calls.clear()
        assert cones.multiplicity(cone) > 1
        for g in cone.generators:
            cones.lattice_coords(cone, exact.vscale(2, g))
        par = cones.enumerate_parallelepiped(cone)
        assert len(par) == cones.multiplicity(cone)
        cones.hilbert_basis(cone)
        cosets.coset_profile(cone)
        assert calls == [cone.matrix]
    with pytest.raises(MembershipError):
        cones.lattice_coords(flat, (0, 0, 0, 1))
    assert len(calls) == 1


def test_parallelepiped_examples():
    par = cones.enumerate_parallelepiped(CONE_12)
    assert par.vectors() == ((0, 0), (1, 1))
    assert par.points[1].lam == (Fraction(1, 2), Fraction(1, 2))

    par = cones.enumerate_parallelepiped(CONE_DET5)
    assert len(par) == 5
    lams = {p.lam for p in par.nonzero()}
    base = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
    expected = set()
    for m in range(1, 5):
        expected.add(tuple((m * x) % 1 for x in base))
    assert lams == expected


def test_parallelepiped_coefficients_consistent():
    for cone in (CONE_12, CONE_DET5):
        for p in cones.enumerate_parallelepiped(cone).points:
            assert cones.coefficients(cone, p.vector) == p.lam
            assert all(0 <= x < 1 for x in p.lam)


def test_contains_examples():
    assert cones.contains(CONE_12, (2, 2))
    assert not cones.contains(CONE_12, (0, 1))
    assert cones.contains_interior(CONE_12, (2, 1))
    assert not cones.contains_interior(CONE_12, (1, 0))


def test_coefficients_membership_error():
    cone = SimplicialCone(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(MembershipError):
        cones.coefficients(cone, (0, 0, 1))


def test_scaled_coefficients_match():
    mult = cones.multiplicity(CONE_DET5)
    for z in ((1, 2, 3, 5), (2, 3, 4, 5), (1, 2, 3, 4)):
        lam = cones.coefficients(CONE_DET5, z)
        scaled = cones.scaled_coefficients(CONE_DET5, z)
        assert scaled == tuple(int(mult * x) for x in lam)


def test_hilbert_basis_examples():
    hb = cones.hilbert_basis(CONE_12)
    assert set(hb.elements) == {(1, 0), (1, 2), (1, 1)}

    hb = cones.hilbert_basis(CONE_DET5)
    # 4 primitive generators plus the 4 nonzero parallelepiped points.
    assert len(hb) == 8
    par_vectors = {p.vector for p in cones.enumerate_parallelepiped(CONE_DET5).nonzero()}
    assert set(hb.elements) == set(CONE_DET5.generators) | par_vectors


def test_hilbert_basis_unimodular_cone():
    cone = SimplicialCone(((1, 0), (0, 1)))
    assert set(cones.hilbert_basis(cone).elements) == {(1, 0), (0, 1)}


def test_hilbert_basis_primitive_generators():
    cone = SimplicialCone(((2, 0), (0, 3)))
    assert set(cones.hilbert_basis(cone).elements) == {(1, 0), (0, 1)}


def _random_cones():
    for dim in (2, 3, 4):
        for det in (1, 2, 3, 5, 8):
            for i in range(3):
                yield gen.random_cone(dim, det, gen.seeded_rng(7, dim, det, i))


def test_parallelepiped_size_equals_multiplicity_random():
    for cone in _random_cones():
        par = cones.enumerate_parallelepiped(cone)
        assert len(par) == cones.multiplicity(cone)
        assert len(set(par.vectors())) == len(par)


def test_hilbert_basis_irreducible_random():
    # No element is the other's plus a nonzero cone lattice point: the
    # difference of two distinct elements never stays inside the cone.
    for cone in _random_cones():
        hb = cones.hilbert_basis(cone)
        for a in hb.elements:
            for b in hb.elements:
                if a == b:
                    continue
                diff = exact.vsub(a, b)
                assert not cones.contains(cone, diff)


def test_hilbert_basis_complete_random():
    # Every sampled cone point is a nonnegative integer Hilbert combination.
    for cone in _random_cones():
        for z in oracle.dilated_sample(cone, 2):
            report = oracle.min_terms(cone, z)
            assert report.status == "exact"


def test_primitive():
    assert cones.primitive((2, 4, 6)) == (1, 2, 3)
    assert cones.primitive((0, 5)) == (0, 1)
    assert cones.primitive((-3, 6)) == (-1, 2)


def _guard_cones():
    """Random cones with their facets and projected subcones."""
    for dim in range(2, 8):
        for det in (1, 2, 3, 4, 6):
            cone = gen.random_cone(dim, det, gen.seeded_rng(41, dim, det, 0))
            yield cone
            for i in range(dim):
                yield cone.facet(i)
            for axis in range(dim):
                yield _projection_data(cone, axis).subcone


def _guard_points(cone, rng):
    """Generators, parallelepiped points and random integer combinations."""
    points = list(cone.generators)
    par = cones.enumerate_parallelepiped(cone).vectors()
    points.extend(par)
    for lo in (0, 0, -2):
        z = rng.choice(par)
        for g in cone.generators:
            z = exact.vadd(z, exact.vscale(rng.randint(lo, 3), g))
        points.append(z)
    return points


def test_scaled_coefficients_sign_and_shape_guard():
    # The integer layer scales by mult = |det C|, not by the signed det C,
    # and reads coordinates off the rows of the Smith transform U when the
    # cone is not full-dimensional; both cases must occur here and agree
    # with a plain rational solve.
    rng = random.Random(17)
    negative = lower_dim = 0
    for cone in _guard_cones():
        ctx = cones._context(cone)
        negative += ctx.det_coord < 0
        lower_dim += cone.dim < cone.ambient_dim
        mult = cones.multiplicity(cone)
        assert mult == abs(ctx.det_coord)
        scaled = [p.scaled for p in cones.enumerate_parallelepiped(cone).points]
        assert all(0 <= x < mult for s in scaled for x in s)
        assert len(set(scaled)) == len(scaled)
        for z in _guard_points(cone, rng):
            lam = exact.solve(cone.matrix, z)
            assert cones.scaled_coefficients(cone, z) == tuple(mult * x for x in lam)
            assert cones.coefficients(cone, z) == lam
            assert cones.contains(cone, z) == all(x >= 0 for x in lam)
            assert cones.contains_interior(cone, z) == all(x > 0 for x in lam)
        for j in range(cone.ambient_dim):
            e = tuple(int(i == j) for i in range(cone.ambient_dim))
            try:
                exact.solve(cone.matrix, e)
            except MembershipError:
                with pytest.raises(MembershipError):
                    cones.scaled_coefficients(cone, e)
                assert not cones.contains(cone, e)
    assert negative > 0
    assert lower_dim > 0


def test_class_reps_match_rational_duals_guard():
    # Coset labels read off the integer context equal the pairings of the
    # rational dual basis with the saturation basis, reduced mod 1, and the
    # elementary divisors read off the generator matrix's Smith form equal
    # those of the coordinate matrix.
    for cone in _guard_cones():
        wt = exact.transpose(cones.saturation_basis(cone).matrix)
        expected = tuple(
            tuple(x - floor(x) for x in exact.matvec(wt, dual))
            for dual in exact.columns(exact.dual_basis(cone.matrix))
        )
        profile = cosets.coset_profile(cone)
        assert profile.class_reps == expected
        coord = cones._context(cone).coord
        assert profile.elementary_divisors == exact.snf(coord).divisors


def _orth_project(v, r):
    factor = Fraction(exact.dot(v, r), exact.dot(r, r))
    return tuple(x - factor * y for x, y in zip(v, r))


def test_projected_coords_match_rational_route_guard():
    # The integer projection agrees with the rational route: project
    # orthogonally along the axis, then solve in the projected preimages.
    rng = random.Random(19)
    for cone in _guard_cones():
        if cone.dim < 2:
            continue
        points = _guard_points(cone, rng)
        for axis in range(cone.dim):
            data = _projection_data(cone, axis)
            r = cone.generators[axis]
            basis = exact.from_columns(
                _orth_project(col, r) for col in exact.columns(data.preimages)
            )

            def rational_route(z):
                return exact.as_int_vector(exact.solve(basis, _orth_project(z, r)))

            assert data.subcone.generators == tuple(
                rational_route(cone.generators[l]) for l in data.kept
            )
            for z in points:
                assert exact.matvec(
                    data.coords, cones.lattice_coords(cone, z)
                ) == rational_route(z)


def test_lattice_coords_rejects_wrong_length():
    cone = SimplicialCone(((1, 0, 0), (0, 1, 0), (2, 3, 7)))
    for z in ((5, 9), (5, 9, 14, 0)):
        with pytest.raises(MembershipError, match=f"{len(z)} coordinates.*3"):
            cones.lattice_coords(cone, z)
        assert not cones.contains(cone, z)
