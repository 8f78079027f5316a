"""Brute-force oracle: minimal term counts and sampled rank checks."""

import random
from fractions import Fraction

import pytest

import reference_oracle
from conekit import cones, exact, gen, oracle, search
from conekit.cones import HilbertBasis, SimplicialCone
from conekit.errors import CertificateError, MembershipError, PreconditionError
from test_acceptance import _random_admissible_spec

CONE_12 = SimplicialCone(((1, 0), (1, 2)))
CONE_DET5 = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))


def test_min_terms_zero():
    report = oracle.min_terms(CONE_12, (0, 0))
    assert report.status == "exact"
    assert report.min_terms == 0
    assert report.witness.terms == ()


def test_min_terms_rejects_non_integral_point():
    for z in ((Fraction(5, 2), 2), (2.5, 2)):
        with pytest.raises(MembershipError):
            oracle.min_terms(CONE_12, z)


def test_min_terms_examples():
    report = oracle.min_terms(CONE_12, (2, 2))
    assert report.min_terms == 1
    assert report.witness.terms == ((2, (1, 1)),)

    report = oracle.min_terms(CONE_12, (3, 2))
    assert report.min_terms == 2

    report = oracle.min_terms(CONE_DET5, (1, 2, 3, 4))
    assert report.min_terms == 1

    report = oracle.min_terms(CONE_DET5, (2, 3, 4, 5))
    assert report.min_terms == 2  # y1 + y4 beats the four generators


def test_min_terms_rejects_outside():
    with pytest.raises(MembershipError):
        oracle.min_terms(CONE_12, (0, 1))


def test_min_terms_witness_is_valid():
    hb = set(cones.hilbert_basis(CONE_DET5).elements)
    for z in oracle.dilated_sample(CONE_DET5, 2):
        report = oracle.min_terms(CONE_DET5, z)
        assert report.status == "exact"
        assert report.witness.vector_sum() == tuple(z)
        assert all(v in hb for _, v in report.witness.terms)
        assert report.min_terms <= 4


def test_min_terms_inconclusive_on_tiny_budget():
    report = oracle.min_terms(CONE_DET5, (4, 6, 8, 10), node_budget=1)
    assert report.status == "inconclusive"
    assert report.min_terms is None
    assert report.witness is None


def test_min_terms_search_miss_is_a_certificate_failure(monkeypatch):
    # Every cone point is a sum of at most basis-size Hilbert elements, so a
    # search that ends without a hit is an internal failure, never
    # `inconclusive` (which is kept for an exhausted node budget).
    monkeypatch.setattr(search, "find_combination", lambda *args: (None, 0))
    with pytest.raises(CertificateError):
        oracle.min_terms(CONE_12, (3, 2))


def test_dilated_sample_counts():
    sample = oracle.dilated_sample(CONE_12, 2)
    assert len(sample) == 2**2 * 2  # dilation^dim * multiplicity
    assert len(set(sample)) == len(sample)
    assert all(cones.contains(CONE_12, z) for z in sample)


def test_sample_icp_examples():
    report = oracle.sample_icp(CONE_12, dilation=2)
    assert report.max_min_terms == 2
    assert report.inconclusive == 0

    report = oracle.sample_icp(CONE_12, dilation=3)
    assert report.max_min_terms == 2

    report = oracle.sample_icp(CONE_DET5, dilation=2)
    assert report.max_min_terms <= 4
    assert report.inconclusive == 0
    for z in report.worst:
        check = oracle.min_terms(CONE_DET5, z)
        assert check.min_terms == report.max_min_terms


def test_sample_icp_matches_per_point_reference():
    # The sumset pass and one DFS per point are independent algorithms and
    # must give the same report, `worst` order included.  Dilation 3 stops
    # at dimension 5: at dimensions 6 and 7 its samples (up to 26,244 and
    # 78,732 points) cost the reference 7 s and 44 s.
    for dilation, dims in ((2, range(2, 8)), (3, range(2, 6))):
        for dim in dims:
            for det in range(1, 9):
                cone = gen.random_cone(dim, det, gen.seeded_rng(19, dim, det, 0))
                expected = reference_oracle.sample_icp(cone, dilation)
                assert oracle.sample_icp(cone, dilation) == expected, (cone, dilation)


def test_sample_icp_matches_reference_on_skew_specs():
    rng = random.Random(707)  # criterion 7's admissible skew specs
    for _ in range(50):
        cone, _ = _random_admissible_spec(rng)
        assert oracle.sample_icp(cone, 2) == reference_oracle.sample_icp(cone, 2)


def test_sample_min_terms_matches_min_terms_pointwise():
    for dim in range(2, 7):
        for det in (1, 2, 3, 5, 6):
            cone = gen.random_cone(dim, det, gen.seeded_rng(23, dim, det, 0))
            counts = oracle.sample_min_terms(cone, 2)
            points = oracle.dilated_sample(cone, 2)
            assert len(counts) == len(points)
            for z, count in zip(points, counts):
                assert oracle.min_terms(cone, z).min_terms == count, (cone, z)


def test_sample_rejects_dilation_below_one():
    for dilation in (0, -1):
        with pytest.raises(PreconditionError):
            oracle.dilated_sample(CONE_12, dilation)
        with pytest.raises(PreconditionError):
            oracle.sample_min_terms(CONE_12, dilation)
        with pytest.raises(PreconditionError):
            oracle.sample_icp(CONE_12, dilation)


def test_sample_unreached_point_is_a_certificate_failure(monkeypatch):
    # Without the Hilbert element (1, 1) no sum reaches the sample point
    # (1, 1); like a DFS miss, that is an internal failure.
    hb = cones.hilbert_basis(CONE_12)
    kept = [i for i, v in enumerate(hb.elements) if v != (1, 1)]
    broken = HilbertBasis(
        elements=tuple(hb.elements[i] for i in kept),
        columns=tuple(hb.columns[i] for i in kept),
    )
    monkeypatch.setattr(cones, "hilbert_basis", lambda cone: broken)
    with pytest.raises(CertificateError):
        oracle.sample_icp(CONE_12, 2)


def test_subadditivity_random():
    for dim in (2, 3):
        for det in (2, 5, 9):
            cone = gen.random_cone(dim, det, gen.seeded_rng(17, dim, det, 0))
            sample = oracle.dilated_sample(cone, 2)
            pairs = list(zip(sample[: len(sample) // 2], sample[len(sample) // 2 :]))
            for a, b in pairs[:10]:
                ra = oracle.min_terms(cone, a)
                rb = oracle.min_terms(cone, b)
                rab = oracle.min_terms(cone, exact.vadd(a, b))
                assert rab.min_terms <= ra.min_terms + rb.min_terms
