"""Decomposition engine: routing, traces, bounds, Hilbert reduction."""

import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import cones, experiments, gen, oracle
from conekit.cli import _decomposition_json
from conekit.cones import SimplicialCone
from conekit.decompose import (
    BaseStep,
    CoverStep,
    Decomposition,
    ProjectStep,
    ReductionTrace,
    StripStep,
    decompose,
    decompose_sample,
    icr_upper_bound,
    reduce_to_hilbert,
    replay,
)
from conekit.errors import CertificateError, MembershipError
from conekit.special import make_skew_cone
from test_acceptance import _random_cover_cone

# The module, which the package's `decompose` function shadows.
engine = importlib.import_module("conekit.decompose")

CONE_12 = SimplicialCone(((1, 0), (1, 2)))
CONE_DET5 = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))


def test_decompose_rejects_non_integral_point():
    for z in ((Fraction(5, 2), 2), (2.9, 2)):
        with pytest.raises(MembershipError):
            decompose(CONE_12, z)
    assert decompose(CONE_12, (Fraction(4, 2), 2)).target == (2, 2)


def test_decompose_zero():
    dec = decompose(CONE_12, (0, 0))
    assert dec.terms == ()
    assert dec.term_count() == 0
    assert dec.all_hilbert


def test_decompose_dim2_example():
    dec = decompose(CONE_12, (3, 2))
    assert dec.term_count() == 2
    assert dec.vector_sum() == (3, 2)
    assert dec.all_hilbert
    assert dec.trace.steps == (BaseStep(dim=2, method="search"),)


def test_decompose_parallelepiped_multiple():
    dec = decompose(CONE_DET5, (2, 4, 6, 8))
    assert dec.terms == ((2, (1, 2, 3, 4)),)
    assert dec.all_hilbert
    assert isinstance(dec.trace.steps[0], CoverStep)


def test_decompose_rejects_outside():
    with pytest.raises(MembershipError):
        decompose(CONE_12, (0, 1))
    with pytest.raises(MembershipError):
        decompose(CONE_DET5, (0, 0, 0, 1))


def test_decompose_unimodular_route():
    cone = SimplicialCone(((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)))
    assert cones.multiplicity(cone) == 1
    dec = decompose(cone, (4, 3, 2, 1))
    assert dec.trace.steps == (BaseStep(dim=4, method="unimodular"),)
    assert dec.terms == tuple((1, g) for g in cone.generators)


def test_decompose_strip_route():
    cone, _ = make_skew_cone(4, (0, 1, 2, 4))
    z = (3, 1, 2, 4)  # one generator with integral dual contributes 3 - 0 = 3
    dec = decompose(cone, z)
    first = dec.trace.steps[0]
    assert isinstance(first, StripStep)
    assert first.index == 0
    assert dec.vector_sum() == z
    assert dec.term_count() <= 4


def test_decompose_project_route():
    cone, _ = make_skew_cone(4, (1, 1, 2, 4))
    z = tuple(sum(col) for col in zip(*cone.generators))
    dec = decompose(cone, z)
    first = dec.trace.steps[0]
    assert isinstance(first, ProjectStep)
    assert {first.axis, first.partner} == {0, 1}
    assert first.sigma >= 0
    assert dec.vector_sum() == z
    assert dec.term_count() <= 4


def test_decompose_fallback_route():
    # Multiplicity 7 in dimension 4 with four distinct non-trivial cosets:
    # no strip, no project, no multiplicity-5 cover, so bounded search.
    cone, _ = make_skew_cone(4, (1, 2, 3, 7))
    z = tuple(sum(col) for col in zip(*cone.generators))
    dec = decompose(cone, z)
    assert dec.trace.steps == (BaseStep(dim=4, method="search"),)
    assert dec.term_count() <= 2 * 4 - 2
    assert dec.vector_sum() == z


def test_replay_roundtrip():
    z = (2, 3, 4, 5)
    dec = decompose(CONE_DET5, z)
    again = replay(CONE_DET5, z, dec.trace)
    assert again == dec


def test_replay_detects_tampered_trace():
    z = (2, 3, 4, 5)
    dec = decompose(CONE_DET5, z)
    wrong = ReductionTrace(dec.trace.steps + (StripStep(index=0, coeff=1),))
    with pytest.raises(CertificateError):
        replay(CONE_DET5, z, wrong)


def test_reduce_to_hilbert():
    dec = Decomposition(
        target=(2, 2),
        terms=((1, (2, 2)),),
        all_hilbert=False,
        trace=ReductionTrace(()),
    )
    reduced = reduce_to_hilbert(CONE_12, dec)
    assert reduced.all_hilbert
    assert reduced.vector_sum() == (2, 2)
    assert reduced.terms == ((2, (1, 1)),)


def test_icr_upper_bound_methods():
    assert icr_upper_bound(CONE_12).value == 2
    assert icr_upper_bound(CONE_12).method == "dim-le-3"

    cone, _ = make_skew_cone(7, (1, 1, 1, 1, 1, 1, 4))
    bound = icr_upper_bound(cone)
    assert (bound.value, bound.method) == (7, "small-multiplicity")

    cone, _ = make_skew_cone(5, (1, 1, 1, 1, 9))
    bound = icr_upper_bound(cone)
    assert (bound.value, bound.method) == (5, "few-cosets")

    cone, _ = make_skew_cone(6, (1, 2, 3, 4, 0, 6))
    bound = icr_upper_bound(cone)
    assert (bound.value, bound.method) == (9, "pigeonhole")

    cone, _ = make_skew_cone(5, (1, 7, 13, 29, 40))
    bound = icr_upper_bound(cone)
    assert (bound.value, bound.method) == (8, "general")


def test_decomposition_valid_on_random_sample():
    for dim in (3, 4, 5):
        for det in (2, 3, 5, 7):
            cone = gen.random_cone(dim, det, gen.seeded_rng(3, dim, det, 0))
            hb = set(cones.hilbert_basis(cone).elements)
            for z in oracle.dilated_sample(cone, 2):
                dec = decompose(cone, z)
                assert dec.vector_sum() == tuple(z)
                assert all(c >= 1 for c, _ in dec.terms)
                if not dec.all_hilbert:
                    dec = reduce_to_hilbert(cone, dec)
                assert all(v in hb for _, v in dec.terms)
                assert dec.vector_sum() == tuple(z)
                assert dec.term_count() <= dim


def _decomposition_digest(cone_list):
    """sha256 of every dilation-2 decomposition's JSON, and the strip count."""
    digest = hashlib.sha256()
    strips = 0
    for cone in cone_list:
        for z in oracle.dilated_sample(cone, 2):
            dec = decompose(cone, z)
            strips += sum(isinstance(s, StripStep) for s in dec.trace.steps)
            digest.update(json.dumps(_decomposition_json(dec)).encode())
    return digest.hexdigest(), strips


def test_decompose_traces_pinned():
    # Terms and traces as the engine produced them before facets were
    # memoised: on criterion 5's cones (all through the cover) and on
    # random cones whose samples take the strip route thousands of times.
    rng = random.Random(505)
    cover_cones = [CONE_DET5] + [_random_cover_cone(rng) for _ in range(9)]
    assert _decomposition_digest(cover_cones) == (
        "fc09b612c3e328514a8d03a9c4d5ebbfffd89af0320666278a0b9dd41407e2fa", 0
    )
    random_cones = [
        gen.random_cone(dim, det, gen.seeded_rng(7, dim, det, 0))
        for dim in (4, 5, 6)
        for det in range(1, 6)
    ]
    assert _decomposition_digest(random_cones) == (
        "bba437682da8a40d7bf3d3100e518b55ca1b7ea15a489a9ab93b24b743994610", 3259
    )


def _sample_cones():
    """Random cones of dims 2-7 x det 1-8, then criterion 5's cover cones."""
    random_cones = [
        gen.random_cone(dim, det, gen.seeded_rng(22, dim, det, 0))
        for dim in range(2, 8)
        for det in range(1, 9)
    ]
    rng = random.Random(505)
    return random_cones + [CONE_DET5] + [_random_cover_cone(rng) for _ in range(9)]


def test_decompose_sample_matches_per_point():
    # The shared memo changes no term, trace or all_hilbert flag; the
    # samples take every route, memo hits included.
    routes = set()
    for cone in _sample_cones():
        points = oracle.dilated_sample(cone, 2)
        decs = tuple(decompose_sample(cone, points))
        assert decs == tuple(decompose(cone, z) for z in points)
        for dec in decs:
            routes.update(type(s).__name__ for s in dec.trace.steps)
    assert routes == {"BaseStep", "StripStep", "ProjectStep", "CoverStep"}


def test_child_coefficients_match_recomputed(monkeypatch):
    # Every strip and projection child gets the scaled coefficients its own
    # lattice coordinates give, whether the memo hits or not.
    calls = {}
    reduce_child = engine._reduce_child

    def checked(cone, z, s, steps, node_budget, memo):
        assert s == cones.scaled_coefficients(cone, z)
        # A projection's step is a placeholder until its child returns.
        kind = "project" if steps[-1] is None else type(steps[-1]).__name__
        calls[kind] = calls.get(kind, 0) + 1
        return reduce_child(cone, z, s, steps, node_budget, memo)

    monkeypatch.setattr(engine, "_reduce_child", checked)
    for cone in _sample_cones():
        tuple(decompose_sample(cone, oracle.dilated_sample(cone, 2)))
    assert calls["StripStep"] > 10000 and calls["project"] > 1000


def test_child_coefficients_reject_a_fractional_child():
    assert engine._child_coefficients((4, 6, 2), 1, 4, 2) == (2, 1)
    with pytest.raises(CertificateError):
        engine._child_coefficients((4, 6, 3), 1, 4, 2)


def test_decompose_sample_rejects_tampered_terms(monkeypatch):
    cone = CONE_DET5
    points = oracle.dilated_sample(cone, 2)[1:]  # nonzero points
    hilbert = set(cones.hilbert_basis(cone).elements)
    reduce = engine._reduce
    merge = engine._merge

    # A term outside the cone, not in the Hilbert basis, with an exact sum.
    outside = (0, 0, 0, -1)
    assert outside not in hilbert and not cones.contains(cone, outside)

    def outside_term(cone, z, s, steps, node_budget, memo):
        return [(1, tuple(a - b for a, b in zip(z, outside))), (1, outside)]

    monkeypatch.setattr(engine, "_reduce", outside_term)
    with pytest.raises(CertificateError, match="outside the cone"):
        tuple(decompose_sample(cone, points))
    monkeypatch.setattr(engine, "_reduce", reduce)

    # A Hilbert term, accepted as a member, whose coefficient is one too high.
    def bumped(terms):
        merged = list(merge(terms))
        idx = next(i for i, (_, v) in enumerate(merged) if v in hilbert)
        c, v = merged[idx]
        merged[idx] = (c + 1, v)
        return tuple(merged)

    monkeypatch.setattr(engine, "_merge", bumped)
    with pytest.raises(CertificateError, match="do not sum to the target"):
        tuple(decompose_sample(cone, points))


def test_per_point_path_builds_no_fraction():
    # Membership, coordinates, the projection route and certificate checks
    # stay in int arithmetic, cache misses on fresh cones, facets and
    # projected subcones included.
    watched = {"lattice_coords", "scaled_coefficients", "contains",
               "contains_interior", "_validate", "_projection_data", "_lift"}
    offenders = set()

    def hook(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.endswith("fractions.py"):
            return
        f = frame.f_back
        while f is not None:
            if f.f_code.co_name in watched and "conekit" in f.f_code.co_filename:
                offenders.add(f.f_code.co_name)
                return
            f = f.f_back

    config = experiments.ExperimentConfig(
        dim_lo=4, dim_hi=5, det_lo=2, det_hi=4, count=1, dilation=2, seed=31
    )
    # An equal pair (generators 0 and 1) sends this sample down the
    # projection route, which the sweep above never takes.
    skew, _ = make_skew_cone(4, (1, 1, 2, 5))
    projections = 0
    sys.setprofile(hook)
    try:
        rows = experiments.run_experiment(config)
        for z in oracle.dilated_sample(skew, 2):
            steps = decompose(skew, z).trace.steps
            projections += sum(isinstance(s, ProjectStep) for s in steps)
    finally:
        sys.setprofile(None)
    assert len(rows) == 6
    assert projections > 0
    assert offenders == set()


@st.composite
def cone_points(draw):
    dim = draw(st.integers(2, 7))
    det = draw(st.integers(1, 6))
    rng = gen.seeded_rng(draw(st.integers(0, 10**6)), dim, det, 0)
    cone = gen.random_cone(dim, det, rng)
    points = cones.enumerate_parallelepiped(cone).points
    z = points[draw(st.integers(0, len(points) - 1))].vector
    for g in cone.generators:
        c = draw(st.integers(0, 4))
        z = tuple(x + c * y for x, y in zip(z, g))
    return cone, z


@settings(max_examples=200, deadline=None)
@given(cone_points())
def test_decompose_within_bounds_property(case):
    # decompose validates its own terms; the Hilbert reduction has at most
    # the rank bound's terms and at least the oracle's minimum.
    cone, z = case
    dec = decompose(cone, z)
    assert dec.vector_sum() == z
    if not dec.all_hilbert:
        dec = reduce_to_hilbert(cone, dec)
    assert dec.vector_sum() == z
    report = oracle.min_terms(cone, z)
    assert report.status == "exact"
    assert report.min_terms <= dec.term_count() <= icr_upper_bound(cone).value
