"""The 18-subcone unimodular cover of multiplicity-5 cones in dimension 4."""

import dataclasses
import random
from itertools import combinations

import pytest

import reference_cover
from conekit import cones, cosets, cover as cover_mod, exact, feasibility, oracle
from conekit.cones import SimplicialCone
from conekit.cover import build_cover_det5, decompose_in_cover
from conekit.errors import CertificateError, MembershipError, PreconditionError
from fractions import Fraction

CONE_DET5 = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))


def _applicable(cone):
    return (
        cone.dim == 4
        and cones.multiplicity(cone) == 5
        and cosets.coset_profile(cone).nontrivial_class_count == 4
    )


def test_cover_structure_example():
    cover = build_cover_det5(CONE_DET5)
    assert len(cover.subcones) == 18
    assert cover.census == (4, 10, 4)
    assert all(abs(s.det_coords) == 1 for s in cover.subcones)
    assert cover.volume == Fraction(10, 3)
    assert cover.volume == cover.volume_target
    assert cover.disjoint_pairs == 18 * 17 // 2
    vectors = dict(cover.element_vectors)
    assert vectors["y1"] == (1, 2, 3, 4)
    assert set(vectors[f"r{m}"] for m in range(1, 5)) == set(CONE_DET5.generators)


def test_cover_subcones_are_unimodular_sublattices():
    cover = build_cover_det5(CONE_DET5)
    for sub in cover.subcones:
        assert cones.multiplicity(sub.cone) == 1
        assert 1 <= sub.generator_count <= 3


def test_decompose_in_cover_examples():
    terms, _ = decompose_in_cover(CONE_DET5, (1, 0, 0, 0))
    assert terms == ((1, (1, 0, 0, 0)),)
    terms, _ = decompose_in_cover(CONE_DET5, (1, 2, 3, 4))
    assert terms == ((1, (1, 2, 3, 4)),)
    terms, _ = decompose_in_cover(CONE_DET5, (2, 3, 4, 5))
    total = tuple(sum(c * v[i] for c, v in terms) for i in range(4))
    assert total == (2, 3, 4, 5)
    assert len(terms) <= 4


def test_decompose_in_cover_sampled():
    cover = build_cover_det5(CONE_DET5)
    allowed = {g for s in cover.subcones for g in s.cone.generators}
    for z in oracle.dilated_sample(CONE_DET5, 2):
        terms, idx = decompose_in_cover(CONE_DET5, z)
        assert 0 <= idx < 18
        assert len(terms) <= 4
        assert all(c >= 1 and v in allowed for c, v in terms)
        total = tuple(sum(c * v[i] for c, v in terms) for i in range(4))
        assert total == tuple(z)


def test_decompose_in_cover_rejects_outside():
    with pytest.raises(MembershipError):
        decompose_in_cover(CONE_DET5, (0, 0, 0, 1))


def test_decompose_in_cover_matches_per_subcone_reference():
    # The table route must pick the same subcone and terms as asking every
    # subcone for its own coefficients, in Z^4, embedded in Z^5 and on
    # sheared cones.
    embedded = SimplicialCone(tuple(g + (0,) for g in CONE_DET5.generators))
    sheared = [_random_applicable_cone(random.Random(seed)) for seed in range(200, 220)]
    for cone in [CONE_DET5, embedded] + sheared:
        assert _applicable(cone)
        for z in oracle.dilated_sample(cone, 3):
            expected = reference_cover.decompose_in_cover(cone, z)
            assert decompose_in_cover(cone, z) == expected, (cone, z)


def test_cover_needs_no_cone_data_beyond_the_parent():
    # Building the cover and decomposing a sample reads everything off the
    # table and the parent cone: only the parent's context is built.
    cone = _random_applicable_cone(random.Random("one context"))
    before = cones._context.cache_info().currsize
    build_cover_det5(cone)
    for z in oracle.dilated_sample(cone, 2):
        decompose_in_cover(cone, z)
    assert cones._context.cache_info().currsize - before == 1


def test_decompose_in_cover_rejects_a_remainder(monkeypatch):
    # Table rows that do not belong to a unimodular subcone leave a
    # remainder on some point; that is a certificate failure, not a term.
    table, *rest = cover_mod._certified_table()
    det_coords, gen_count, _ = table[0]
    bad = ((det_coords, gen_count, exact.identity(4)),) + table[1:]
    monkeypatch.setattr(cover_mod, "_certified_table", lambda: (bad, *rest))
    with pytest.raises(CertificateError, match="not unimodular"):
        decompose_in_cover(CONE_DET5, (1, 2, 3, 4))


def test_cover_preconditions():
    with pytest.raises(PreconditionError):
        build_cover_det5(SimplicialCone(((1, 0), (1, 2))))
    unimodular = SimplicialCone(
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    with pytest.raises(PreconditionError):
        build_cover_det5(unimodular)
    # Multiplicity 5 but only 3 non-trivial classes (two generators share one).
    shared = SimplicialCone(
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 2, 5))
    )
    assert cones.multiplicity(shared) == 5
    assert cosets.coset_profile(shared).nontrivial_class_count == 3
    with pytest.raises(PreconditionError):
        build_cover_det5(shared)


def _random_applicable_cone(rng):
    """Unimodular shear of a cone with dual cosets {1,2,3,4} mod 5.

    Offsets forming a permutation of (1,2,3) put the four generators into the
    four distinct non-trivial classes; shear row operations are lattice
    automorphisms, so the coset structure survives the mixing.
    """
    offsets = [1, 2, 3]
    rng.shuffle(offsets)
    rows = [
        [1, 0, 0, offsets[0]],
        [0, 1, 0, offsets[1]],
        [0, 0, 1, offsets[2]],
        [0, 0, 0, 5],
    ]
    for _ in range(8):
        i = rng.randrange(4)
        j = rng.randrange(4)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return SimplicialCone(tuple(zip(*rows)))


def test_cover_on_random_applicable_cone():
    found = _random_applicable_cone(random.Random(41))
    assert _applicable(found)
    cover = build_cover_det5(found)
    assert len(cover.subcones) == 18
    assert cover.census == (4, 10, 4)
    assert cover.volume == cover.volume_target
    for z in oracle.dilated_sample(found, 2):
        terms, _ = decompose_in_cover(found, z)
        assert len(terms) <= 4


# Rational reference for the integer cover construction: the coefficient
# vectors lambda of the eight cover elements as Fractions (y_m is
# m * (1,2,3,4) / 5 reduced mod 1), unimodularity as |rat_det(L)| = 1/5,
# disjointness by Fourier-Motzkin on rat_inverse rows, and the search over
# the side groups' configurations that fixed the library's label table.
_LAMS = {f"r{m + 1}": tuple(Fraction(int(j == m)) for j in range(4))
         for m in range(4)}
_LAMS.update({f"y{m}": tuple(Fraction(m * j % 5, 5) for j in (1, 2, 3, 4))
              for m in range(1, 5)})

_GROUP_A = (
    ("r2", "r3", "r4", "y1"),
    ("r1", "r2", "r4", "y2"),
    ("r1", "r3", "r4", "y3"),
    ("r1", "r2", "r3", "y4"),
)

_GROUP_B = (
    ("r1", "r2", "y2", "y4"),
    ("r1", "r3", "y3", "y4"),
    ("r2", "r4", "y1", "y2"),
    ("r3", "r4", "y1", "y3"),
)

# (generator edge, point edge, the other two points) of each side group.
_SIDE_GROUPS = (
    (("r2", "r3"), ("y2", "y3"), ("y1", "y4")),
    (("r1", "r4"), ("y1", "y4"), ("y2", "y3")),
)


def _rational_matrix(labels):
    return exact.from_columns([_LAMS[lbl] for lbl in labels])


def _rational_unimodular(labels):
    return abs(exact.rat_det(_rational_matrix(labels))) == Fraction(1, 5)


def _rational_disjoint(a, b):
    inv_a, inv_b = (exact.rat_inverse(_rational_matrix(c)) for c in (a, b))
    return not feasibility.open_cones_intersect(inv_a, inv_b)


def _rational_cover_choice(cone):
    """Relabelling, label sets and det_coords of the cover, with Fractions."""
    y1 = cones.enumerate_parallelepiped(cone).nonzero()[0]
    relabel = [None] * 4
    for i, lam in enumerate(y1.lam):
        relabel[int(5 * lam) - 1] = i
    fixed = list(_GROUP_A + _GROUP_B)
    side_configs = []
    for r_edge, y_edge, others in _SIDE_GROUPS:
        fixed.append(r_edge + y_edge)
        fixed.extend(r_edge + (y, o) for o in others for y in y_edge
                     if _rational_unimodular(r_edge + (y, o)))
        tri1, tri2 = (y_edge + (o,) for o in others)
        side_configs.append([
            ((r_a,) + tri1, (r_b,) + tri2)
            for r_a in r_edge
            for r_b in r_edge
            if _rational_unimodular((r_a,) + tri1)
            and _rational_unimodular((r_b,) + tri2)
        ])
    for cfg_c in side_configs[0]:
        for cfg_d in side_configs[1]:
            extra = cfg_c + cfg_d
            pairs = list(combinations(extra, 2)) + [(a, b) for a in extra for b in fixed]
            if all(_rational_disjoint(a, b) for a, b in pairs):
                chosen = tuple(fixed) + extra
                dets = tuple(
                    int(5 * exact.rat_det(_rational_matrix(c))) for c in chosen
                )
                return tuple(relabel), chosen, dets
    raise AssertionError("no rational cover configuration")


def test_cover_matches_rational_reference():
    for seed in range(6):
        cone = _random_applicable_cone(random.Random(seed))
        assert _applicable(cone)
        cover = build_cover_det5(cone)
        relabel, chosen, dets = _rational_cover_choice(cone)
        assert cover.relabel == relabel
        assert tuple(s.labels for s in cover.subcones) == chosen
        assert tuple(s.det_coords for s in cover.subcones) == dets


def _integer_unimodular(labels):
    return abs(exact.det(cover_mod._scaled_matrix(labels))) == 125


def _integer_rows(labels):
    """Sign-normalised adjugate rows of 5L, as the cover certificate uses them."""
    return exact.scaled_inverse(cover_mod._scaled_matrix(labels))[1]


def test_cover_disjointness_matches_rational_reference():
    # Every pair of unimodular label sets, overlapping ones included, and
    # label sets of both determinant signs: the integer adjugate rows must
    # describe the same open cones as the rational inverses.
    label_sets = [
        c for c in combinations(sorted(cover_mod._SCALED), 4)
        if _integer_unimodular(c)
    ]
    assert label_sets == [c for c in combinations(sorted(_LAMS), 4)
                          if _rational_unimodular(c)]
    assert {exact.rat_det(_rational_matrix(c)) for c in label_sets} == {
        Fraction(1, 5), Fraction(-1, 5)
    }
    rows = {c: _integer_rows(c) for c in label_sets}
    verdicts = []
    for a, b in combinations(label_sets, 2):
        verdict = not feasibility.open_cones_intersect(rows[a], rows[b])
        assert verdict == _rational_disjoint(a, b), (a, b)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_second_cover_runs_no_disjointness_check(monkeypatch):
    # The label table is certified once per process: once any cover exists,
    # building the cover of a cone never seen before searches no Gordan
    # certificate.
    build_cover_det5.__wrapped__(CONE_DET5)
    calls = []
    original = cover_mod._gordan_certificate

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(cover_mod, "_gordan_certificate", counting)
    fresh = _random_applicable_cone(random.Random(7))
    cover = build_cover_det5.__wrapped__(fresh)
    assert cover.disjoint_pairs == 153 and cover.census == (4, 10, 4)
    assert calls == []
    # The count is not vacuous: certifying the table afresh runs one search
    # per pair.
    cover_mod._certified_table.cache_clear()
    assert build_cover_det5.__wrapped__(fresh) == cover
    assert len(calls) == 153


def test_certificates_annihilate_the_table_rows():
    # Each (a, b, y) is a Gordan certificate on the table's own rows: y >= 0,
    # y != 0 and y . [rows_a; rows_b] = 0, so no x has all rows . x > 0.
    cover = build_cover_det5(CONE_DET5)
    pairs = list(combinations(range(18), 2))
    assert [(a, b) for a, b, _ in cover.certificates] == pairs
    assert cover.disjoint_pairs == len(pairs)
    for a, b, y in cover.certificates:
        rows = _integer_rows(cover_mod._LABEL_SETS[a]) + _integer_rows(
            cover_mod._LABEL_SETS[b]
        )
        assert len(y) == 8 and all(v >= 0 for v in y) and any(y)
        assert all(exact.dot(y, col) == 0 for col in zip(*rows)), (a, b)


def test_certificate_search_matches_fourier_motzkin():
    # Gordan's theorem both ways: over every pair of unimodular label sets,
    # overlapping ones included, a certificate exists exactly when
    # Fourier-Motzkin finds the open cones disjoint.
    label_sets = [
        c for c in combinations(sorted(cover_mod._SCALED), 4)
        if _integer_unimodular(c)
    ]
    verdicts = set()
    for a, b in combinations(label_sets, 2):
        rows_a, rows_b = _integer_rows(a), _integer_rows(b)
        y = cover_mod._gordan_certificate(rows_a + rows_b)
        disjoint = not feasibility.open_cones_intersect(rows_a, rows_b)
        assert (y is not None) == disjoint, (a, b)
        verdicts.add(disjoint)
    assert verdicts == {True, False}


def test_verify_cover_falls_back_on_a_corrupted_certificate():
    cover = build_cover_det5(CONE_DET5)
    certificates = list(cover.certificates)
    a, b, y = certificates[40]
    certificates[40] = (a, b, (y[0] + 1,) + y[1:])
    tampered = dataclasses.replace(cover, certificates=tuple(certificates))
    verification = oracle.verify_cover(tampered, CONE_DET5)
    assert verification.ok and verification.disjoint_ok
    assert verification.fallback_pairs == 1
    # Vectors that annihilate the rows but are no certificate (zero,
    # nonpositive) and a short one are no proof either.
    for bad in ((0,) * 8, tuple(-v for v in y), y[:7]):
        certificates[40] = (a, b, bad)
        tampered = dataclasses.replace(cover, certificates=tuple(certificates))
        verification = oracle.verify_cover(tampered, CONE_DET5)
        assert verification.ok and verification.fallback_pairs == 1


def test_verify_cover_overlap_is_not_hidden_by_a_certificate():
    # Swapping in an overlapping subcone keeps every certificate: the ones
    # for its pairs no longer annihilate its rows, so enumeration decides.
    cover = build_cover_det5(CONE_DET5)
    vectors = dict(cover.element_vectors)
    swapped = ("r2", "y2", "y3", "y1")
    overlapping = dataclasses.replace(
        cover.subcones[14],
        labels=swapped,
        cone=SimplicialCone(tuple(vectors[lbl] for lbl in swapped)),
    )
    subcones = cover.subcones[:14] + (overlapping,) + cover.subcones[15:]
    tampered = dataclasses.replace(cover, subcones=subcones)
    verification = oracle.verify_cover(tampered, CONE_DET5)
    assert not verification.disjoint_ok and not verification.ok
    assert verification.failures == (
        "subcones 8 and 14 share interior points",
        "subcones 9 and 14 share interior points",
    )
    assert 2 <= verification.fallback_pairs <= 17


@pytest.fixture
def fresh_certificate():
    cover_mod._certified_table.cache_clear()
    yield
    cover_mod._certified_table.cache_clear()


def test_certification_rejects_overlapping_label_set(monkeypatch, fresh_certificate):
    # The other edge-generator choice for the first side group's first
    # triangulated cone is unimodular but overlaps the edge cone.
    table = list(cover_mod._LABEL_SETS)
    swapped = ("r2", "y2", "y3", "y1")
    assert table[14] == ("r3", "y2", "y3", "y1")
    assert _integer_unimodular(swapped)
    table[14] = swapped
    monkeypatch.setattr(cover_mod, "_LABEL_SETS", tuple(table))
    with pytest.raises(CertificateError, match="overlap"):
        cover_mod._certified_table()
    with pytest.raises(CertificateError, match="overlap"):
        build_cover_det5.__wrapped__(CONE_DET5)


def test_verify_cover_accepts_good_cover():
    # One table of certificates fits every applicable cone (the oracle's own
    # rows are the table rows times 1/25 and one fixed linear map), so no
    # pair falls back to enumeration.
    for cone in [CONE_DET5] + [
        _random_applicable_cone(random.Random(seed)) for seed in (41, *range(6))
    ]:
        verification = oracle.verify_cover(build_cover_det5(cone), cone)
        assert verification.ok
        assert verification.volume == Fraction(10, 3)
        assert verification.failures == ()
        assert verification.fallback_pairs == 0


def test_verify_cover_detects_missing_subcone():
    cover = build_cover_det5(CONE_DET5)
    tampered = dataclasses.replace(cover, subcones=cover.subcones[:-1])
    verification = oracle.verify_cover(tampered, CONE_DET5)
    assert not verification.volume_ok
    assert not verification.complete_ok
    assert not verification.ok
    assert verification.disjoint_ok and verification.fallback_pairs == 0


def test_verify_cover_detects_duplicate_subcone():
    cover = build_cover_det5(CONE_DET5)
    tampered = dataclasses.replace(
        cover, subcones=cover.subcones + (cover.subcones[0],)
    )
    verification = oracle.verify_cover(tampered, CONE_DET5)
    assert not verification.disjoint_ok
    assert not verification.ok
    # Only the 18 pairs with the extra subcone lack a certificate.
    assert verification.fallback_pairs == 18


def test_verify_cover_reports_non_unimodular_subcone():
    # Doubling a generator keeps the open cone, its degree-scaled volume and
    # every sampled membership, but the subcone has multiplicity 2: only the
    # unimodularity check may fail, and it must report rather than raise.
    cover = build_cover_det5(CONE_DET5)
    first = cover.subcones[0]
    gens = first.cone.generators
    doubled = SimplicialCone((tuple(2 * x for x in gens[0]),) + gens[1:])
    assert cones.multiplicity(doubled) == 2
    tampered = dataclasses.replace(
        cover,
        subcones=(dataclasses.replace(first, cone=doubled),) + cover.subcones[1:],
    )
    verification = oracle.verify_cover(tampered, CONE_DET5)
    assert not verification.unimodular_ok
    assert verification.disjoint_ok and verification.volume_ok
    assert verification.complete_ok
    assert not verification.ok
    assert verification.failures == ("subcone 0 is not unimodular",)
    # Its last three rows are doubled against the first, so exactly the
    # certificates of its pairs that weigh one of those rows fail.
    weighing = [y for a, b, y in cover.certificates if a == 0 and any(y[1:4])]
    assert 0 < len(weighing) < 17
    assert verification.fallback_pairs == len(weighing)


def test_verify_cover_reports_subcone_leaving_the_cone():
    # (1,-1,0,0) has coefficient sum 0 in the parent, so the degree-scaled
    # volume is undefined; containment must catch it and report, not raise.
    cover = build_cover_det5(CONE_DET5)
    outside = SimplicialCone(((1, -1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))
    first = dataclasses.replace(cover.subcones[0], cone=outside)
    tampered = dataclasses.replace(cover, subcones=(first,) + cover.subcones[1:])
    verification = oracle.verify_cover(tampered, CONE_DET5)
    assert not verification.ok and not verification.complete_ok
    assert not verification.volume_ok and verification.volume is None
    assert "subcone 0 leaves the cone" in verification.failures


def test_verify_cover_reports_subcone_leaving_the_linear_span():
    # In a cone that is not full-dimensional, a subcone generator can leave
    # the linear span; it is reported and left out of the other checks.
    embedded = SimplicialCone(tuple(g + (0,) for g in CONE_DET5.generators))
    cover = build_cover_det5(embedded)
    assert oracle.verify_cover(cover, embedded).ok
    first = cover.subcones[0]
    gens = first.cone.generators
    lifted = SimplicialCone((gens[0][:-1] + (1,),) + gens[1:])
    tampered = dataclasses.replace(
        cover,
        subcones=(dataclasses.replace(first, cone=lifted),) + cover.subcones[1:],
    )
    verification = oracle.verify_cover(tampered, embedded)
    assert verification.failures == ("subcone 0 leaves the linear span of the cone",)
    assert verification.unimodular_ok and verification.disjoint_ok
    assert not verification.complete_ok and not verification.volume_ok
    assert verification.volume is None
    assert not verification.ok
    assert verification.fallback_pairs == 0
