"""Bounded exact search for nonnegative integer combinations."""

import random

import pytest

import reference_search
from conekit import cones, exact, gen, search
from conekit.errors import UnresolvedError


def test_find_combination_basic():
    columns = ((1, 0), (0, 1), (1, 1))
    found, nodes = search.find_combination(columns, (2, 3), max_terms=3)
    assert found is not None
    total = [0, 0]
    for c, idx in found:
        assert c >= 1
        total[0] += c * columns[idx][0]
        total[1] += c * columns[idx][1]
    assert total == [2, 3]
    assert nodes >= 1


def test_find_combination_minimality():
    columns = ((1, 0), (0, 1), (1, 1))
    found, _ = search.find_combination(columns, (3, 3), max_terms=3)
    assert len(found) == 1  # 3 * (1, 1)


def test_find_combination_zero_target():
    found, _ = search.find_combination(((1, 0), (0, 1)), (0, 0), max_terms=2)
    assert found == ()


def test_find_combination_respects_max_terms():
    columns = ((1, 0), (0, 1))
    found, _ = search.find_combination(columns, (1, 1), max_terms=1)
    assert found is None
    found, _ = search.find_combination(columns, (1, 1), max_terms=2)
    assert len(found) == 2


def test_find_combination_infeasible():
    found, _ = search.find_combination(((2, 0), (0, 1)), (1, 1), max_terms=2)
    assert found is None


def test_node_budget_exhaustion():
    columns = tuple(
        tuple(1 if i == j else 0 for i in range(6)) for j in range(6)
    )
    with pytest.raises(UnresolvedError) as exc:
        search.find_combination(columns, (5,) * 6, max_terms=6, node_budget=2)
    assert exc.value.nodes > 2


def _random_case(rng):
    dim = rng.randint(1, 7)
    n_cols = rng.randint(1, 7)
    low = -2 if rng.random() < 0.25 else 0
    columns = [tuple(rng.randint(low, 4) for _ in range(dim)) for _ in range(n_cols)]
    for _ in range(rng.randint(0, 2)):
        # parallel, repeated and zero columns
        col = rng.choice(columns)
        kind = rng.randrange(3)
        if kind == 0:
            columns.append(tuple(rng.randint(2, 3) * x for x in col))
        elif kind == 1:
            columns.append(col)
        else:
            columns.append((0,) * dim)
        rng.shuffle(columns)
    if rng.random() < 0.8:
        target = [0] * dim
        for col in rng.sample(columns, rng.randint(1, min(4, len(columns)))):
            c = rng.randint(1, 5)
            target = [t + c * x for t, x in zip(target, col)]
    else:
        target = [rng.randint(0, 12) for _ in range(dim)]
    return tuple(columns), tuple(target), rng.randint(1, 4)


def test_matches_reference_on_random_columns():
    rng = random.Random(18)
    hits = 0
    for _ in range(1500):
        columns, target, max_terms = _random_case(rng)
        expected, _ = reference_search.find_combination(columns, target, max_terms)
        found, _ = search.find_combination(columns, target, max_terms)
        assert found == expected, (columns, target, max_terms)
        hits += found is not None
    assert 500 < hits < 1500


def test_matches_reference_on_hilbert_bases():
    # certify-style targets: a parallelepiped point plus large multiples of
    # every generator, searched up to the basis size.
    rng = random.Random(5)
    for dim in range(2, 7):
        for det in (2, 3, 6):
            cone = gen.random_cone(dim, det, gen.seeded_rng(18, dim, det, 0))
            hb = cones.hilbert_basis(cone)
            for _ in range(2):
                z = rng.choice(cones.enumerate_parallelepiped(cone).points).vector
                for g in cone.generators:
                    z = exact.vadd(z, exact.vscale(rng.randrange(8), g))
                scaled = cones.scaled_coefficients(cone, z)
                expected, _ = reference_search.find_combination(
                    hb.columns, scaled, len(hb)
                )
                found, _ = search.find_combination(hb.columns, scaled, len(hb))
                assert found is not None and found == expected, (cone, z)


def test_parallel_pairs_are_searched():
    # No 2x2 minor is nonzero, so the pair step falls back to the
    # coefficient loop.
    for columns, target, expected in (
        (((2, 0), (3, 0)), (5, 0), ((1, 0), (1, 1))),
        (((2,), (3,)), (5,), ((1, 0), (1, 1))),
        (((2,), (3,)), (7,), ((2, 0), (1, 1))),
    ):
        assert reference_search.find_combination(columns, target, 2)[0] == expected
        assert search.find_combination(columns, target, 2)[0] == expected


def test_node_budget_is_exact_through_the_pair_step():
    columns = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    found, nodes = search.find_combination(columns, (1, 1, 1), 3)
    assert found == ((1, 0), (1, 1), (1, 2))
    # Each support coordinate of the target is covered only by its own unit
    # column, so the lower bound is 3 and the one- and two-term passes cost
    # no node.  The three-term pass is its root, the two-slot node after
    # 1 * col_0 (residual (0, 1, 1), bound 2) and the pair row of col_1 that
    # hits col_2.
    assert nodes == 3
    assert search.find_combination(columns, (1, 1, 1), 3, node_budget=3) == (
        found, nodes
    )
    for k in range(1, nodes):
        with pytest.raises(UnresolvedError) as exc:
            search.find_combination(columns, (1, 1, 1), 3, node_budget=k)
        assert exc.value.nodes == k + 1


def _bound_and_reference(columns, target, start):
    positives = [tuple((k, a) for k, a in enumerate(col) if a > 0) for col in columns]
    masks = search._support_masks(columns, positives)
    assert masks is not None
    bound = search._lower_bound(target, start, positives, masks)
    rest = columns[start:]
    found, _ = reference_search.find_combination(rest, target, len(rest))
    if bound > len(columns):
        assert found is None, (columns, target, start)
    else:
        assert found is None or bound <= len(found), (columns, target, start)
    return bound, found


def test_lower_bound_never_exceeds_minimum():
    rng = random.Random(23)
    infeasible = 0
    for _ in range(1500):
        columns, target, _ = _random_case(rng)
        if any(a < 0 for col in columns for a in col):
            continue
        start = rng.randrange(len(columns))
        bound, _ = _bound_and_reference(columns, target, start)
        infeasible += bound > len(columns)
    assert infeasible > 100
    # certify-style targets: every cone point has a Hilbert-basis sum, and
    # the scaled generators are single-coordinate columns.
    tight = 0
    for dim in range(2, 7):
        for det in (2, 3, 6):
            cone = gen.random_cone(dim, det, gen.seeded_rng(23, dim, det, 0))
            hb = cones.hilbert_basis(cone)
            for _ in range(2):
                z = rng.choice(cones.enumerate_parallelepiped(cone).points).vector
                for g in cone.generators:
                    z = exact.vadd(z, exact.vscale(rng.randrange(6), g))
                scaled = cones.scaled_coefficients(cone, z)
                bound, found = _bound_and_reference(hb.columns, scaled, 0)
                assert found is not None and 1 <= bound <= len(found), (cone, z)
                tight += bound == len(found) > 1
    assert tight >= 10


def test_lower_bound_is_off_for_mixed_sign_columns():
    # (0, 2) does not fit under (1, 1), so the bound would call the target
    # infeasible, yet (1, -1) + (0, 2) hits it.
    columns = ((1, -1), (0, 2))
    positives = [((0, 1),), ((1, 2),)]
    assert search._support_masks(columns, positives) is None
    assert search._lower_bound((1, 1), 0, positives, [0b01, 0b10]) == 3
    expected = ((1, 0), (1, 1))
    assert reference_search.find_combination(columns, (1, 1), 2)[0] == expected
    assert search.find_combination(columns, (1, 1), 2)[0] == expected
