"""Bounded exact search for nonnegative integer combinations."""

import pytest

from conekit import search
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
