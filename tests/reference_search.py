"""Reference bounded search: the coefficient-by-coefficient DFS.

A verbatim copy of `conekit.search.find_combination` and its helpers as
they were before the two-slot step was solved in closed form.  The tests
require the current search to return the same terms on every input.
"""

from __future__ import annotations

from conekit.errors import UnresolvedError

DEFAULT_NODE_BUDGET = 10**7

class _Counter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget):
        self.nodes = 0
        self.budget = budget

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise UnresolvedError(
                f"search node budget of {self.budget} exhausted", nodes=self.nodes
            )


def find_combination(columns, target, max_terms, node_budget=None):
    """Smallest multiset of columns summing (with positive weights) to target.

    `columns` are integer coefficient vectors (already scaled), `target` a
    nonnegative integer vector.  Returns (terms, nodes) where terms is a
    tuple of (coefficient, column_index) pairs of minimal cardinality at
    most `max_terms`, or (None, nodes) when no such combination exists.
    Raises UnresolvedError when the node budget runs out first.
    """
    counter = _Counter(node_budget if node_budget is not None else DEFAULT_NODE_BUDGET)
    target = tuple(target)
    if all(x == 0 for x in target):
        return (), counter.nodes
    n_cols = len(columns)
    for m in range(1, max_terms + 1):
        found = _dfs(columns, n_cols, target, 0, m, counter)
        if found is not None:
            return tuple(found), counter.nodes
    return None, counter.nodes


def _max_coeff(col, residual):
    best = None
    for a, r in zip(col, residual):
        if a > 0:
            q = r // a
            if best is None or q < best:
                best = q
                if best == 0:
                    return 0
    return best if best is not None else 0


def _dfs(columns, n_cols, residual, start, slots, counter):
    counter.tick()
    if slots == 1:
        for idx in range(start, n_cols):
            col = columns[idx]
            c = None
            ok = True
            for a, r in zip(col, residual):
                if a == 0:
                    if r != 0:
                        ok = False
                        break
                else:
                    if r % a != 0:
                        ok = False
                        break
                    q = r // a
                    if c is None:
                        c = q
                    elif c != q:
                        ok = False
                        break
            if ok and c is not None and c >= 1:
                return [(c, idx)]
        return None
    for idx in range(start, n_cols):
        col = columns[idx]
        cmax = _max_coeff(col, residual)
        if cmax < 1:
            continue
        for c in range(1, cmax + 1):
            rest = tuple(r - c * a for r, a in zip(residual, col))
            sub = _dfs(columns, n_cols, rest, idx + 1, slots - 1, counter)
            if sub is not None:
                return [(c, idx)] + sub
    return None
