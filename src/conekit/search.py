"""Bounded exact search for nonnegative integer combinations.

The columns are the scaled coefficient vectors of a Hilbert basis
(`cones.hilbert_basis(cone).columns`), the only input any caller passes.
So every column is nonnegative and nonzero, and no two are parallel: if
u = t * v for distinct basis elements and t > 1, then u - v is a nonzero
lattice point of the cone and u is reducible.  A negative or zero column,
and a parallel pair the search reaches, raise PreconditionError.

All searching happens in generator-coefficient space scaled by the cone
multiplicity, so every quantity is a plain Python int.  Subsets of the
candidate set are enumerated by increasing cardinality (iterative
deepening), within a cardinality in lexicographic index order, which makes
the first hit minimal and every run reproducible.

The last two slots are solved, not enumerated.  For a first column i, the
pair step takes every later column j and solves c * col_i + d * col_j =
residual by Cramer's rule on one nonzero 2x2 minor (p, q, det) of the two
columns; the pair is a hit when det divides both numerators, c and d are at
least 1, c is within col_i's bound and the whole vector equation holds.
Two non-parallel columns have such a minor, and then (c, d) is unique, so
the smallest c, then the smallest j, over the row is the hit a
coefficient-by-coefficient loop would find first.  The minors are computed
once per (i, j) and one `find_combination` call.

Since every column is nonnegative, a support-cover lower bound on the
number of terms prunes the search.  For a residual t and the columns from
`start` on, a column is usable when it fits under t on its positive entries
(its `_max_coeff` is at least 1).  A support coordinate of t that no usable
column covers makes t infeasible; one that only usable single-coordinate
columns cover needs a term of its own; any other support coordinate adds
one more term.  The bound of the target is computed once per call, and the
deepening starts at it, so lower levels cost no node.  Every non-root `_dfs`
node with at least two slots returns no hit when the bound of its residual
exceeds its slots.  Every term of a hit is a usable column, and a
single-coordinate column covers no other coordinate, so the bound never
exceeds the true minimum: it cuts only subtrees without a hit, and every
witness is unchanged.

A node is one `_dfs` call or one row of pair tests (a first column i
against every later column).  Each costs at most two passes over the
columns (one of them for the bound), so the node budget bounds the work.
"""

from __future__ import annotations

from operator import sub

from .errors import PreconditionError, UnresolvedError

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

    `columns` are the scaled coefficient vectors of a Hilbert basis:
    nonnegative, nonzero and pairwise non-parallel (see the module
    docstring).  `target` is a nonnegative integer vector.  Returns
    (terms, nodes) where terms is a tuple of (coefficient, column_index)
    pairs of minimal cardinality at most `max_terms`, or (None, nodes) when
    no such combination exists.  Raises UnresolvedError when the node budget
    runs out first, and PreconditionError on columns that break the contract.
    """
    counter = _Counter(node_budget if node_budget is not None else DEFAULT_NODE_BUDGET)
    target = tuple(target)
    if all(x == 0 for x in target):
        return (), counter.nodes
    n_cols = len(columns)
    minors = [None] * n_cols
    positives = [
        tuple((k, a) for k, a in enumerate(col) if a > 0) for col in columns
    ]
    masks = _support_masks(columns, positives)
    for m in range(_lower_bound(target, 0, positives, masks), max_terms + 1):
        found = _dfs(columns, n_cols, target, 0, m, counter, minors, positives,
                     masks)
        if found is not None:
            return tuple(found), counter.nodes
    return None, counter.nodes


def _support_masks(columns, positives):
    """Bitmask of each column's positive entries; a negative or zero column raises."""
    if any(a < 0 for col in columns for a in col) or not all(positives):
        raise PreconditionError("search column has a negative entry or is zero")
    return [sum(1 << k for k, _ in positive) for positive in positives]


def _lower_bound(residual, start, positives, masks):
    """Support-cover lower bound on the terms from `start` on that sum to residual.

    Returns len(masks) + 1, more terms than there are columns, when some
    support coordinate of the residual has no usable column.
    """
    support = 0
    for k, r in enumerate(residual):
        if r > 0:
            support |= 1 << k
    outside = ~support
    singles = multis = 0
    for j in range(start, len(masks)):
        mask = masks[j]
        if mask & outside:
            continue
        for k, a in positives[j]:
            if residual[k] < a:
                break
        else:
            if mask & (mask - 1):
                multis |= mask
            else:
                singles |= mask
    if support != singles | multis:
        return len(masks) + 1
    return (singles & ~multis).bit_count() + (1 if multis else 0)


def _max_coeff(positive, residual):
    """Largest c with c * col <= residual on col's positive entries."""
    # A loop: min() over a generator slowed the search by about 15% (CPython 3.11).
    best = None
    for k, a in positive:
        q = residual[k] // a
        if best is None or q < best:
            best = q
    return best


def _minor_row(columns, i):
    """(p, a_p, entries) for the pairs (i, j), j > i.

    p is the first nonzero entry of col_i, and each entry is (j, q, det,
    a_q, b_p, b_q) with det = a_p b_q - a_q b_p nonzero.  A nonzero minor
    exists iff col_j is not a multiple of col_i, and then one exists on
    row p; a parallel pair raises PreconditionError.
    """
    col = columns[i]
    p = next(k for k, a in enumerate(col) if a)
    a_p = col[p]
    entries = []
    for j in range(i + 1, len(columns)):
        other = columns[j]
        b_p = other[p]
        for q, (a_q, b_q) in enumerate(zip(col, other)):
            det = a_p * b_q - a_q * b_p
            if det:
                entries.append((j, q, det, a_q, b_p, b_q))
                break
        else:
            raise PreconditionError(f"search columns {i} and {j} are parallel")
    return p, a_p, entries


def _pair_step(columns, n_cols, residual, start, counter, minors, positives):
    for i in range(start, n_cols - 1):
        cmax = _max_coeff(positives[i], residual)
        if cmax < 1:
            continue
        counter.tick()
        row = minors[i]
        if row is None:
            row = minors[i] = _minor_row(columns, i)
        p, a_p, entries = row
        col = columns[i]
        r_p = residual[p]
        best = cmax + 1  # every accepted c is below it
        hit = None
        for j, q, det, a_q, b_p, b_q in entries:
            r_q = residual[q]
            num = r_p * b_q - r_q * b_p
            if num % det:
                continue
            c = num // det
            if c < 1 or c >= best:
                continue
            num = a_p * r_q - a_q * r_p
            if num % det:
                continue
            d = num // det
            if d < 1:
                continue
            if all(c * a + d * b == r for a, b, r in zip(col, columns[j], residual)):
                best, hit = c, [(c, i), (d, j)]
        if hit is not None:
            return hit
    return None


def _dfs(columns, n_cols, residual, start, slots, counter, minors, positives, masks):
    counter.tick()
    if slots == 1:
        for idx in range(start, n_cols):
            k, a = positives[idx][0]
            c, r = divmod(residual[k], a)
            if not r and c >= 1 and all(
                c * b == t for b, t in zip(columns[idx], residual)
            ):
                return [(c, idx)]
        return None
    # The root (start 0) is the target, whose bound find_combination has met.
    if start and _lower_bound(residual, start, positives, masks) > slots:
        return None
    if slots == 2:
        return _pair_step(columns, n_cols, residual, start, counter, minors, positives)
    for idx in range(start, n_cols - slots + 1):
        cmax = _max_coeff(positives[idx], residual)
        if cmax < 1:
            continue
        col = columns[idx]
        rest = residual
        for c in range(1, cmax + 1):
            rest = tuple(map(sub, rest, col))
            found = _dfs(columns, n_cols, rest, idx + 1, slots - 1, counter,
                         minors, positives, masks)
            if found is not None:
                return [(c, idx)] + found
    return None
