"""Rational linear-algebra references, used only by the tests.

`solve` and `dual_basis` compute with `Fraction`s through Gaussian
elimination and `exact.rat_det`/`rat_inverse`.  The library works with the
fraction-free integer kernels of `conekit.exact` instead; these are what
the tests compare those kernels and the cone data against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from conekit.errors import MembershipError, PreconditionError
from conekit.exact import Matrix, Vector, matmul, rat_det, rat_inverse, transpose


def solve(a: Matrix, b: Sequence) -> Vector:
    """Solve a x = b exactly for a with full column rank.

    `a` may be rectangular (m rows, k <= m columns).  Raises MembershipError
    when the system is inconsistent (b outside the column span) and
    PreconditionError when the columns are dependent.
    """
    m_rows = len(a)
    k = len(a[0]) if m_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    r = 0
    for j in range(k):
        pivot_row = next((i for i in range(r, m_rows) if aug[i][j] != 0), None)
        if pivot_row is None:
            raise PreconditionError("solve: columns are linearly dependent")
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = 1 / aug[r][j]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m_rows):
            if i != r and aug[i][j] != 0:
                factor = aug[i][j]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, m_rows):
        if aug[i][k] != 0:
            raise MembershipError("solve: inconsistent system")
    return tuple(aug[i][k] for i in range(k))


def dual_basis(r: Matrix) -> Matrix:
    """Dual vectors of the columns of r (full column rank required).

    Returns the n x k rational matrix whose columns pair with the columns of
    r via the Kronecker delta and lie in the column span of r.  For square r
    this is the inverse transpose; otherwise r (r^T r)^{-1}.
    """
    n = len(r)
    k = len(r[0]) if n else 0
    if k == n:
        if rat_det(r) == 0:
            raise PreconditionError("dual_basis: matrix is singular")
        return transpose(rat_inverse(r))
    gram = matmul(transpose(r), r)
    if rat_det(gram) == 0:
        raise PreconditionError("dual_basis: columns are linearly dependent")
    return matmul(r, rat_inverse(gram))
