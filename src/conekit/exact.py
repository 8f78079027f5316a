"""Exact integer and rational linear algebra.

Matrices are stored row-major as tuples of tuples; entries are Python ints or
`fractions.Fraction`, never floats.  All routines are pure functions on these
immutable values, so results can be cached and shared freely.

Provided here: fraction-free (Bareiss) determinants, adjugates, sign-
normalised adjugates and Cramer solutions, Smith and Hermite normal forms
with their unimodular transforms, and the integer projection of a lattice
along one of its primitive vectors.  The fraction-free kernels accept int
entries only.  Nothing in the library computes with the rational `rat_det`,
`rat_inverse`, `solve` and `dual_basis`: they are the references the
integer layer is tested against, and `perfbench` times `rat_det`/
`rat_inverse` as rational-elimination probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul, sub
from typing import Sequence

from .errors import MembershipError, PreconditionError

Vector = tuple
Matrix = tuple


# ---------------------------------------------------------------------------
# basic helpers


def freeze(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def matvec(a: Matrix, v: Sequence) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in a)


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def vadd(u: Sequence, v: Sequence) -> Vector:
    return tuple(map(add, u, v))


def vsub(u: Sequence, v: Sequence) -> Vector:
    return tuple(map(sub, u, v))


def vscale(c, v: Sequence) -> Vector:
    return tuple(c * x for x in v)


def columns(a: Matrix) -> tuple:
    return tuple(zip(*a))


def from_columns(cols) -> Matrix:
    return tuple(zip(*cols))


def is_integral(x) -> bool:
    return isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)


def as_int_vector(v: Sequence) -> Vector:
    v = tuple(v)
    if all(type(x) is int for x in v):  # the common case, checked cheaply
        return v
    if not all(is_integral(x) for x in v):
        raise MembershipError(f"vector {v} is not integral")
    return tuple(int(x) for x in v)


# ---------------------------------------------------------------------------
# determinants and rational elimination


def _int_matrix(m: list, name: str) -> list:
    """m itself; PreconditionError when an entry is not an int.

    The fraction-free kernels divide exactly only over the integers, and the
    normal forms would otherwise truncate an entry such as 3/2 to 1.
    """
    if not all(map(isinstance, chain.from_iterable(m), repeat(int))):
        raise PreconditionError(f"{name}: entries must be ints")
    return m


def _int_rows(a: Matrix, name: str, extra=None) -> list:
    """Rows of the square matrix a as lists, each followed by `extra`'s row.

    Raises PreconditionError on a non-square matrix or a non-int entry.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise PreconditionError(f"{name}: matrix is not square")
    if extra is None:
        m = [list(row) for row in a]
    else:
        m = [list(row) + list(tail) for row, tail in zip(a, extra)]
    return _int_matrix(m, name)


def det(a: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = _int_rows(a, "det")
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n > 0 else 1


def _bareiss_jordan(m: list, n: int) -> int:
    """Fraction-free Gauss-Jordan elimination of the rows m = [a | b] in place.

    After step k every entry right of column k is a minor of the augmented
    matrix, so each division is exact; the columns up to k are not needed
    again and are left as they are.  Returns det a and leaves adj(a) b in
    the right block of m; returns 0, with m partly reduced, when a is
    singular.
    """
    sign = 1
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pk = m[k][k]
        tail_k = m[k][k + 1:]
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                row[k + 1:] = [
                    (pk * x - f * y) // prev for x, y in zip(row[k + 1:], tail_k)
                ]
        prev = pk
    # The right block is prev * a^{-1} b, and prev = sign * det a.
    if sign < 0:
        for i in range(n):
            m[i] = [-x for x in m[i]]
    return sign * prev


def adjugate(a: Matrix):
    """Determinant and adjugate of a square integer matrix, fraction-free.

    Bareiss Gauss-Jordan elimination on [a | I].  Returns (det a, adj a) with
    adj a = det a * a^{-1}, all ints.  Raises PreconditionError when a is
    singular.
    """
    n = len(a)
    m = _int_rows(a, "adjugate", identity(n))
    d = _bareiss_jordan(m, n)
    if d == 0:
        raise PreconditionError("adjugate: matrix is singular")
    return d, freeze(row[n:] for row in m)


def cramer(a: Matrix, b: Sequence):
    """(det a, adj(a) b) for a square integer matrix a, fraction-free.

    Bareiss Gauss-Jordan elimination on [a | b] with the single right-hand
    column b, so the solution of a x = b is adj(a) b / det a.  Returns
    (0, None) when a is singular.
    """
    n = len(a)
    if len(b) != n:
        raise PreconditionError("cramer: right-hand side has the wrong length")
    m = _int_rows(a, "cramer", tuple((x,) for x in b))
    d = _bareiss_jordan(m, n)
    if d == 0:
        return 0, None
    return d, tuple(row[n] for row in m)


def scaled_inverse(a: Matrix):
    """(det a, |det a| * a^{-1}) for a nonsingular square integer matrix.

    The sign-normalised adjugate: its rows are positive multiples of the rows
    of a^{-1}, so they describe the same open cone {x : a^{-1} x > 0}.
    """
    d, adj = adjugate(a)
    if d < 0:
        adj = freeze(tuple(-x for x in row) for row in adj)
    return d, adj


def rat_det(a: Matrix) -> Fraction:
    """Determinant of a square rational matrix via Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            result = -result
        result *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                factor = m[i][k] * inv
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return result


def rat_inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            raise PreconditionError("rat_inverse: matrix is singular")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                factor = m[i][k]
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    return freeze(row[n:] for row in m)


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


# ---------------------------------------------------------------------------
# integer row/column operations shared by SNF and HNF


def _egcd(a: int, b: int):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _gcd_transform(a: int, b: int):
    """2x2 unimodular (s, t, u, v) with s*a + t*b = gcd >= 0, u*a + v*b = 0."""
    if a != 0 and b % a == 0:
        # Keep the pivot in place when it already divides; the generic
        # extended-gcd combination would swap entries and make the
        # alternating row/column passes cycle.
        sign = 1 if a > 0 else -1
        return sign, 0, -(b // a), 1
    g, s, t = _egcd(a, b)
    if g == 0:
        return 1, 0, 0, 1
    return s, t, -b // g, a // g


def _row_combine(m, i1, i2, s, t, u, v):
    for j in range(len(m[i1])):
        x, y = m[i1][j], m[i2][j]
        m[i1][j] = s * x + t * y
        m[i2][j] = u * x + v * y


def _col_combine(m, j1, j2, s, t, u, v):
    for row in m:
        x, y = row[j1], row[j2]
        row[j1] = s * x + t * y
        row[j2] = u * x + v * y


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S = U A V with U, V unimodular."""

    s: Matrix
    u: Matrix
    v: Matrix

    @property
    def divisors(self) -> tuple:
        """Nonzero elementary divisors, in divisibility-chain order."""
        return tuple(
            self.s[i][i]
            for i in range(min(len(self.s), len(self.s[0]) if self.s else 0))
            if self.s[i][i] != 0
        )


def snf(a: Matrix) -> SnfResult:
    """Smith normal form with both unimodular transforms, U A V = S.

    Raises PreconditionError on a non-int entry.
    """
    m_rows = len(a)
    n_cols = len(a[0]) if m_rows else 0
    m = _int_matrix([list(row) for row in a], "snf")
    u = [list(row) for row in identity(m_rows)]
    v = [list(row) for row in identity(n_cols)]
    t = 0
    while t < min(m_rows, n_cols):
        pivot = None
        for i in range(t, m_rows):
            for j in range(t, n_cols):
                if m[i][j] != 0 and (
                    pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            m[t], m[pivot[0]] = m[pivot[0]], m[t]
            u[t], u[pivot[0]] = u[pivot[0]], u[t]
        if pivot[1] != t:
            for row in m:
                row[t], row[pivot[1]] = row[pivot[1]], row[t]
            for row in v:
                row[t], row[pivot[1]] = row[pivot[1]], row[t]
        while True:
            for i in range(t + 1, m_rows):
                if m[i][t] != 0:
                    ops = _gcd_transform(m[t][t], m[i][t])
                    _row_combine(m, t, i, *ops)
                    _row_combine(u, t, i, *ops)
            row_dirty = False
            for j in range(t + 1, n_cols):
                if m[t][j] != 0:
                    ops = _gcd_transform(m[t][t], m[t][j])
                    _col_combine(m, t, j, *ops)
                    _col_combine(v, t, j, *ops)
                    row_dirty = True
            if not row_dirty and all(m[i][t] == 0 for i in range(t + 1, m_rows)):
                break
        d = m[t][t]
        offender = next(
            (
                i
                for i in range(t + 1, m_rows)
                for j in range(t + 1, n_cols)
                if m[i][j] % d != 0
            ),
            None,
        )
        if offender is not None:
            # Pull the non-divisible row up so the next gcd pass shrinks the pivot.
            for j in range(n_cols):
                m[t][j] += m[offender][j]
            for j in range(m_rows):
                u[t][j] += u[offender][j]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SnfResult(freeze(m), freeze(u), freeze(v))


def hnf(a: Matrix):
    """Hermite normal form H = U A.

    H is in row-echelon shape: pivots positive, entries above each pivot
    reduced into [0, pivot).  This is the canonical representative of the
    orbit of `a` under left multiplication by unimodular matrices.  Raises
    PreconditionError on a non-int entry.
    """
    m_rows = len(a)
    n_cols = len(a[0]) if m_rows else 0
    h = _int_matrix([list(row) for row in a], "hnf")
    u = [list(row) for row in identity(m_rows)]
    r = 0
    for j in range(n_cols):
        if r >= m_rows:
            break
        for i in range(r + 1, m_rows):
            if h[i][j] != 0:
                ops = _gcd_transform(h[r][j], h[i][j])
                _row_combine(h, r, i, *ops)
                _row_combine(u, r, i, *ops)
        if h[r][j] == 0:
            continue
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q != 0:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return freeze(h), freeze(u)


def int_inverse(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, returned with int entries."""
    d, adj = adjugate(a)
    if d not in (1, -1):
        raise MembershipError(f"int_inverse: determinant {d} is not a unit")
    return freeze(tuple(d * x for x in row) for row in adj)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class LatticeBasis:
    """Columns of `matrix` span a lattice inside R^ambient_dim."""

    matrix: Matrix
    ambient_dim: int


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


@dataclass(frozen=True)
class LatticeProjection:
    """Integer projection of a lattice W Z^k along its primitive vector W c.

    With U unimodular and U c = e1, `coords` = U[1:] maps the lattice
    coordinates x of a point W x onto the coordinates of its image in the
    projected lattice, Z^(k-1); its kernel is Z c.  `preimages` = W U^{-1}[:, 1:]
    holds, column for column, lattice vectors mapped onto the unit vectors,
    and `primitive` = W c.
    """

    coords: Matrix
    preimages: Matrix
    primitive: Vector


def project_lattice(lat: LatticeBasis, c: Sequence) -> LatticeProjection:
    """Project the lattice along the vector with primitive coordinates c."""
    h, u = hnf(tuple((x,) for x in c))
    if h[0][0] != 1:
        raise PreconditionError("project_lattice: direction is not primitive")
    w = int_inverse(u)
    return LatticeProjection(
        coords=u[1:],
        preimages=matmul(lat.matrix, tuple(row[1:] for row in w)),
        primitive=matvec(lat.matrix, c),
    )
