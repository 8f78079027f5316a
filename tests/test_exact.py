"""Exact linear algebra: determinants, normal forms, duals, projections."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_exact
from conekit import cones, exact
from conekit.errors import MembershipError, PreconditionError


def _square(n, lo=-9, hi=9):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(exact.freeze)


matrices = st.integers(1, 5).flatmap(_square)


def test_det_examples():
    assert exact.det(exact.identity(4)) == 1
    m = exact.from_columns(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))
    assert exact.det(m) == 5
    assert exact.det(exact.from_columns(((1, 0), (1, 2)))) == 2


def test_det_rejects_non_square():
    with pytest.raises(PreconditionError):
        exact.det(((1, 2, 3), (4, 5, 6)))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_det_matches_rational_elimination(m):
    assert exact.det(m) == exact.rat_det(m)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_adjugate_matches_rational_inverse(m):
    d = exact.det(m)
    if d == 0:
        with pytest.raises(PreconditionError):
            exact.adjugate(m)
        return
    det, adj = exact.adjugate(m)
    assert det == d
    assert adj == exact.freeze(
        tuple(d * x for x in row) for row in exact.rat_inverse(m)
    )


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_cramer_and_scaled_inverse_match_adjugate(m):
    n = len(m)
    rhs = ((1,) * n, tuple(range(-1, n - 1)))
    d = exact.det(m)
    if d == 0:
        assert all(exact.cramer(m, b) == (0, None) for b in rhs)
        return
    _, adj = exact.adjugate(m)
    for b in rhs:
        assert exact.cramer(m, b) == (d, exact.matvec(adj, b))
    sign = 1 if d > 0 else -1
    assert exact.scaled_inverse(m) == (
        d, exact.freeze(tuple(sign * x for x in row) for row in adj)
    )


def test_fraction_free_kernels_reject_non_int_entries():
    # int() would truncate 3/2 to 1 and the exact divisions would be wrong.
    m = ((Fraction(3, 2), 0), (0, 1))
    for kernel in (exact.det, exact.adjugate, lambda a: exact.cramer(a, (1, 1))):
        with pytest.raises(PreconditionError):
            kernel(m)
    with pytest.raises(PreconditionError):
        exact.cramer(exact.identity(2), (Fraction(1, 2), 1))


def test_normal_forms_reject_non_int_entries():
    # int() would truncate 3/2 to 1, and both forms would be the identity's.
    for m in (((Fraction(3, 2), 0), (0, 1)), ((2, 0), (0, Fraction(6))), ((1, 2.0),)):
        for form in (exact.snf, exact.hnf):
            with pytest.raises(PreconditionError):
                form(m)


def test_snf_examples():
    res = exact.snf(exact.identity(3))
    assert res.s == exact.identity(3)
    res = exact.snf(((2, 0), (0, 6)))
    assert res.s == ((2, 0), (0, 6))
    res = exact.snf(exact.from_columns(((1, 0), (1, 2))))
    assert res.divisors == (1, 2)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_properties(m):
    res = exact.snf(m)
    assert exact.matmul(exact.matmul(res.u, m), res.v) == res.s
    assert abs(exact.det(res.u)) == 1
    assert abs(exact.det(res.v)) == 1
    divisors = res.divisors
    for a, b in zip(divisors, divisors[1:]):
        assert a > 0 and b % a == 0
    n = len(m)
    if len(divisors) == n:
        prod = 1
        for d in divisors:
            prod *= d
        assert prod == abs(exact.det(m))


def test_hnf_examples():
    h, u = exact.hnf(exact.identity(3))
    assert h == exact.identity(3)
    assert u == exact.identity(3)
    # 4x4 matrix already in normal form: pivots positive, entries above
    # each pivot reduced below it.
    m = ((1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 2, 0), (0, 0, 0, 3))
    h, u = exact.hnf(m)
    assert h == m
    h, _ = exact.hnf(exact.from_columns(((2, 0), (0, 3))))
    assert h == ((2, 0), (0, 3))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_hnf_properties(m):
    h, u = exact.hnf(m)
    assert exact.matmul(u, m) == h
    assert abs(exact.det(u)) == 1
    h2, _ = exact.hnf(h)
    assert h2 == h  # idempotent


def test_dual_basis_examples():
    assert reference_exact.dual_basis(exact.identity(3)) == exact.identity(3)
    r = exact.from_columns(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))
    duals = exact.columns(reference_exact.dual_basis(r))
    assert duals[3] == (0, 0, 0, Fraction(1, 5))
    assert duals[0] == (1, 0, 0, Fraction(-1, 5))
    r = exact.from_columns(((1, 0), (1, 2)))
    duals = exact.columns(reference_exact.dual_basis(r))
    assert duals[0] == (1, Fraction(-1, 2))
    assert duals[1] == (0, Fraction(1, 2))


def test_dual_basis_pairing_rectangular():
    r = exact.from_columns(((1, 1, 0), (0, 2, 2)))
    duals = reference_exact.dual_basis(r)
    assert exact.matmul(exact.transpose(r), duals) == exact.identity(2)


def test_dual_basis_rejects_dependent():
    with pytest.raises(PreconditionError):
        reference_exact.dual_basis(exact.from_columns(((1, 1), (2, 2))))


def _same_lattice(a_cols, b_cols):
    a = exact.from_columns(a_cols)
    b = exact.from_columns(b_cols)
    try:
        for col in b_cols:
            exact.as_int_vector(reference_exact.solve(a, col))
        for col in a_cols:
            exact.as_int_vector(reference_exact.solve(b, col))
    except MembershipError:
        return False
    return True


def _orth_project(v, r):
    """Rational orthogonal projection of v onto the complement of r."""
    factor = Fraction(exact.dot(v, r), exact.dot(r, r))
    return tuple(x - factor * y for x, y in zip(v, r))


def _projected_basis(lp):
    """Orthogonal projections of the preimage columns along the axis."""
    return tuple(
        _orth_project(col, lp.primitive) for col in exact.columns(lp.preimages)
    )


def _gram_det(cols):
    m = exact.from_columns(cols)
    return exact.rat_det(exact.matmul(exact.transpose(m), m))


def test_project_lattice_examples():
    z2 = exact.LatticeBasis(exact.identity(2), 2)
    proj = exact.project_lattice(z2, (0, 1))
    assert proj.primitive == (0, 1)
    assert exact.matvec(proj.coords, (0, 1)) == (0,)
    assert _same_lattice(_projected_basis(proj), ((1, 0),))
    proj = exact.project_lattice(z2, (1, 1))
    cols = _projected_basis(proj)
    assert len(cols) == 1
    assert cols[0] in ((Fraction(1, 2), Fraction(-1, 2)),
                       (Fraction(-1, 2), Fraction(1, 2)))
    z3 = exact.LatticeBasis(exact.identity(3), 3)
    proj = exact.project_lattice(z3, (0, 0, 1))
    assert _same_lattice(_projected_basis(proj), ((1, 0, 0), (0, 1, 0)))


def test_project_lattice_gram_determinant_law():
    # Squared covolume drops by exactly |p|^2 for the primitive direction p.
    z2 = exact.LatticeBasis(exact.identity(2), 2)
    skew = exact.LatticeBasis(exact.from_columns(((1, 1, 0), (0, 1, 2))), 3)
    for lat, directions in ((z2, ((1, 1), (2, 2), (1, 3), (5, 2))),
                            (skew, ((1, 0), (0, 1), (1, 1), (2, -3)))):
        for r in directions:
            full = exact.project_lattice(lat, cones.primitive(r))
            p = full.primitive
            assert p == exact.matvec(lat.matrix, cones.primitive(r))
            norm2 = exact.dot(p, p)
            assert _gram_det(_projected_basis(full)) == Fraction(
                _gram_det(exact.columns(lat.matrix)), norm2
            )


def test_project_lattice_rejects_bad_direction():
    z2 = exact.LatticeBasis(exact.identity(2), 2)
    for c in ((0, 0), (2, 0), (3, -6)):
        with pytest.raises(PreconditionError):
            exact.project_lattice(z2, c)


def test_preimages_project_onto_basis():
    # The coordinate map sends each preimage to its unit vector and the
    # axis to zero.
    z3 = exact.LatticeBasis(exact.identity(3), 3)
    full = exact.project_lattice(z3, (1, 2, 2))
    assert exact.matmul(full.coords, full.preimages) == exact.identity(2)
    assert exact.matvec(full.coords, full.primitive) == (0, 0)


def test_project_lattice_round_trip():
    # Every lattice point is the preimage of its projected coordinates plus
    # an integer multiple of the axis, and those coordinates solve the
    # rational orthogonal projection in the projected basis.
    lat = exact.LatticeBasis(
        exact.from_columns(((1, 1, 0), (0, 2, 0), (0, 1, 3))), 3
    )
    full = exact.project_lattice(lat, (1, -1, 2))
    basis = exact.from_columns(_projected_basis(full))
    p = full.primitive
    for x in itertools.product(range(-2, 3), repeat=3):
        z = exact.matvec(lat.matrix, x)
        y = exact.matvec(full.coords, x)
        rest = exact.vsub(z, exact.matvec(full.preimages, y))
        t = Fraction(exact.dot(rest, p), exact.dot(p, p))
        assert t.denominator == 1
        assert rest == exact.vscale(int(t), p)
        assert reference_exact.solve(basis, _orth_project(z, p)) == y


def test_solve_errors():
    with pytest.raises(MembershipError):
        reference_exact.solve(exact.from_columns(((1, 0, 0), (0, 1, 0))), (0, 0, 1))
    with pytest.raises(PreconditionError):
        reference_exact.solve(exact.from_columns(((1, 1), (2, 2))), (1, 1))
