"""Exact linear algebra: determinants, normal forms, duals, projections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import exact
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
    assert exact.dual_basis(exact.identity(3)) == exact.identity(3)
    r = exact.from_columns(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))
    duals = exact.columns(exact.dual_basis(r))
    assert duals[3] == (0, 0, 0, Fraction(1, 5))
    assert duals[0] == (1, 0, 0, Fraction(-1, 5))
    r = exact.from_columns(((1, 0), (1, 2)))
    duals = exact.columns(exact.dual_basis(r))
    assert duals[0] == (1, Fraction(-1, 2))
    assert duals[1] == (0, Fraction(1, 2))


def test_dual_basis_pairing_rectangular():
    r = exact.from_columns(((1, 1, 0), (0, 2, 2)))
    duals = exact.dual_basis(r)
    assert exact.matmul(exact.transpose(r), duals) == exact.identity(2)


def test_dual_basis_rejects_dependent():
    with pytest.raises(PreconditionError):
        exact.dual_basis(exact.from_columns(((1, 1), (2, 2))))


def _same_lattice(a_cols, b_cols):
    a = exact.from_columns(a_cols)
    b = exact.from_columns(b_cols)
    try:
        for col in b_cols:
            exact.as_int_vector(exact.solve(a, col))
        for col in a_cols:
            exact.as_int_vector(exact.solve(b, col))
    except MembershipError:
        return False
    return True


def test_sublattice_basis_examples():
    lat = exact.sublattice_basis(exact.identity(3))
    assert lat.matrix == exact.identity(3)
    lat = exact.sublattice_basis(exact.from_columns(((2, 2),)))
    assert _same_lattice(lat.basis_columns(), ((1, 1),))
    lat = exact.sublattice_basis(exact.from_columns(((1, 0), (1, 2))))
    assert lat.matrix == exact.identity(2)


def test_project_lattice_examples():
    z2 = exact.LatticeBasis(exact.identity(2), 2)
    proj = exact.project_lattice(z2, (0, 1))
    assert _same_lattice(proj.basis_columns(), ((1, 0),))
    proj = exact.project_lattice(z2, (1, 1))
    cols = proj.basis_columns()
    assert len(cols) == 1
    assert cols[0] in ((Fraction(1, 2), Fraction(-1, 2)),
                       (Fraction(-1, 2), Fraction(1, 2)))
    z3 = exact.LatticeBasis(exact.identity(3), 3)
    proj = exact.project_lattice(z3, (0, 0, 1))
    assert _same_lattice(proj.basis_columns(), ((1, 0, 0), (0, 1, 0)))


def test_project_lattice_gram_determinant_law():
    # Squared covolume drops by exactly |p|^2 for the primitive direction p.
    z2 = exact.LatticeBasis(exact.identity(2), 2)
    for r in ((1, 1), (2, 2), (1, 3), (5, 2)):
        full = exact.project_lattice_full(z2, r)
        p = full.primitive
        norm2 = exact.dot(p, p)
        assert full.basis.gram_det() == Fraction(z2.gram_det(), norm2)


def test_project_lattice_rejects_bad_direction():
    z2 = exact.LatticeBasis(exact.identity(2), 2)
    with pytest.raises(MembershipError):
        exact.project_lattice(z2, (0, 0))
    even = exact.LatticeBasis(exact.from_columns(((2, 0), (0, 2))), 2)
    with pytest.raises(MembershipError):
        exact.project_lattice(even, (1, 0))


def test_preimages_project_onto_basis():
    z3 = exact.LatticeBasis(exact.identity(3), 3)
    full = exact.project_lattice_full(z3, (1, 2, 2))
    for pre, col in zip(
        exact.columns(full.preimages), full.basis.basis_columns()
    ):
        assert full.project(pre) == tuple(Fraction(x) for x in col)


def test_integerize_examples():
    vectors = exact.from_columns(((1, 1), (1, -1)))
    basis = exact.from_columns(((1, 1), (0, 2)))
    coords, transform = exact.integerize(vectors, basis)
    assert exact.columns(coords) == ((1, 0), (1, -1))
    for col in exact.columns(vectors):
        assert transform.from_coords(transform.to_coords(col)) == col


def test_integerize_rejects_outside_lattice():
    basis = exact.from_columns(((2, 0), (0, 2)))
    with pytest.raises(MembershipError):
        exact.integerize(exact.from_columns(((1, 0),)), basis)


def test_solve_errors():
    with pytest.raises(MembershipError):
        exact.solve(exact.from_columns(((1, 0, 0), (0, 1, 0))), (0, 0, 1))
    with pytest.raises(PreconditionError):
        exact.solve(exact.from_columns(((1, 1), (2, 2))), (1, 1))
