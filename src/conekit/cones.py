"""Simplicial cones over the integer lattice.

A cone is given by linearly independent integer generator columns.  The
module computes multiplicities, enumerates the integer points of the
half-open generator parallelepiped together with their exact rational
coefficients, derives Hilbert bases, and answers membership queries.

Per-cone derived data is read off one Smith normal form U R V = S of the
generator matrix: the saturation basis, the coordinate matrix with the
integer adjugate that replaces its inverse, the lattice coordinates of a
point and the elementary divisors.  It is cached on the frozen cone value,
so repeated queries against the same cone are cheap.  Every per-point query
works on the scaled coefficients mult * lambda, which are integers for any
integer point of lin R; a `Fraction` is built only where the API returns one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

from . import exact
from .errors import MembershipError, PreconditionError


@dataclass(frozen=True)
class SimplicialCone:
    """Cone spanned by the integer columns r^1, ..., r^k inside R^n."""

    generators: tuple  # k columns, each an integer n-tuple

    def __post_init__(self):
        if not self.generators:
            raise PreconditionError("cone needs at least one generator")
        n = len(self.generators[0])
        if n == 0:
            raise PreconditionError("generators must have at least one entry")
        if any(len(g) != n for g in self.generators):
            raise PreconditionError("generator dimensions disagree")
        try:
            gens = tuple(exact.as_int_vector(g) for g in self.generators)
        except MembershipError as err:
            raise PreconditionError("generator entries must be integers") from err
        object.__setattr__(self, "generators", gens)
        gram = exact.matmul(self.generators, exact.transpose(self.generators))
        if exact.det(gram) == 0:
            raise PreconditionError("generators are linearly dependent")

    @property
    def matrix(self) -> exact.Matrix:
        """Generator matrix, n x k, columns are the generators."""
        return exact.from_columns(self.generators)

    @property
    def ambient_dim(self) -> int:
        return len(self.generators[0])

    @property
    def dim(self) -> int:
        return len(self.generators)

    def facet(self, drop: int) -> "SimplicialCone":
        """Cone spanned by all generators except the one at index `drop`.

        Memoised on the cone.  Part of an independent set of integer columns
        is one again, so a facet skips the checks of `__post_init__`.
        """
        facets = self.__dict__.setdefault("_facets", {})
        sub = facets.get(drop)
        if sub is None:
            gens = tuple(g for i, g in enumerate(self.generators) if i != drop)
            if not gens:
                return SimplicialCone(gens)  # raises: no generators left
            sub = object.__new__(SimplicialCone)
            object.__setattr__(sub, "generators", gens)
            facets[drop] = sub
        return sub


@dataclass(frozen=True)
class ParPoint:
    """Integer point of the half-open parallelepiped with its coefficients."""

    vector: tuple
    lam: tuple  # Fractions in [0, 1), one per generator
    scaled: tuple  # the integers mult * lam, each in [0, mult)


@dataclass(frozen=True)
class ParallelepipedSet:
    points: tuple  # ParPoint, sorted lexicographically by lam (= by scaled)

    def __len__(self):
        return len(self.points)

    def vectors(self) -> tuple:
        return tuple(p.vector for p in self.points)

    def nonzero(self) -> tuple:
        return tuple(p for p in self.points if any(p.lam))


@dataclass(frozen=True)
class HilbertBasis:
    elements: tuple  # integer vectors
    columns: tuple  # matching scaled coefficient vectors mult * lam (ints)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class _ConeContext:
    """Cached exact data read off the Smith normal form U R V = S."""

    sat: exact.LatticeBasis  # basis W of lin R cap Z^n: lift, or I when k == n
    coord: exact.Matrix  # C with W C = R: (U R)[:k], or R when k == n
    det_coord: int
    mult: int  # |det C|
    coord_adj: exact.Matrix  # integer mult * C^{-1}; not the signed adjugate
    u: exact.Matrix  # U; U z = (coordinates of z in lift, then zeros) on lin R
    lift: exact.Matrix  # U^{-1}[:, :k], a basis of lin R cap Z^n
    divisors: tuple  # diagonal of S: elementary divisors of (lin R cap Z^n) / R Z^k


@lru_cache(maxsize=None)
def _context(cone: SimplicialCone) -> _ConeContext:
    r = cone.matrix
    k, n = cone.dim, cone.ambient_dim
    res = exact.snf(r)
    lift = tuple(row[:k] for row in exact.int_inverse(res.u))
    if k == n:
        sat, coord = exact.identity(n), r
    else:
        sat, coord = lift, exact.matmul(res.u[:k], r)
    det_coord, coord_adj = exact.scaled_inverse(coord)
    return _ConeContext(
        sat=exact.LatticeBasis(sat, n),
        coord=coord,
        det_coord=det_coord,
        mult=abs(det_coord),
        coord_adj=coord_adj,
        u=res.u,
        lift=lift,
        divisors=res.divisors,
    )


def saturation_basis(cone: SimplicialCone) -> exact.LatticeBasis:
    """Integer basis of lin(generators) intersected with Z^n."""
    return _context(cone).sat


def multiplicity(cone: SimplicialCone) -> int:
    """Number of integer points in the half-open generator parallelepiped."""
    return _context(cone).mult


def lattice_coords(cone: SimplicialCone, z: Sequence) -> tuple:
    """Integer coordinates of z in the saturation basis.

    Raises MembershipError when z has the wrong length, is not integral or
    lies outside lin R cap Z^n.  Every per-point query of the module starts
    here.
    """
    zv = exact.as_int_vector(z)
    if len(zv) != cone.ambient_dim:
        raise MembershipError(
            f"point has {len(zv)} coordinates, the cone lives in dimension "
            f"{cone.ambient_dim}"
        )
    k = cone.dim
    if k == len(zv):
        return zv  # full-dimensional: the saturation basis is the identity
    uz = exact.matvec(_context(cone).u, zv)
    if any(uz[k:]):
        raise MembershipError("vector lies outside the linear span of the cone")
    return uz[:k]


def scaled_coefficients(cone: SimplicialCone, z: Sequence) -> tuple:
    """Integer vector mult * lambda(z) for an integer z in lin R cap Z^n.

    With s = mult * lambda: lambda >= 0 iff s >= 0, lambda_i is integral iff
    s_i % mult == 0, floor(lambda_i) = s_i // mult, and lambda_i == 1 iff
    s_i == mult.
    """
    return exact.matvec(_context(cone).coord_adj, lattice_coords(cone, z))


def coefficients(cone: SimplicialCone, z: Sequence) -> tuple:
    """The unique lambda with R lambda = z, exact rationals."""
    mult = _context(cone).mult
    return tuple(Fraction(s, mult) for s in scaled_coefficients(cone, z))


def contains(cone: SimplicialCone, z: Sequence) -> bool:
    try:
        s = scaled_coefficients(cone, z)
    except MembershipError:
        return False
    return all(x >= 0 for x in s)


def contains_interior(cone: SimplicialCone, z: Sequence) -> bool:
    try:
        s = scaled_coefficients(cone, z)
    except MembershipError:
        return False
    return all(x > 0 for x in s)


@lru_cache(maxsize=None)
def enumerate_parallelepiped(cone: SimplicialCone) -> ParallelepipedSet:
    """All integer points of par(R), each with exact coefficients in [0, 1)^k.

    The points lift * y, y in the box of the Smith divisors, represent every
    coset of (lin R cap Z^n) / R Z^k once; each is reduced coefficient-wise
    mod 1 into par(R).
    """
    ctx = _context(cone)
    mult = ctx.mult
    r = cone.matrix
    points = []
    for y in itertools.product(*(range(d) for d in ctx.divisors)):
        z = exact.matvec(ctx.lift, y)
        s = scaled_coefficients(cone, z)
        floors = tuple(v // mult for v in s)
        frac = tuple(v % mult for v in s)
        vec = exact.vsub(z, exact.matvec(r, floors))
        points.append(ParPoint(vec, tuple(Fraction(v, mult) for v in frac), frac))
    points.sort(key=lambda p: p.scaled)
    assert len(points) == mult
    return ParallelepipedSet(tuple(points))


def primitive(v: Sequence) -> tuple:
    g = gcd(*v)
    return tuple(x // g for x in v)


@lru_cache(maxsize=None)
def hilbert_basis(cone: SimplicialCone) -> HilbertBasis:
    """Unique minimal integer generating set of cone cap Z^n.

    Candidates are the nonzero parallelepiped points plus the primitive
    vector on every extreme ray; an element is dropped iff subtracting some
    other candidate leaves a nonzero integer cone point, which by coefficient
    monotonicity is a complete irreducibility test.  The columns, the only
    input of `search.find_combination`, are nonnegative, nonzero and pairwise
    non-parallel: were u = t * v with t > 1, u - v would make u reducible.
    """
    par = enumerate_parallelepiped(cone)
    mult = _context(cone).mult
    candidates = {}
    for p in par.nonzero():
        candidates[p.vector] = p.scaled
    for i, g in enumerate(cone.generators):
        # prim = g / d has lambda = e_i / d; mult * lambda is integral because
        # prim is a lattice point of lin R, so d divides mult.
        d = gcd(*g)
        scaled = tuple(mult // d if j == i else 0 for j in range(cone.dim))
        candidates.setdefault(primitive(g), scaled)
    kept = []
    items = sorted(candidates.items(), key=lambda kv: kv[1])
    for vec, s in items:
        reducible = False
        for other_vec, other_s in items:
            if other_vec == vec:
                continue
            if all(a <= b for a, b in zip(other_s, s)):
                reducible = True
                break
        if not reducible:
            kept.append((vec, s))
    return HilbertBasis(
        elements=tuple(v for v, _ in kept),
        columns=tuple(s for _, s in kept),
    )
