"""Constructive decomposition of integer cone points into few terms.

Every integer point of a simplicial cone is written as a nonnegative integer
combination of generators and parallelepiped points, with the number of
distinct terms controlled by the cone's dimension and coset structure.  The
recursion branches, in order, on

  * dimension at most 3 (bounded exact search over the Hilbert basis),
  * multiplicity 1 (the generators form a lattice basis),
  * a generator with integral dual (strip it and recurse on the facet),
  * two generators with equal dual cosets (project along one, recurse on the
    projected cone, lift the terms back),
  * dimension 4, multiplicity 5, four distinct non-trivial cosets (solve in
    the 18-subcone unimodular cover),
  * otherwise a bounded exact search with at most 2k-2 terms.

Each run records a trace of the choices taken, which can be replayed to
reproduce the decomposition deterministically.

The recursion works on the scaled coefficients s = mult * lambda of each
point.  A strip or a projection along generator i keeps lambda_l for every
l != i, so a child's coefficients are passed down as an exact rescale of
its parent's instead of being recomputed from lattice coordinates.
`decompose_sample` decomposes a whole sample in one pass: its points share
one memo of child calls, which lives only as long as that iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import cones, cosets, cover, exact, search
from .cones import SimplicialCone
from .errors import CertificateError, MembershipError


# ---------------------------------------------------------------------------
# traces and results


@dataclass(frozen=True)
class StripStep:
    """A generator with integral dual was subtracted `coeff` times."""

    index: int
    coeff: int


@dataclass(frozen=True)
class ProjectStep:
    """Projected along generator `axis`, whose dual equals that of `partner`.

    `sigma` counts the primitive steps along the axis left over after lifting
    the projected decomposition.
    """

    axis: int
    partner: int
    sigma: int


@dataclass(frozen=True)
class BaseStep:
    dim: int
    method: str  # "unimodular" or "search"


@dataclass(frozen=True)
class CoverStep:
    subcone_index: int


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple


@dataclass(frozen=True)
class Decomposition:
    target: tuple
    terms: tuple  # ((coeff, vector), ...) with coeff >= 1, vectors distinct
    all_hilbert: bool  # every term vector belongs to the Hilbert basis
    trace: ReductionTrace

    def term_count(self) -> int:
        return len(self.terms)

    def vector_sum(self) -> tuple:
        total = tuple(0 for _ in self.target)
        for c, v in self.terms:
            total = exact.vadd(total, exact.vscale(c, v))
        return total


# ---------------------------------------------------------------------------
# public entry points


def decompose(cone: SimplicialCone, z, node_budget=None) -> Decomposition:
    """Decompose the integer point z of the cone; raises on non-membership."""
    return next(decompose_sample(cone, (z,), node_budget))


def decompose_sample(cone: SimplicialCone, points, node_budget=None):
    """Yield `decompose(cone, z, node_budget)` for every point, in order.

    One pass over the sample: strip and projection children are looked up
    in a memo that the points share and that lives only as long as the
    iteration.  All partial sums of a sample point's decomposition stay in
    the sample's coefficient box, so nearby points reach the same child
    point (a strip maps z and z + g_i to one facet point).  The top-level
    calls are not memoised, and each decomposition is yielded as soon as it
    is validated, so a caller that consumes them one by one never holds the
    whole sample's.
    """
    hilbert = frozenset(cones.hilbert_basis(cone).elements)
    memo = {}
    for z in points:
        target = exact.as_int_vector(z)
        steps = []
        s = cones.scaled_coefficients(cone, target)
        merged = _merge(_reduce(cone, target, s, steps, node_budget, memo))
        _validate(cone, target, merged, hilbert)
        yield Decomposition(
            target=target,
            terms=merged,
            all_hilbert=all(v in hilbert for _, v in merged),
            trace=ReductionTrace(tuple(steps)),
        )


def replay(cone: SimplicialCone, z, trace: ReductionTrace, node_budget=None):
    """Re-run the decomposition and check it makes the recorded choices."""
    dec = decompose(cone, z, node_budget=node_budget)
    if dec.trace != trace:
        raise CertificateError(
            "recomputed decomposition deviates from the recorded trace"
        )
    return dec


def reduce_to_hilbert(cone: SimplicialCone, dec: Decomposition, node_budget=None):
    """Rewrite every non-Hilbert term as a minimal Hilbert-basis combination."""
    hb = cones.hilbert_basis(cone)
    hb_set = set(hb.elements)
    new_terms = []
    for c, v in dec.terms:
        if v in hb_set:
            new_terms.append((c, v))
            continue
        s = cones.scaled_coefficients(cone, v)
        for cc, vv in _search_terms(cone, s, len(hb), node_budget):
            new_terms.append((c * cc, vv))
    merged = _merge(new_terms)
    _validate(cone, dec.target, merged, hb_set)
    return Decomposition(
        target=dec.target, terms=merged, all_hilbert=True, trace=dec.trace
    )


@dataclass(frozen=True)
class IcrBound:
    value: int
    method: str


def icr_upper_bound(cone: SimplicialCone) -> IcrBound:
    """Best applicable upper bound on the integer Caratheodory rank."""
    k = cone.dim
    delta = cones.multiplicity(cone)
    options = []
    if k <= 3:
        options.append((k, "dim-le-3"))
    if delta <= 5:
        options.append((k, "small-multiplicity"))
    profile = cosets.coset_profile(cone)
    if profile.nontrivial_class_count <= 3:
        options.append((k, "few-cosets"))
    if 6 <= delta <= k:
        options.append((k + delta - 3, "pigeonhole"))
    if k >= 2:
        options.append((2 * k - 2, "general"))
    value, method = min(options, key=lambda t: t[0])
    return IcrBound(value=value, method=method)


# ---------------------------------------------------------------------------
# recursion


def _reduce(cone, z, s, steps, node_budget, memo):
    # s = mult * lambda(z): integers with the signs and order of lambda.
    if any(x < 0 for x in s):
        raise MembershipError("vector lies outside the cone")
    if not any(s):
        return []
    k = cone.dim
    if k <= 3:
        steps.append(BaseStep(dim=k, method="search"))
        return _search_terms(cone, s, k, node_budget)
    mult = cones.multiplicity(cone)
    if mult == 1:
        steps.append(BaseStep(dim=k, method="unimodular"))
        return [(c, g) for c, g in zip(s, cone.generators) if c != 0]
    profile = cosets.coset_profile(cone)
    for i, integral in enumerate(profile.integral_flags):
        if integral:
            return _strip_reduce(cone, z, s, mult, i, steps, node_budget, memo)
    pair = _select_pair(profile, s)
    if pair is not None:
        return _project_reduce(cone, z, s, mult, pair, steps, node_budget, memo)
    if k == 4 and mult == 5:
        terms, idx = cover.solve_in_cover(cover.build_cover_det5(cone), s)
        steps.append(CoverStep(subcone_index=idx))
        return list(terms)
    steps.append(BaseStep(dim=k, method="search"))
    return _search_terms(cone, s, 2 * k - 2, node_budget)


def _reduce_child(cone, z, s, steps, node_budget, memo):
    """`_reduce` on a strip or projection child, through the sample's memo.

    An entry holds the child's terms and the steps it appended, sliced once
    the call has returned, when a projection placeholder has been filled
    in.  A hit appends those steps again and returns a copy of the terms,
    so the trace is the one a fresh call would record.
    """
    key = (cone, z)
    hit = memo.get(key)
    if hit is None:
        start = len(steps)
        terms = _reduce(cone, z, s, steps, node_budget, memo)
        hit = memo[key] = (tuple(terms), tuple(steps[start:]))
    else:
        steps.extend(hit[1])
    return list(hit[0])


def _child_coefficients(s, axis, mult, child_mult):
    """Scaled coefficients of the child of a strip or projection along `axis`.

    Both steps keep lambda_l for every l != axis, and the child's generators
    are the images of the other generators in order, so its scaled
    coefficients are child_mult * s_l / mult.  The division is exact for an
    integer child point; a remainder is a certificate failure.
    """
    child = []
    for l, x in enumerate(s):
        if l != axis:
            q, r = divmod(child_mult * x, mult)
            if r:
                raise CertificateError("child point has a fractional coefficient")
            child.append(q)
    return tuple(child)


def _strip_reduce(cone, z, s, mult, i, steps, node_budget, memo):
    # lambda_i = s_i / mult is the pairing with an integral dual vector, hence
    # an integer.
    mu, rem = divmod(s[i], mult)
    if rem:
        raise CertificateError("integral dual gave a fractional coefficient")
    steps.append(StripStep(index=i, coeff=mu))
    facet = cone.facet(i)
    rest = exact.vsub(z, exact.vscale(mu, cone.generators[i]))
    s_rest = _child_coefficients(s, i, mult, cones.multiplicity(facet))
    terms = _reduce_child(facet, rest, s_rest, steps, node_budget, memo)
    if mu >= 1:
        terms = terms + [(mu, cone.generators[i])]
    return terms


def _select_pair(profile, s):
    """Lexicographically smallest pair (i, j), oriented so lambda_i >= lambda_j.

    `s` holds the scaled coefficients mult * lambda, which order alike.
    """
    oriented = []
    for a, b in profile.equal_pairs:
        oriented.append((a, b) if s[a] >= s[b] else (b, a))
    return min(oriented) if oriented else None


@dataclass(frozen=True)
class _ProjectionData:
    subcone: SimplicialCone  # projected cone in projected-lattice coordinates
    coords: exact.Matrix  # lattice coordinates -> projected coordinates
    preimages: exact.Matrix  # lattice preimages of the coordinate basis
    primitive: tuple  # primitive lattice vector along the projection axis
    kept: tuple  # kept[m] = original generator index of subcone generator m


@lru_cache(maxsize=None)
def _projection_data(cone: SimplicialCone, axis: int) -> _ProjectionData:
    gens = cone.generators
    lp = exact.project_lattice(
        cones.saturation_basis(cone),
        cones.primitive(cones.lattice_coords(cone, gens[axis])),
    )
    kept = tuple(l for l in range(cone.dim) if l != axis)
    return _ProjectionData(
        subcone=SimplicialCone(tuple(
            exact.matvec(lp.coords, cones.lattice_coords(cone, gens[l]))
            for l in kept
        )),
        coords=lp.coords,
        preimages=lp.preimages,
        primitive=lp.primitive,
        kept=kept,
    )


def _project_reduce(cone, z, s, mult, pair, steps, node_budget, memo):
    i, j = pair
    pos = len(steps)
    steps.append(None)  # ProjectStep filled in once sigma is known
    data = _projection_data(cone, i)
    z_proj = exact.matvec(data.coords, cones.lattice_coords(cone, z))
    s_proj = _child_coefficients(s, i, mult, cones.multiplicity(data.subcone))
    sub = _reduce_child(data.subcone, z_proj, s_proj, steps, node_budget, memo)
    lifted = []
    for c, v in sub:
        lifted.append((c, _lift(cone, data, i, v)))
    residual = z
    for c, v in lifted:
        residual = exact.vsub(residual, exact.vscale(c, v))
    sigma = _axis_multiple(data.primitive, residual)
    if sigma < 0:
        raise CertificateError("projection left a negative residual coefficient")
    steps[pos] = ProjectStep(axis=i, partner=j, sigma=sigma)
    if sigma >= 1:
        lifted.append((sigma, data.primitive))
    return lifted


def _lift(cone, data, axis, v):
    """Lift a term of the projected decomposition back into the cone.

    Projected generators lift to the matching original generators; projected
    parallelepiped points lift to the unique preimage whose coefficient on
    the projection axis lands in [0, 1), which is a parallelepiped point of
    the original cone.
    """
    s = cones.scaled_coefficients(data.subcone, v)
    sub_mult = cones.multiplicity(data.subcone)
    unit = _unit_index(s, sub_mult)
    if unit is not None:
        return cone.generators[data.kept[unit]]
    if not all(0 <= x < sub_mult for x in s):
        raise CertificateError(
            "projected term is neither a generator nor a parallelepiped point"
        )
    x = exact.matvec(data.preimages, v)
    shift = cones.scaled_coefficients(cone, x)[axis] // cones.multiplicity(cone)
    return exact.vsub(x, exact.vscale(shift, cone.generators[axis]))


def _unit_index(s, mult):
    """Index i with s = mult * e_i (a generator's scaled coefficients), else None."""
    unit = None
    for idx, x in enumerate(s):
        if x == 0:
            continue
        if x == mult and unit is None:
            unit = idx
        else:
            return None
    return unit


def _axis_multiple(primitive, residual):
    """The integer t with residual = t * primitive; certificate on failure."""
    pivot = next((idx for idx, x in enumerate(primitive) if x != 0), None)
    if pivot is None:
        raise CertificateError("projection axis is the zero vector")
    if all(x == 0 for x in residual):
        return 0
    if residual[pivot] % primitive[pivot] != 0:
        raise CertificateError("residual is a fractional multiple of the axis")
    t = residual[pivot] // primitive[pivot]
    if exact.vscale(t, primitive) != tuple(residual):
        raise CertificateError("residual is not parallel to the projection axis")
    return t


# ---------------------------------------------------------------------------
# shared helpers


def _search_terms(cone, s, max_terms, node_budget):
    """Fewest Hilbert basis terms, at most max_terms, for scaled coefficients s."""
    hb = cones.hilbert_basis(cone)
    found, _ = search.find_combination(hb.columns, s, max_terms, node_budget)
    if found is None:
        raise CertificateError(
            f"no combination of at most {max_terms} Hilbert basis elements exists"
        )
    return [(c, hb.elements[idx]) for c, idx in found]


def _merge(terms):
    by_vector = {}
    for c, v in terms:
        v = tuple(v)
        by_vector[v] = by_vector.get(v, 0) + c
    return tuple(sorted(((c, v) for v, c in by_vector.items() if c != 0),
                        key=lambda t: t[1]))


def _validate(cone, target, terms, hilbert):
    """Positive coefficients, every term in the cone, and the exact sum.

    A term in `hilbert`, the cone's Hilbert basis, lies in the cone by
    construction; any other term is tested with `cones.contains`.
    """
    total = tuple(0 for _ in target)
    for c, v in terms:
        if c < 1:
            raise CertificateError("decomposition has a non-positive coefficient")
        if v not in hilbert and not cones.contains(cone, v):
            raise CertificateError("decomposition term lies outside the cone")
        total = exact.vadd(total, exact.vscale(c, v))
    if total != target:
        raise CertificateError("decomposition terms do not sum to the target")
