"""Independent brute-force verification of decomposition claims.

Everything here recomputes results from first principles: minimal term
counts, covering-family proofs on rows recomputed from the subcone
generators, and sampled checks of the dimension bound on dilated point sets.
Minimal term counts come from two independent algorithms: a complete
iterative-deepening search per point (`min_terms`), and one breadth-first
pass over level-wise sumsets of the Hilbert columns that labels a whole
dilated sample at once (`sample_min_terms`, behind `sample_icp`).  The
routines share no logic with the decomposition engine beyond the Hilbert
basis itself, so agreement between the two is meaningful evidence.  A
cover's pairwise disjointness is accepted from the Gordan certificate the
cover carries only when that vector checks out on the recomputed rows,
which is a proof by itself; otherwise the pair is decided by complete
basic-solution enumeration instead of variable elimination.  A certificate
can therefore save work but never change a verdict.  Completeness of a
cover is proved, not sampled: subcones inside the cone with disjoint
interiors whose volumes add up to the cone's fill it.

All of it computes with integers: the cover check solves its candidate
vertices with the fraction-free `exact.cramer`.  The rational
`exact.rat_det`/`rat_inverse` are not used here; they stay in `exact` as the
references the tests compare the integer kernels against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

from . import cones, exact, search
from .cones import SimplicialCone
from .decompose import Decomposition, ReductionTrace
from .errors import (
    CertificateError,
    MembershipError,
    PreconditionError,
    UnresolvedError,
)


@dataclass(frozen=True)
class OracleReport:
    target: tuple
    min_terms: object  # int, or None when the search was inconclusive
    witness: object  # Decomposition or None
    nodes: int
    bound: int  # cardinality bound the search ran under
    status: str  # "exact" or "inconclusive"


def min_terms(cone: SimplicialCone, z, node_budget=None):
    """Exact minimal number of Hilbert basis elements summing to z.

    Complete within the coefficient bounds: for each basis element the
    coefficient never exceeds min over its positive coordinates of the
    corresponding target coordinate ratio, so the search space is finite and
    the first hit of the deepening loop is the true minimum.  The report is
    `inconclusive` only when the node budget runs out; a search that ends
    without a hit raises CertificateError, since every cone point is a sum
    of at most basis-size Hilbert basis elements.
    """
    target = exact.as_int_vector(z)
    scaled = cones.scaled_coefficients(cone, target)
    if any(x < 0 for x in scaled):
        raise MembershipError("oracle target lies outside the cone")
    hb = cones.hilbert_basis(cone)
    bound = len(hb)
    try:
        found, nodes = search.find_combination(
            hb.columns, scaled, bound, node_budget
        )
    except UnresolvedError as err:
        return OracleReport(
            target=target,
            min_terms=None,
            witness=None,
            nodes=err.nodes or 0,
            bound=bound,
            status="inconclusive",
        )
    if found is None:
        raise CertificateError(
            f"no combination of at most {bound} Hilbert basis elements sums "
            f"to {target}"
        )
    terms = tuple(sorted(((c, hb.elements[i]) for c, i in found),
                         key=lambda t: t[1]))
    witness = Decomposition(
        target=target,
        terms=terms,
        all_hilbert=True,
        trace=ReductionTrace(()),
    )
    return OracleReport(
        target=target,
        min_terms=len(terms),
        witness=witness,
        nodes=nodes,
        bound=bound,
        status="exact",
    )


def _require_dilation(dilation: int) -> None:
    if dilation < 1:
        raise PreconditionError(f"dilation must be at least 1, got {dilation}")


def dilated_sample(cone: SimplicialCone, dilation: int) -> tuple:
    """All integer cone points with generator coefficients in [0, dilation)."""
    _require_dilation(dilation)
    par = cones.enumerate_parallelepiped(cone)
    points = []
    for shift in itertools.product(range(dilation), repeat=cone.dim):
        offset = tuple(0 for _ in range(cone.ambient_dim))
        for c, g in zip(shift, cone.generators):
            offset = exact.vadd(offset, exact.vscale(c, g))
        for p in par.points:
            points.append(exact.vadd(p.vector, offset))
    return tuple(points)


def sample_min_terms(cone: SimplicialCone, dilation: int) -> tuple:
    """`min_terms` of every point of `dilated_sample`, in its order.

    One breadth-first pass over sumsets labels the whole sample.  In scaled
    coefficients s = mult * lambda the sample is the set B of lattice points
    with 0 <= s_i < D = dilation * mult, and every partial sum of a
    nonnegative decomposition of a point of B lies in B again.  The steps
    are the multiples c * h of the Hilbert columns h that lie in B.  Level 0
    is {0}, and level m holds the points of B not labelled yet that are a
    level m - 1 point plus one step.  Dropping one term of a minimal
    decomposition with support m leaves one with support m - 1, so the first
    level that reaches a point is its minimal term count.  A sample point
    that no level reaches raises CertificateError, as `min_terms` does.

    A point is packed into one int with a field of w bits per coordinate
    holding s_i + 2^(w-1) - D, so s_i < D iff the field's top bit is clear.
    Adding an unbiased step to a point of B cannot carry out of a field, and
    the sum lies in B iff no top bit is set.
    """
    _require_dilation(dilation)
    mult = cones.multiplicity(cone)
    k = cone.dim
    bound = dilation * mult
    width = bound.bit_length() + 1  # 2^(w-1) >= D
    offsets = [width * i for i in range(k)]
    top = sum(1 << (o + width - 1) for o in offsets)

    def pack(s, bias=0):
        return sum((x + bias) << o for x, o in zip(s, offsets))

    steps = []
    for h in cones.hilbert_basis(cone).columns:
        unit = pack(h)
        steps.extend(c * unit for c in range(1, (bound - 1) // max(h) + 1))
    size = dilation**k * mult
    bias = (1 << (width - 1)) - bound
    zero = pack((0,) * k, bias)
    labels = {zero: 0}
    frontier = [zero]
    level = 0
    while frontier and len(labels) < size:
        level += 1
        reached = []
        for p in frontier:
            for step in steps:
                q = p + step
                if not q & top and q not in labels:
                    labels[q] = level
                    reached.append(q)
        frontier = reached

    par = cones.enumerate_parallelepiped(cone).points
    keys = [pack(p.scaled, bias) for p in par]
    counts = []
    for shift in itertools.product(range(dilation), repeat=k):
        offset = mult * pack(shift)
        for p, key in zip(par, keys):
            count = labels.get(key + offset)
            if count is None:
                scaled = tuple(a + mult * b for a, b in zip(p.scaled, shift))
                raise CertificateError(
                    "no combination of Hilbert basis elements reaches the "
                    f"sample point with scaled coefficients {scaled}"
                )
            counts.append(count)
    return tuple(counts)


@dataclass(frozen=True)
class IcpSampleReport:
    dilation: int
    point_count: int
    max_min_terms: int
    worst: tuple  # the sampled targets attaining the maximum
    inconclusive: int  # always 0: the sumset pass has no budget to run out


def sample_icp(cone: SimplicialCone, dilation: int = 2):
    """Maximal minimal term count over the dilated sample of cone points.

    The counts come from `sample_min_terms`, exact for every point, so no
    point is inconclusive.  A sampled check only: it can falsify a dimension
    bound but never prove one, since the true rank is a maximum over all
    integer points.
    """
    counts = sample_min_terms(cone, dilation)
    best = max(counts)
    worst = ()
    if best > 0:
        worst = tuple(
            _sample_point(cone, dilation, idx)
            for idx, count in enumerate(counts) if count == best
        )
    return IcpSampleReport(
        dilation=dilation,
        point_count=len(counts),
        max_min_terms=best,
        worst=worst,
        inconclusive=0,
    )


def _sample_point(cone: SimplicialCone, dilation: int, idx: int) -> tuple:
    """Point `idx` of `dilated_sample(cone, dilation)`, built on its own.

    The sample lists, for each shift in `itertools.product` order, every
    parallelepiped point; so idx // mult is the shift's rank, read as k
    base-`dilation` digits with the first generator's most significant.
    """
    par = cones.enumerate_parallelepiped(cone).points
    rank, pos = divmod(idx, len(par))
    z = par[pos].vector
    for i in reversed(range(cone.dim)):
        rank, c = divmod(rank, dilation)
        z = exact.vadd(z, exact.vscale(c, cone.generators[i]))
    return z


# ---------------------------------------------------------------------------
# cover verification


@dataclass(frozen=True)
class CoverVerification:
    ok: bool
    unimodular_ok: bool
    disjoint_ok: bool
    volume_ok: bool
    complete_ok: bool  # proved: inside the cone, disjoint, volume identity
    volume: object  # Fraction, or None when a subcone leaves the cone
    failures: tuple  # human-readable descriptions of what failed
    fallback_pairs: int  # pairs without a valid certificate, decided by enumeration


def _coord_columns(parent, sub) -> exact.Matrix:
    return exact.from_columns(cones.lattice_coords(parent, g) for g in sub.generators)


def _certifies_disjoint(y, rows) -> bool:
    """Whether y is a Gordan certificate that {x : rows . x > 0} is empty.

    y must be a nonnegative, nonzero integer vector with y . rows = 0: a point
    x with every rows . x > 0 would give 0 = (y . rows) . x > 0.
    """
    return (
        len(y) == len(rows)
        and all(isinstance(v, int) and v >= 0 for v in y)
        and any(y)
        and not any(exact.dot(y, col) for col in zip(*rows))
    )


def _basic_solution_intersect(rows_a, rows_b) -> bool:
    """Whether two open cones {x : rows . x > 0} meet, by basic solutions.

    The rows are integer, e.g. the sign-normalised adjugates of the generator
    matrices.  By homogeneity the question is whether the closed system
    rows_a . x >= 1, rows_b . x >= 1 is feasible.  Its feasible region lies
    inside a pointed translated cone (the first block is invertible), so when
    nonempty it has a vertex, and every vertex makes some d of the
    constraints tight with an invertible coefficient submatrix.  Checking all
    candidate vertices is therefore a complete feasibility test.  The vertex
    of a tight subset `sub` is y / D with (D, y) = (det sub, adj(sub) . 1),
    so row . x >= 1 reads row . y >= D once D > 0.
    """
    rows = tuple(rows_a) + tuple(rows_b)
    ones = (1,) * len(rows_a)
    for sub in itertools.combinations(rows, len(rows_a)):
        d, y = exact.cramer(sub, ones)
        if d == 0:
            continue
        if d < 0:
            d, y = -d, tuple(-v for v in y)
        if all(exact.dot(row, y) >= d for row in rows):
            return True
    return False


def verify_cover(cover, cone: SimplicialCone) -> CoverVerification:
    """Re-check a covering family without reusing its construction.

    Each subcone's coordinate matrix in the parent lattice is recomputed
    here, and the subcone is unimodular iff its determinant is +-1.
    Interior disjointness is checked on the sign-normalised integer
    adjugates of those matrices: a pair is disjoint when the cover's
    certificate y for it is nonnegative, nonzero and annihilates the pair's
    rows; for any other pair (no certificate, or one that fails)
    basic-solution enumeration decides, and `fallback_pairs` counts those
    pairs.  A subcone with a generator outside the parent's linear span has
    no coordinate matrix: it is reported, counts as not contained and is
    left out of the other checks.  Containment is checked on the scaled
    coefficients of every subcone generator in the parent.  The volume
    identity sums exact volumes of the subcones cut at coefficient sum 2 in
    the parent lattice coordinates; it is only defined once every subcone
    lies in the cone.

    Together these prove completeness: the cut subcones are closed
    simplices inside the cut cone with disjoint interiors, so when their
    volumes add up to the cut cone's, the points they miss form an open set
    of measure zero, which is empty, and by homogeneity the subcones cover
    the cone.  Everything is integer; the only `Fraction`s built are the
    reported volume and the target it is compared with.
    """
    failures = []
    subcones = [s.cone for s in cover.subcones]

    # A subcone with a generator outside the cone's linear span has no
    # coordinate matrix; it is reported and left out of the checks on rows.
    # A non-unimodular subcone still has a nonsingular coordinate matrix, so
    # its adjugate rows exist and the checks below run on it as well.
    adjugates = {}
    for idx, sub in enumerate(subcones):
        try:
            columns = _coord_columns(cone, sub)
        except MembershipError:
            failures.append(f"subcone {idx} leaves the linear span of the cone")
            continue
        adjugates[idx] = exact.scaled_inverse(columns)
    unimodular_ok = True
    for idx, (d, _) in adjugates.items():
        if abs(d) != 1:
            unimodular_ok = False
            failures.append(f"subcone {idx} is not unimodular")

    certificates = {(a, b): y for a, b, y in cover.certificates}
    disjoint_ok = True
    fallback_pairs = 0
    for a, b in itertools.combinations(adjugates, 2):
        rows_a, rows_b = adjugates[a][1], adjugates[b][1]
        if _certifies_disjoint(certificates.get((a, b), ()), rows_a + rows_b):
            continue
        fallback_pairs += 1
        if _basic_solution_intersect(rows_a, rows_b):
            disjoint_ok = False
            failures.append(f"subcones {a} and {b} share interior points")

    scaled = [
        [cones.scaled_coefficients(cone, g) for g in subcones[idx].generators]
        for idx in adjugates
    ]
    contained = len(adjugates) == len(subcones)
    for idx, coeffs in zip(adjugates, scaled):
        if any(x < 0 for s in coeffs for x in s):
            contained = False
            failures.append(f"subcone {idx} leaves the cone")

    volume = None
    volume_ok = False
    if contained:
        # Simplex on the degree-scaled spanning points: column g is scaled
        # by 2 / (coefficient sum of g) = 2 * mult / sum(scaled coefficients
        # of g), positive for a nonzero g inside the cone, so its volume is
        # |det| * (2 mult)^k / (prod of those sums * k!).
        k = cone.dim
        mult = cones.multiplicity(cone)
        degrees = [prod(sum(s) for s in coeffs) for coeffs in scaled]
        common = lcm(*degrees)
        numer = sum(
            abs(d) * (common // p) for (d, _), p in zip(adjugates.values(), degrees)
        )
        volume = Fraction((2 * mult) ** k * numer, common * factorial(k))
        target = Fraction(mult * 2**k, factorial(k))
        volume_ok = volume == target
        if not volume_ok:
            failures.append(f"volume {volume} differs from {target}")

    complete_ok = contained and disjoint_ok and volume_ok
    ok = unimodular_ok and complete_ok
    return CoverVerification(
        ok=ok,
        unimodular_ok=unimodular_ok,
        disjoint_ok=disjoint_ok,
        volume_ok=volume_ok,
        complete_ok=complete_ok,
        volume=volume,
        failures=tuple(failures),
        fallback_pairs=fallback_pairs,
    )
