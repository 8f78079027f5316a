"""Unimodular cover for 4-dimensional cones of multiplicity 5.

For a simplicial cone with four generators, multiplicity 5, and generator
duals in four distinct non-trivial cosets, the nonzero parallelepiped points
have coefficient vectors that are the cyclic multiples of (1,2,3,4)/5.  After
relabelling the generators so the lexicographically smallest parallelepiped
point y1 has coefficients (1,2,3,4)/5, the cone splits into 18 unimodular
subcones spanned by generators and parallelepiped points.  Every integer
point then decomposes with at most 4 terms by solving in whichever subcone
contains it.

The 18 subcones come in four groups: four cones using three generators, four
using two generators and two parallelepiped points, and two symmetric side
groups of five cones each built around a generator edge.  In relabelled
coefficient coordinates the eight spanning elements are the same for every
applicable cone, so the cover is one fixed table of label sets
(`_LABEL_SETS`) and no search runs.  The table's certificates (each subcone
unimodular, all 153 pairs interior-disjoint, the census and the volume
identity) run once per process, on the first cover built; a cone's own
cover only maps the labels to its generators and parallelepiped points,
both read off the parent cone.

Every pair's disjointness is proved by a Gordan certificate, a vector
y >= 0, y != 0 with y . [rows_a; rows_b] = 0, which no point x with
rows . x > 0 can satisfy; when there is none, the pair overlaps.  The cover
carries the 153 certificates so that `oracle.verify_cover` can check each
pair with one vector-matrix product on rows it recomputes, falling back to
a complete vertex enumeration.  They fit every applicable cone: each
subcone is unimodular, so its sign-normalised adjugate rows in parent
lattice coordinates are the table rows times 1/25 and one fixed linear
map, and that map preserves y . rows = 0.

A point is solved on the table too: with s the parent's scaled
coefficients in relabelled order, the subcone coefficients are
rows . s / 125 for the table rows of 5 L, so the first label set whose
rows . s is nonnegative contains the point, and no subcone needs its own
cone data.

The construction computes with integers only: coefficient vectors are
scaled by 5, unimodularity is a Bareiss determinant of the scaled matrix,
and the certificate search receives its sign-normalised integer adjugate
rows.  The only `Fraction`s built are the public `volume` and
`volume_target`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import gcd, lcm, prod

from . import cones, cosets, exact
from .cones import SimplicialCone
from .errors import CertificateError, MembershipError, PreconditionError

# Coefficient vectors (times 5) of the parallelepiped points after
# relabelling; row m is m * (1,2,3,4) reduced mod 5.
_Y_SCALED = {
    "y1": (1, 2, 3, 4),
    "y2": (2, 4, 1, 3),
    "y3": (3, 1, 4, 2),
    "y4": (4, 3, 2, 1),
}


@dataclass(frozen=True)
class CoverSubcone:
    labels: tuple  # which relabelled generators / par points span it
    cone: SimplicialCone
    det_coords: int  # determinant in the parent coordinate lattice, +-1
    generator_count: int  # how many parent generators appear among the four


@dataclass(frozen=True)
class UnimodularCover:
    cone: SimplicialCone
    relabel: tuple  # relabel[m] = original index of the generator called r{m+1}
    element_vectors: tuple  # ((label, ambient vector), ...) for r1..r4, y1..y4
    subcones: tuple  # 18 CoverSubcone values
    census: tuple  # subcone counts with 3 / 2 / 1 parent generators
    volume: Fraction  # total normalized volume of the subcone simplices
    volume_target: Fraction  # multiplicity * 2^4 / 4!
    disjoint_pairs: int  # number of verified interior-disjoint pairs
    certificates: tuple  # Gordan (a, b, y) for each pair in combinations(range(18), 2)


# Scaled coefficient vectors 5 * lambda of all eight cover elements: the
# relabelled generators r1..r4 and the parallelepiped points y1..y4.
_SCALED = {f"r{m + 1}": tuple(5 * (j == m) for j in range(4)) for m in range(4)}
_SCALED.update(_Y_SCALED)

# The 18 label sets of the cover: four cones on three generators, four on two
# generators and two points, each side group's edge cone and two side cones
# (generator edges r2,r3 and r1,r4), then the four triangulated point cones,
# two per side group.  Of the configurations that assign an edge generator to
# each triangulated cone, this is the first, in search order, whose cones are
# all unimodular and pairwise interior-disjoint.  The order of the sets and
# of the labels inside each set fixes the subcone order, the generator order
# of each subcone and the sign of its det_coords.
_LABEL_SETS = (
    ("r2", "r3", "r4", "y1"),
    ("r1", "r2", "r4", "y2"),
    ("r1", "r3", "r4", "y3"),
    ("r1", "r2", "r3", "y4"),
    ("r1", "r2", "y2", "y4"),
    ("r1", "r3", "y3", "y4"),
    ("r2", "r4", "y1", "y2"),
    ("r3", "r4", "y1", "y3"),
    ("r2", "r3", "y2", "y3"),
    ("r2", "r3", "y2", "y1"),
    ("r2", "r3", "y3", "y4"),
    ("r1", "r4", "y1", "y4"),
    ("r1", "r4", "y4", "y2"),
    ("r1", "r4", "y1", "y3"),
    ("r3", "y2", "y3", "y1"),
    ("r2", "y2", "y3", "y4"),
    ("r4", "y1", "y4", "y2"),
    ("r1", "y1", "y4", "y3"),
)

_VOLUME_TARGET = Fraction(5 * 2**4, 24)  # multiplicity * 2^4 / 4!


def _scaled_matrix(labels) -> exact.Matrix:
    """5 L for the coefficient matrix L of the labelled elements, integer."""
    return exact.from_columns([_SCALED[lbl] for lbl in labels])


def _gordan_certificate(rows):
    """Integer y >= 0, y != 0 with y . rows = 0, or None when there is none.

    Such a y proves the open cone {x : rows . x > 0} empty (Gordan's
    theorem), and a minimal one has a support of at most d + 1 rows whose
    left kernel is one-dimensional, for d = len(rows[0]).  So the search runs
    over the (d + 1)-row subsets, takes each one's kernel vector from its
    signed d x d minors (Laplace expansion of a matrix with a repeated
    column), and keeps the first with a single sign, flipped to be
    nonnegative and divided by its gcd.  Returns only a checked y.
    """
    d = len(rows[0])
    minor = cache(lambda idx: exact.det([rows[i] for i in idx]))  # shared by subsets
    for subset in combinations(range(len(rows)), d + 1):
        kernel = [
            (-1) ** i * minor(subset[:i] + subset[i + 1:]) for i in range(d + 1)
        ]
        if all(k <= 0 for k in kernel):
            kernel = [-k for k in kernel]
        if not any(kernel) or any(k < 0 for k in kernel):
            continue
        g = gcd(*kernel)
        y = [0] * len(rows)
        for i, k in zip(subset, kernel):
            y[i] = k // g
        if any(exact.dot(y, col) for col in zip(*rows)):
            raise CertificateError("kernel vector does not annihilate its rows")
        return tuple(y)
    return None


@cache
def _certified_table() -> tuple:
    """Certify `_LABEL_SETS`; return per-set data, certificates, census, volume.

    The per-set data are (det_coords, generator_count, rows) triples in
    table order, rows being the sign-normalised adjugate 125 (5 L)^{-1}.
    The label sets live in the relabelled coefficient coordinates, which are
    the same for every applicable cone, so the certificates hold for all of
    them and run once per process.  Each subcone is unimodular: det(5 L) =
    5^4 det L, and unimodular in the parent lattice (multiplicity 5) means
    det L = +-1/5.  Every pair is interior-disjoint, proved on those rows
    (positive multiples of the rows of L^{-1}, so the open cone
    {x : L^{-1} x > 0} is the same) by a Gordan certificate, which the cover
    carries as (a, b, y).  The census and the volume identity close the
    certificate.
    """
    dets = []
    rows = []
    for labels in _LABEL_SETS:
        scaled = _scaled_matrix(labels)
        det_scaled = exact.det(scaled)
        if abs(det_scaled) != 125:
            raise CertificateError(f"subcone {labels} is not unimodular")
        dets.append(det_scaled // 125)
        rows.append(exact.scaled_inverse(scaled)[1])
    certificates = []
    for a, b in combinations(range(len(_LABEL_SETS)), 2):
        y = _gordan_certificate(rows[a] + rows[b])
        if y is None:  # complete search: by Gordan's theorem the cones meet
            raise CertificateError(
                f"subcones {_LABEL_SETS[a]} and {_LABEL_SETS[b]} overlap"
            )
        certificates.append((a, b, y))

    counts = [sum(lbl.startswith("r") for lbl in labels) for labels in _LABEL_SETS]
    census = tuple(counts.count(g) for g in (3, 2, 1))
    if census != (4, 10, 4):
        raise CertificateError(f"cover census {census} != (4, 10, 4)")
    # Normalized volume of the simplex on the degree-scaled spanning points:
    # generators count with coefficient sum 1, par points with 2, so column
    # j of L is scaled by 2 / sum(L_j) = 10 / sum(5 L_j) and the simplex has
    # normalized volume 5 |det 5L| 2^4 / (prod_j sum(5 L_j) * 4!), with
    # |det 5L| = 125 for every subcone.
    sums = [prod(sum(_SCALED[lbl]) for lbl in labels) for labels in _LABEL_SETS]
    common = lcm(*sums)
    volume = Fraction(5 * 2**4 * 125 * sum(common // p for p in sums), 24 * common)
    if volume != _VOLUME_TARGET:
        raise CertificateError(f"cover volume {volume} != {_VOLUME_TARGET}")
    return tuple(zip(dets, counts, rows)), tuple(certificates), census, volume


@lru_cache(maxsize=None)
def build_cover_det5(cone: SimplicialCone) -> UnimodularCover:
    """18-subcone unimodular cover of a multiplicity-5 cone in dimension 4."""
    if cone.dim != 4:
        raise PreconditionError("cover requires a 4-dimensional cone")
    if cones.multiplicity(cone) != 5:
        raise PreconditionError("cover requires multiplicity 5")
    profile = cosets.coset_profile(cone)
    if profile.nontrivial_class_count != 4:
        raise PreconditionError(
            "cover requires generators in 4 distinct non-trivial dual cosets"
        )
    nonzero = cones.enumerate_parallelepiped(cone).nonzero()
    if any(sorted(p.scaled) != [1, 2, 3, 4] for p in nonzero):
        raise PreconditionError(
            "parallelepiped point coefficients are not a permutation of "
            "(1,2,3,4)/5; the cover construction does not apply"
        )
    # Relabel so that y1, the lexicographically smallest point, has scaled
    # coefficients (1,2,3,4); each point is then keyed in relabelled order.
    relabel = tuple(nonzero[0].scaled.index(m) for m in (1, 2, 3, 4))
    by_scaled = {tuple(p.scaled[i] for i in relabel): p.vector for p in nonzero}
    vectors = {f"r{m + 1}": cone.generators[i] for m, i in enumerate(relabel)}
    for label, scaled in _Y_SCALED.items():
        if scaled not in by_scaled:
            raise CertificateError(f"parallelepiped point for {label} is missing")
        vectors[label] = by_scaled[scaled]

    table, certificates, census, volume = _certified_table()
    subcones = tuple(
        CoverSubcone(
            labels=labels,
            cone=SimplicialCone(tuple(vectors[lbl] for lbl in labels)),
            det_coords=det_coords,
            generator_count=gen_count,
        )
        for labels, (det_coords, gen_count, _) in zip(_LABEL_SETS, table)
    )
    return UnimodularCover(
        cone=cone,
        relabel=relabel,
        element_vectors=tuple((lbl, vectors[lbl]) for lbl in sorted(vectors)),
        subcones=subcones,
        census=census,
        volume=volume,
        volume_target=_VOLUME_TARGET,
        disjoint_pairs=len(certificates),
        certificates=certificates,
    )


def decompose_in_cover(cone: SimplicialCone, z):
    """Terms (coeff, vector) for z via the covering subcone containing it.

    Returns (terms, subcone_index).  With s the parent's scaled coefficients
    in relabelled order, a subcone's coefficients are rows . s / 125 for its
    table rows; the first subcone where they are nonnegative contains z.  It
    is unimodular, so they are integers, and a remainder is a certificate
    failure.
    """
    s = cones.scaled_coefficients(cone, z)  # MembershipError off lin R cap Z^n
    if any(x < 0 for x in s):
        raise MembershipError("vector lies outside the cone")
    cover = build_cover_det5(cone)
    s = tuple(s[i] for i in cover.relabel)
    table = _certified_table()[0]
    for idx, (sub, (_, _, rows)) in enumerate(zip(cover.subcones, table)):
        scaled = exact.matvec(rows, s)
        if all(x >= 0 for x in scaled):
            if any(x % 125 for x in scaled):
                raise CertificateError("covering subcone is not unimodular")
            terms = tuple(
                (x // 125, g) for x, g in zip(scaled, sub.cone.generators) if x
            )
            return terms, idx
    raise CertificateError("no covering subcone contains the point")
