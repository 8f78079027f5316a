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
groups of five cones each built around a generator edge.  Within the side
groups the assignment of generators to triangulated parallelepiped-point
cones is fixed by searching the (at most 16) candidate configurations for
the one whose cones are all unimodular with pairwise disjoint interiors.

The construction computes with integers only: coefficient vectors are
scaled by 5, unimodularity is a Bareiss determinant of the scaled matrix,
and Fourier-Motzkin receives its sign-normalised integer adjugate rows.  The
rational `exact.rat_det`/`rat_inverse` are not used; the tests keep them as
the reference the integer construction is compared against.  The only
`Fraction`s built are the public `volume` and `volume_target`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod

from . import cones, cosets, exact, feasibility
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

_GROUP_A = (
    ("r2", "r3", "r4", "y1"),
    ("r1", "r2", "r4", "y2"),
    ("r1", "r3", "r4", "y3"),
    ("r1", "r2", "r3", "y4"),
)

_GROUP_B = (
    ("r1", "r2", "y2", "y4"),
    ("r1", "r3", "y3", "y4"),
    ("r2", "r4", "y1", "y2"),
    ("r3", "r4", "y1", "y3"),
)

_SIDE_GROUPS = (
    (("r2", "r3"), ("y2", "y3"), ("y1", "y4")),
    (("r1", "r4"), ("y1", "y4"), ("y2", "y3")),
)


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


# Scaled coefficient vectors 5 * lambda of all eight cover elements: the
# relabelled generators r1..r4 and the parallelepiped points y1..y4.
_SCALED = {f"r{m + 1}": tuple(5 * (j == m) for j in range(4)) for m in range(4)}
_SCALED.update(_Y_SCALED)


def _scaled_matrix(labels) -> exact.Matrix:
    """5 L for the coefficient matrix L of the labelled elements, integer."""
    return exact.from_columns([_SCALED[lbl] for lbl in labels])


def _is_unimodular(labels) -> bool:
    # det(5 L) = 5^4 det L, and unimodular in the parent lattice means
    # det L = +-1/5 (the parent has multiplicity 5).
    return abs(exact.det(_scaled_matrix(labels))) == 125


def _side_group_configs(r_edge, y_edge, others):
    """Candidate 5-cone layouts covering one side of the split cone.

    Returns (fixed_cones, configs) where fixed_cones holds the generator-edge
    cone and the two unimodular side cones, and configs enumerates the
    assignments of edge generators to the two triangulated point cones.
    """
    fixed = [r_edge + y_edge]
    side = [
        r_edge + (y, o)
        for o in others
        for y in y_edge
        if _is_unimodular(r_edge + (y, o))
    ]
    if len(side) != 2:
        raise CertificateError(
            f"expected exactly 2 unimodular side cones, found {len(side)}"
        )
    fixed.extend(side)
    tri1 = y_edge + (others[0],)
    tri2 = y_edge + (others[1],)
    configs = []
    for r_a in r_edge:
        for r_b in r_edge:
            pair = ((r_a,) + tri1, (r_b,) + tri2)
            if all(_is_unimodular(c) for c in pair):
                configs.append(pair)
    return tuple(fixed), tuple(configs)


def _relabel_order(cone: SimplicialCone):
    par = cones.enumerate_parallelepiped(cone)
    nonzero = par.nonzero()
    for p in nonzero:
        if sorted(p.scaled) != [1, 2, 3, 4]:
            raise PreconditionError(
                "parallelepiped point coefficients are not a permutation of "
                "(1,2,3,4)/5; the cover construction does not apply"
            )
    y1 = nonzero[0]  # lexicographically smallest by coefficients
    order = [None] * 4
    for i, x in enumerate(y1.scaled):
        order[x - 1] = i
    return tuple(order)


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
    relabel = _relabel_order(cone)
    base = SimplicialCone(tuple(cone.generators[i] for i in relabel))

    par = cones.enumerate_parallelepiped(base)
    by_scaled = {p.scaled: p.vector for p in par.nonzero()}
    vectors = {}
    for m in range(4):
        vectors[f"r{m + 1}"] = base.generators[m]
    for label, scaled in _Y_SCALED.items():
        if scaled not in by_scaled:
            raise CertificateError(f"parallelepiped point for {label} is missing")
        vectors[label] = by_scaled[scaled]

    fixed_sets = list(_GROUP_A + _GROUP_B)
    side_configs = []
    for r_edge, y_edge, others in _SIDE_GROUPS:
        fixed, configs = _side_group_configs(r_edge, y_edge, others)
        fixed_sets.extend(fixed)
        side_configs.append(configs)

    for label_set in fixed_sets:
        if not _is_unimodular(label_set):
            raise CertificateError(f"subcone {label_set} is not unimodular")

    checker = _DisjointnessChecker()
    for a, b in combinations(fixed_sets, 2):
        if not checker.disjoint(a, b):
            raise CertificateError(f"subcones {a} and {b} overlap")

    # The triangulated point cones pair with the edge generators in several
    # candidate ways; keep the first assignment whose cones stay interior-
    # disjoint from everything else.
    chosen = None
    for cfg_c in side_configs[0]:
        for cfg_d in side_configs[1]:
            extra = cfg_c + cfg_d
            ok = all(
                checker.disjoint(a, b) for a, b in combinations(extra, 2)
            ) and all(
                checker.disjoint(a, b) for a in extra for b in fixed_sets
            )
            if ok:
                chosen = tuple(fixed_sets) + extra
                break
        if chosen is not None:
            break
    if chosen is None:
        raise CertificateError("no interior-disjoint cover configuration found")

    subcones = []
    census = [0, 0, 0]
    volumes = []  # (|det 5L|, product of the column sums of 5L) per subcone
    for label_set in chosen:
        sub = SimplicialCone(tuple(vectors[lbl] for lbl in label_set))
        det_scaled = exact.det(_scaled_matrix(label_set))
        if abs(det_scaled) != 125:
            raise CertificateError(f"subcone {label_set} is not unimodular")
        gen_count = sum(1 for lbl in label_set if lbl.startswith("r"))
        census[3 - gen_count] += 1
        volumes.append(
            (abs(det_scaled), prod(sum(_SCALED[lbl]) for lbl in label_set))
        )
        subcones.append(
            CoverSubcone(
                labels=label_set,
                cone=sub,
                det_coords=det_scaled // 125,
                generator_count=gen_count,
            )
        )

    # Normalized volume of the simplex on the degree-scaled spanning points:
    # generators count with coefficient sum 1, par points with 2, so column
    # j of L is scaled by 2 / sum(L_j) = 10 / sum(5 L_j) and the simplex has
    # normalized volume 5 |det 5L| 2^4 / (prod_j sum(5 L_j) * 4!).
    common = lcm(*(p for _, p in volumes))
    volume = Fraction(
        5 * 2**4 * sum(d * (common // p) for d, p in volumes), 24 * common
    )
    target = Fraction(5 * 2**4, 24)
    if volume != target:
        raise CertificateError(f"cover volume {volume} != {target}")
    if tuple(census) != (4, 10, 4):
        raise CertificateError(f"cover census {tuple(census)} != (4, 10, 4)")
    n_pairs = len(chosen) * (len(chosen) - 1) // 2

    return UnimodularCover(
        cone=cone,
        relabel=relabel,
        element_vectors=tuple((lbl, vectors[lbl]) for lbl in sorted(vectors)),
        subcones=tuple(subcones),
        census=tuple(census),
        volume=volume,
        volume_target=target,
        disjoint_pairs=n_pairs,
    )


class _DisjointnessChecker:
    """Memoized exact interior-disjointness of label-set subcones.

    Each cone is given to Fourier-Motzkin by the sign-normalised adjugate
    rows of 5 L, positive multiples of the rows of L^{-1}: the open cone
    {x : L^{-1} x > 0} is the same.
    """

    def __init__(self):
        self._rows = {}
        self._results = {}

    def _adjugate_rows(self, labels):
        if labels not in self._rows:
            self._rows[labels] = exact.scaled_inverse(_scaled_matrix(labels))[1]
        return self._rows[labels]

    def disjoint(self, a, b) -> bool:
        key = frozenset((a, b))
        if key not in self._results:
            self._results[key] = not feasibility.open_cones_intersect(
                self._adjugate_rows(a), self._adjugate_rows(b)
            )
        return self._results[key]


def decompose_in_cover(cone: SimplicialCone, z):
    """Terms (coeff, vector) for z via the covering subcone containing it.

    Returns (terms, subcone_index).  The subcone generators form a lattice
    basis, so the coefficients of any integer point inside are nonnegative
    integers.
    """
    if not cones.contains(cone, z):
        raise MembershipError("vector lies outside the cone")
    cover = build_cover_det5(cone)
    for idx, sub in enumerate(cover.subcones):
        try:
            coeffs = cones.scaled_coefficients(sub.cone, z)
        except MembershipError:
            continue
        if all(x >= 0 for x in coeffs):
            # Unimodular subcone: the scaled coefficients are the coefficients.
            if cones.multiplicity(sub.cone) != 1:
                raise CertificateError("covering subcone is not unimodular")
            terms = tuple(
                (c, g) for c, g in zip(coeffs, sub.cone.generators) if c != 0
            )
            return terms, idx
    raise CertificateError("no covering subcone contains the point")
