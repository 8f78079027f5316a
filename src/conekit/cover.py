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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

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


def _element_lams() -> dict:
    lams = {}
    for m in range(4):
        lams[f"r{m + 1}"] = tuple(
            Fraction(1) if j == m else Fraction(0) for j in range(4)
        )
    for label, scaled in _Y_SCALED.items():
        lams[label] = tuple(Fraction(x, 5) for x in scaled)
    return lams


def _lam_matrix(lams: dict, labels) -> exact.Matrix:
    return exact.from_columns([lams[lbl] for lbl in labels])


def _is_unimodular(lams: dict, labels) -> bool:
    return abs(exact.rat_det(_lam_matrix(lams, labels))) == Fraction(1, 5)


def _side_group_configs(lams: dict, r_edge, y_edge, others):
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
        if _is_unimodular(lams, r_edge + (y, o))
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
            if all(_is_unimodular(lams, c) for c in pair):
                configs.append(pair)
    return tuple(fixed), tuple(configs)


def _relabel_order(cone: SimplicialCone):
    par = cones.enumerate_parallelepiped(cone)
    nonzero = par.nonzero()
    for p in nonzero:
        scaled = sorted(int(5 * x) for x in p.lam)
        if scaled != [1, 2, 3, 4]:
            raise PreconditionError(
                "parallelepiped point coefficients are not a permutation of "
                "(1,2,3,4)/5; the cover construction does not apply"
            )
    y1 = nonzero[0]  # lexicographically smallest by coefficients
    order = [None] * 4
    for i, lam in enumerate(y1.lam):
        order[int(5 * lam) - 1] = i
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
    lams = _element_lams()

    par = cones.enumerate_parallelepiped(base)
    by_lam = {p.lam: p.vector for p in par.nonzero()}
    vectors = {}
    for m in range(4):
        vectors[f"r{m + 1}"] = base.generators[m]
    for label in _Y_SCALED:
        lam = lams[label]
        if lam not in by_lam:
            raise CertificateError(f"parallelepiped point for {label} is missing")
        vectors[label] = by_lam[lam]

    fixed_sets = list(_GROUP_A + _GROUP_B)
    side_configs = []
    for r_edge, y_edge, others in _SIDE_GROUPS:
        fixed, configs = _side_group_configs(lams, r_edge, y_edge, others)
        fixed_sets.extend(fixed)
        side_configs.append(configs)

    for label_set in fixed_sets:
        if not _is_unimodular(lams, label_set):
            raise CertificateError(f"subcone {label_set} is not unimodular")

    checker = _DisjointnessChecker(lams)
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
    volume = Fraction(0)
    census = [0, 0, 0]
    for label_set in chosen:
        sub = SimplicialCone(tuple(vectors[lbl] for lbl in label_set))
        lam_cols = _lam_matrix(lams, label_set)
        det_coords = int(5 * exact.rat_det(lam_cols))
        if abs(det_coords) != 1:
            raise CertificateError(f"subcone {label_set} is not unimodular")
        gen_count = sum(1 for lbl in label_set if lbl.startswith("r"))
        census[3 - gen_count] += 1
        # Normalized volume of the simplex on the degree-scaled spanning
        # points: generators count with coefficient sum 1, par points with 2.
        scale = [2 / sum(lams[lbl], Fraction(0)) for lbl in label_set]
        scaled_cols = [
            exact.vscale(s, col)
            for s, col in zip(scale, exact.columns(lam_cols))
        ]
        volume += 5 * abs(exact.rat_det(exact.from_columns(scaled_cols))) / 24
        subcones.append(
            CoverSubcone(
                labels=label_set,
                cone=sub,
                det_coords=det_coords,
                generator_count=gen_count,
            )
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
    """Memoized exact interior-disjointness of label-set subcones."""

    def __init__(self, lams):
        self._lams = lams
        self._inverses = {}
        self._results = {}

    def _inverse(self, labels):
        if labels not in self._inverses:
            self._inverses[labels] = exact.rat_inverse(
                _lam_matrix(self._lams, labels)
            )
        return self._inverses[labels]

    def disjoint(self, a, b) -> bool:
        key = frozenset((a, b))
        if key not in self._results:
            self._results[key] = not feasibility.open_cones_intersect(
                self._inverse(a), self._inverse(b)
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
