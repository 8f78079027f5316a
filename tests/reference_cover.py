"""Reference in-cover decomposition: one cone context per subcone.

A verbatim copy of `conekit.cover.decompose_in_cover` as it was before
in-cover points were solved on the certified table's rows.  It asks each
subcone of the cover for its own scaled coefficients, so the tests require
the table route to return the same terms and subcone index.
"""

from __future__ import annotations

from conekit import cones
from conekit.cones import SimplicialCone
from conekit.cover import build_cover_det5
from conekit.errors import CertificateError, MembershipError


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
