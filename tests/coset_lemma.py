"""Self-test of the coset machinery, shared by test_cosets and criterion 2."""

from __future__ import annotations

from conekit import cones, cosets
from conekit.cones import SimplicialCone


def check_lemma_coeff_equivalence(cone: SimplicialCone) -> bool:
    """Verify that dual-coset equality matches coefficient equality on par R.

    For every generator pair (i, j): the dual difference is integral on the
    saturated lattice exactly when lambda_i = lambda_j holds for every
    parallelepiped point.  Returns True when both directions agree for all
    pairs.
    """
    profile = cosets.coset_profile(cone)
    reps = profile.class_reps
    par = cones.enumerate_parallelepiped(cone)
    k = cone.dim
    for i in range(k):
        for j in range(i + 1, k):
            coset_equal = reps[i] == reps[j]
            coeff_equal = all(p.lam[i] == p.lam[j] for p in par.points)
            if coset_equal != coeff_equal:
                return False
    return True
