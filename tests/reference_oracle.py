"""Reference dilated-sample check: one complete DFS per sample point.

A verbatim copy of `conekit.oracle.sample_icp` as it was before the whole
sample was labelled by level-wise sumsets.  Each point's count comes from
`conekit.oracle.min_terms`, so the tests require the sumset pass to return
the same report as the per-point search.
"""

from __future__ import annotations

from conekit.cones import SimplicialCone
from conekit.oracle import IcpSampleReport, dilated_sample, min_terms


def sample_icp(cone: SimplicialCone, dilation: int = 2, node_budget=None):
    """Maximal oracle term count over the dilated sample of cone points.

    A sampled check only: it can falsify a dimension bound but never prove
    one, since the true rank is a maximum over all integer points.
    """
    points = dilated_sample(cone, dilation)
    best = 0
    worst = []
    inconclusive = 0
    for z in points:
        report = min_terms(cone, z, node_budget=node_budget)
        if report.status != "exact":
            inconclusive += 1
            continue
        if report.min_terms > best:
            best = report.min_terms
            worst = [z]
        elif report.min_terms == best and best > 0:
            worst.append(z)
    return IcpSampleReport(
        dilation=dilation,
        point_count=len(points),
        max_min_terms=best,
        worst=tuple(worst),
        inconclusive=inconclusive,
    )
