"""Exact-arithmetic toolkit for simplicial rational cones.

Computes Hilbert bases, multiplicities, and dual-coset structure, and
constructively decomposes integer cone points into few Hilbert basis
elements, with an independent brute-force oracle for every claim.
"""

from .cones import (
    HilbertBasis,
    ParallelepipedSet,
    ParPoint,
    SimplicialCone,
    coefficients,
    contains,
    contains_interior,
    enumerate_parallelepiped,
    hilbert_basis,
    multiplicity,
    saturation_basis,
)
from .cosets import CosetProfile, coset_profile
from .cover import UnimodularCover, build_cover_det5, decompose_in_cover
from .decompose import (
    Decomposition,
    IcrBound,
    ReductionTrace,
    decompose,
    decompose_sample,
    icr_upper_bound,
    reduce_to_hilbert,
    replay,
)
from .errors import (
    CertificateError,
    ConekitError,
    MembershipError,
    ParseError,
    PreconditionError,
    UnresolvedError,
)
from .oracle import OracleReport, min_terms, sample_icp, verify_cover
from .special import (
    GorensteinCheck,
    SkewVectorSpec,
    check_skew_classes,
    gorenstein_check,
    has_skew_normal_form,
    make_pq_cone,
    make_skew_cone,
)

# Loaded with the package but called by no module of it: the traced
# `perfbench` run wraps `feasibility.open_cones_intersect` in the loaded
# conekit modules.
from . import feasibility  # noqa: F401

__all__ = [
    "CertificateError",
    "ConekitError",
    "CosetProfile",
    "Decomposition",
    "GorensteinCheck",
    "HilbertBasis",
    "IcrBound",
    "MembershipError",
    "OracleReport",
    "ParPoint",
    "ParallelepipedSet",
    "ParseError",
    "PreconditionError",
    "ReductionTrace",
    "SimplicialCone",
    "SkewVectorSpec",
    "UnimodularCover",
    "UnresolvedError",
    "build_cover_det5",
    "check_skew_classes",
    "coefficients",
    "contains",
    "contains_interior",
    "coset_profile",
    "decompose",
    "decompose_in_cover",
    "decompose_sample",
    "enumerate_parallelepiped",
    "gorenstein_check",
    "has_skew_normal_form",
    "hilbert_basis",
    "icr_upper_bound",
    "make_pq_cone",
    "make_skew_cone",
    "min_terms",
    "multiplicity",
    "reduce_to_hilbert",
    "replay",
    "sample_icp",
    "saturation_basis",
    "verify_cover",
]

__version__ = "0.1.0"
