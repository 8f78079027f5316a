"""Constructors and premise checkers for structured cone families.

Three families with known decomposition behaviour:

  * skew cones: all standard basis vectors except the last, plus one integer
    vector r with positive last entry.  The dual cosets are read off the
    entries of r directly, so the few-coset bound can be checked against
    explicit arithmetic.
  * Gorenstein-type cones: full-dimensional cones whose minimal interior
    lattice point y shifts the cone lattice onto the interior lattice; the
    shift is proved from the coefficients of y, not sampled.
  * the p,q family: 4-dimensional cones of multiplicity p*q built from two
    distinct primes, which satisfy the Gorenstein premise yet are not
    equivalent (with this generator order) to any skew cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import cones, cosets, exact
from .cones import SimplicialCone
from .errors import PreconditionError


# ---------------------------------------------------------------------------
# skew cones


@dataclass(frozen=True)
class SkewVectorSpec:
    n: int
    r: tuple  # entries normalized into [0, delta), last entry delta
    values: frozenset  # {r_i : i < n}
    hypothesis_holds: bool  # at most 2 values besides 0 and delta-1

    @property
    def delta(self) -> int:
        return self.r[-1]


def make_skew_cone(n: int, r) -> tuple:
    """Cone (e^1, ..., e^{n-1}, r) plus the spec describing its offsets.

    Entries of r other than the last are reduced modulo the last entry; the
    reduction is a unimodular column operation, so the lattice structure of
    the cone is unchanged.
    """
    r = tuple(int(x) for x in r)
    if len(r) != n:
        raise PreconditionError(f"skew vector must have length {n}")
    delta = r[-1]
    if delta < 1:
        raise PreconditionError("skew vector needs a positive last entry")
    norm = tuple(x % delta for x in r[:-1]) + (delta,)
    values = frozenset(norm[:-1])
    hypothesis = len(values - {0, delta - 1}) <= 2
    gens = [
        tuple(1 if i == j else 0 for i in range(n)) for j in range(n - 1)
    ]
    gens.append(norm)
    spec = SkewVectorSpec(
        n=n, r=norm, values=values, hypothesis_holds=hypothesis
    )
    return SimplicialCone(tuple(gens)), spec


@dataclass(frozen=True)
class SkewClassReport:
    hypothesis_holds: bool
    nontrivial_class_count: int
    bound_applies: bool  # class count at most 3, so the dimension bound holds
    cross_checks_ok: bool  # profile agrees with the offset arithmetic


def check_skew_classes(spec: SkewVectorSpec) -> SkewClassReport:
    """Coset profile of a skew cone, cross-checked against its offsets.

    The dual of e^i differs from an integer vector by -r_i/delta on the last
    coordinate and the dual of r is e^n/delta, so: the dual of e^i is
    integral iff r_i = 0; (i, j) is an equal pair iff r_i = r_j; (j, n) is an
    equal pair iff r_j = delta - 1.  The hypothesis of at most 2 offsets
    besides 0 and delta-1 is equivalent to at most 3 non-trivial classes.
    """
    cone, _ = make_skew_cone(spec.n, spec.r)
    profile = cosets.coset_profile(cone)
    n = spec.n
    delta = spec.delta
    r = spec.r
    ok = True
    for i in range(n - 1):
        if profile.integral_flags[i] != (r[i] == 0):
            ok = False
    if profile.integral_flags[n - 1] != (delta == 1):
        ok = False
    expected_pairs = set()
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if r[i] % delta == r[j] % delta:
                expected_pairs.add((i, j))
        if r[i] % delta == (delta - 1) % delta:
            expected_pairs.add((i, n - 1))
    if set(profile.equal_pairs) != expected_pairs:
        ok = False
    expected_classes = len(spec.values - {0})
    if delta > 1 and (delta - 1) not in spec.values:
        expected_classes += 1
    if profile.nontrivial_class_count != expected_classes:
        ok = False
    bound = profile.nontrivial_class_count <= 3
    if bound != spec.hypothesis_holds:
        ok = False
    return SkewClassReport(
        hypothesis_holds=spec.hypothesis_holds,
        nontrivial_class_count=profile.nontrivial_class_count,
        bound_applies=bound,
        cross_checks_ok=ok,
    )


# ---------------------------------------------------------------------------
# Gorenstein-type cones


@dataclass(frozen=True)
class GorensteinCheck:
    lam: tuple  # coefficient vector of the candidate interior point
    y: tuple  # R lam, exact rationals (integers when integral)
    y_integral: bool
    y_interior: bool
    covering_sampled: bool  # z - y in the cone for every interior lattice z
    premise_holds: bool
    divisor_count: int  # divisors of the multiplicity
    cyclic: bool


def _divisor_count(m: int) -> int:
    count = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            count += 1 if d * d == m else 2
        d += 1
    return count


def gorenstein_check(cone: SimplicialCone) -> GorensteinCheck:
    """Minimal-interior-point test for a full-dimensional cone.

    Each coefficient lambda_k is the smallest nonzero k-th coordinate over
    all coefficient vectors of lattice points in [0,1)^n plus the unit
    vectors; minimizing over that finite set is equivalent to minimizing
    over all nonnegative lattice coefficient vectors, since reducing a
    vector coordinate-wise mod 1 stays in the lattice and never increases a
    nonzero coordinate.

    The covering property of y = R lambda (z - y in the cone for every
    interior lattice point z) holds exactly when y is integral.  Let p be
    the parallelepiped point of z's coset.  Where lambda_k(p) > 0,
    lambda_k(z) >= lambda_k(p) >= lambda_k; elsewhere lambda_k(z) is a
    positive integer, and lambda_k <= 1 because e_k is a candidate.  So z - y
    has nonnegative coefficients, and it is a lattice point when y is.
    `covering_sampled` keeps its name for the JSON output of `special`.
    """
    n = cone.dim
    if cone.ambient_dim != n:
        raise PreconditionError("check requires a full-dimensional cone")
    par = cones.enumerate_parallelepiped(cone)
    candidates = [p.lam for p in par.nonzero()]
    for k in range(n):
        candidates.append(
            tuple(Fraction(int(i == k)) for i in range(n))
        )
    lam = []
    for k in range(n):
        lam.append(min(m[k] for m in candidates if m[k] != 0))
    lam = tuple(lam)
    y = exact.matvec(cone.matrix, lam)
    y_integral = all(exact.is_integral(x) for x in y)
    y_interior = all(x > 0 for x in lam)
    mult = cones.multiplicity(cone)
    profile = cosets.coset_profile(cone)
    return GorensteinCheck(
        lam=lam,
        y=tuple(y),
        y_integral=y_integral,
        y_interior=y_interior,
        covering_sampled=y_integral,
        premise_holds=y_integral and y_interior,
        divisor_count=_divisor_count(mult),
        cyclic=profile.cyclic,
    )


# ---------------------------------------------------------------------------
# the p,q family


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def make_pq_cone(p: int, q: int) -> SimplicialCone:
    """4-dimensional cone of multiplicity p*q from two distinct primes.

    Picks the unique k in {1,...,q-1}, l in {1,...,p-1} with
    k*p + l*q = p*q - 1 and returns the cone whose generator matrix has rows
    (1,0,l,k), (0,1,l,k), (0,0,p,0), (0,0,0,q).
    """
    if p == q or not (_is_prime(p) and _is_prime(q)):
        raise PreconditionError("parameters must be distinct primes")
    target = p * q - 1
    for k in range(1, q):
        rest = target - k * p
        if rest > 0 and rest % q == 0:
            l = rest // q
            if 1 <= l <= p - 1:
                break
    else:
        raise PreconditionError(f"no k, l with k*{p} + l*{q} = {target}")
    rows = (
        (1, 0, l, k),
        (0, 1, l, k),
        (0, 0, p, 0),
        (0, 0, 0, q),
    )
    return SimplicialCone(exact.columns(exact.freeze(rows)))


def has_skew_normal_form(cone: SimplicialCone) -> bool:
    """Whether the Hermite normal form of the generator matrix is skew-shaped.

    Skew shape means at least n-1 of the columns are standard unit vectors.
    The normal form is the canonical representative of the generator matrix
    under unimodular row operations with this column order, so a non-skew
    normal form certifies that no such operation turns the generators into
    all-but-one standard basis vectors.
    """
    n = cone.dim
    if cone.ambient_dim != n:
        raise PreconditionError("normal form test requires a full-dim cone")
    h, _ = exact.hnf(cone.matrix)
    units = {tuple(1 if i == j else 0 for i in range(n)) for j in range(n)}
    unit_cols = sum(1 for col in exact.columns(h) if col in units)
    return unit_cols >= n - 1
