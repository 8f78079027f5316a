"""Acceptance gate: ten end-to-end criteria, each printing one PASS line.

Every check is exact (integer/rational equality, zero tolerance) except the
stated wall-clock limits.  Criteria 4 and 6 share their experiment
configurations with criterion 10, which reruns them from scratch and compares
the CSV output byte for byte.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import floor
from pathlib import Path

from conekit import cones, cosets, exact, experiments, gen, oracle, special
from conekit.cones import SimplicialCone
from conekit.cover import build_cover_det5
from conekit.decompose import _projection_data, decompose, reduce_to_hilbert
from coset_lemma import check_lemma_coeff_equivalence

CONE_DET5 = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))


def _report(criterion, message):
    print(f"criterion {criterion}: PASS — {message}")


# ---------------------------------------------------------------------------
# criterion 1: parallelepiped size equals |det|


def test_criterion_1_multiplicity_identity():
    start = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        dim = rng.randint(2, 5)
        det = rng.randint(1, 50)
        cone = gen.random_cone(dim, det, random.Random(rng.random()))
        par = cones.enumerate_parallelepiped(cone)
        assert len(par) == det == cones.multiplicity(cone)
        assert len(set(par.vectors())) == det
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s (limit 10s)"
    _report(1, f"{checked}/200 cones have |par| = |det| exactly ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: coset equality iff coefficient equality on par


def test_criterion_2_lemma_equivalence():
    rng = random.Random(202)
    for _ in range(200):
        dim = rng.randint(2, 5)
        det = rng.randint(1, 30)
        cone = gen.random_cone(dim, det, random.Random(rng.random()))
        assert check_lemma_coeff_equivalence(cone)
    _report(2, "coset equality <=> coefficient equality on 200/200 cones")


# ---------------------------------------------------------------------------
# criterion 3: projection lemmas


def _projected_par_image(cone, data):
    image = set()
    for p in cones.enumerate_parallelepiped(cone).points:
        proj = exact.matvec(data.coords, cones.lattice_coords(cone, p.vector))
        lam = cones.coefficients(data.subcone, proj)
        floors = tuple(floor(x) for x in lam)
        shift = tuple(0 for _ in proj)
        for f, g in zip(floors, data.subcone.generators):
            shift = exact.vadd(shift, exact.vscale(f, g))
        image.add(exact.vsub(proj, shift))
    return image


def test_criterion_3_projection_lemmas():
    rng = random.Random(303)
    for _ in range(100):
        dim = rng.randint(3, 5)
        det = rng.randint(1, 12)
        cone = gen.random_cone(dim, det, random.Random(rng.random()))
        mult = cones.multiplicity(cone)
        axis = rng.randrange(dim)
        data = _projection_data(cone, axis)
        assert cones.multiplicity(data.subcone) <= mult
        image = _projected_par_image(cone, data)
        sub_par = set(cones.enumerate_parallelepiped(data.subcone).vectors())
        assert image == sub_par
    _report(3, "par image equality and multiplicity monotonicity on 100/100 cones")


# ---------------------------------------------------------------------------
# criteria 4 and 6 share their configurations with criterion 10


_C4_CONFIG = experiments.ExperimentConfig(
    dim_lo=3, dim_hi=6, det_lo=1, det_hi=5, count=25, dilation=2, seed=404
)

_C6_CELLS = ((6, 6), (7, 6), (7, 7))
_C6_SEED = 606


@lru_cache(maxsize=None)
def _c4_csv():
    return experiments.rows_to_csv(experiments.run_experiment(_C4_CONFIG))


@lru_cache(maxsize=None)
def _c6_rows():
    rows = []
    for n, det in _C6_CELLS:
        cone = gen.random_cone(n, det, gen.seeded_rng(_C6_SEED, n, det, 0))
        rows.append(experiments.run_cone(cone, 2, _C6_SEED, n, det))
    return tuple(rows)


def test_criterion_4_dimension_bound():
    start = time.monotonic()
    csv_text = _c4_csv()
    rows = csv_text.strip().splitlines()[1:]
    assert len(rows) == 4 * 5 * 25  # dims 3..6, det 1..5, 100 cones per det
    for line in rows:
        parts = line.split(",")
        dim, engine_max, oracle_max = int(parts[0]), int(parts[3]), int(parts[4])
        assert engine_max <= dim, line
        assert oracle_max <= dim, line
        assert oracle_max <= engine_max, line
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 4 took {elapsed:.1f}s (limit 300s)"
    _report(
        4,
        f"500 cones (100 per det), all sampled points within <= dim "
        f"Hilbert terms, oracle agreeing ({elapsed:.1f}s)",
    )


def test_criterion_6_pigeonhole_bound():
    start = time.monotonic()
    for row, (n, det) in zip(_c6_rows(), _C6_CELLS):
        limit = n + det - 3
        assert row.engine_max <= limit, (row, limit)
        assert row.oracle_max <= limit, (row, limit)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 6 took {elapsed:.1f}s (limit 300s)"
    _report(
        6,
        f"(n,det) in {_C6_CELLS}: sampled decompositions within n+det-3 "
        f"terms ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: the det=5 cover certificate


def _cover_applicable(cone):
    return (
        cones.multiplicity(cone) == 5
        and cosets.coset_profile(cone).nontrivial_class_count == 4
    )


def _random_cover_cone(rng):
    """Unimodular shear of a cone whose duals fill the non-trivial Z/5 cosets."""
    offsets = [1, 2, 3]
    rng.shuffle(offsets)
    rows = [
        [1, 0, 0, offsets[0]],
        [0, 1, 0, offsets[1]],
        [0, 0, 1, offsets[2]],
        [0, 0, 0, 5],
    ]
    for _ in range(8):
        i = rng.randrange(4)
        j = rng.randrange(4)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return SimplicialCone(tuple(zip(*rows)))


def test_criterion_5_cover_certificate():
    rng = random.Random(505)
    candidates = [CONE_DET5]
    while len(candidates) < 10:
        cone = _random_cover_cone(rng)
        assert _cover_applicable(cone)
        candidates.append(cone)
    for cone in candidates:
        cover = build_cover_det5(cone)
        assert len(cover.subcones) == 18
        assert cover.census == (4, 10, 4)
        assert all(abs(s.det_coords) == 1 for s in cover.subcones)
        assert cover.volume == Fraction(10, 3) == cover.volume_target
        verification = oracle.verify_cover(cover, cone)
        assert verification.ok, verification.failures
        assert cover.disjoint_pairs == 153
    _report(
        5,
        "10/10 covers: 18 subcones, census (4,10,4), all dets +-1, "
        "153 disjoint pairs, volume exactly 10/3",
    )


# ---------------------------------------------------------------------------
# criterion 7: skew-vector few-coset bound


def _random_admissible_spec(rng):
    n = rng.randint(3, 7)
    delta = rng.randint(2, 9)
    pool = {0, delta - 1, rng.randrange(delta), rng.randrange(delta)}
    offsets = tuple(rng.choice(sorted(pool)) for _ in range(n - 1)) + (delta,)
    return special.make_skew_cone(n, offsets)


def test_criterion_7_skew_few_coset_bound():
    rng = random.Random(707)
    for _ in range(50):
        cone, spec = _random_admissible_spec(rng)
        assert spec.hypothesis_holds
        report = special.check_skew_classes(spec)
        assert report.nontrivial_class_count <= 3
        assert report.cross_checks_ok
        icp = oracle.sample_icp(cone, 2)
        assert icp.inconclusive == 0
        assert icp.max_min_terms <= spec.n
    _report(7, "50/50 admissible skew specs: <= 3 classes, sampled ICP certified")


# ---------------------------------------------------------------------------
# criterion 8: Gorenstein premise and the two-prime family


def test_criterion_8_pq_family():
    for p, q in ((2, 3), (2, 5), (3, 5)):
        cone = special.make_pq_cone(p, q)
        check = special.gorenstein_check(cone)
        assert check.y_integral and check.y_interior
        assert check.premise_holds
        if (p, q) == (2, 3):
            assert check.y == (1, 1, 1, 1)
        assert cones.multiplicity(cone) == p * q
        assert check.divisor_count == 4
        assert check.cyclic
        assert not special.has_skew_normal_form(cone)
        icp = oracle.sample_icp(cone, 2)
        assert icp.inconclusive == 0
        assert icp.max_min_terms <= 4
    _report(
        8,
        "(2,3),(2,5),(3,5): integral interior y, four divisors, cyclic, "
        "non-skew normal form, sampled ICP holds",
    )


# ---------------------------------------------------------------------------
# criterion 9: oracle self-consistency


def test_criterion_9_oracle_self_consistency():
    rng = random.Random(909)
    hb_cache = {}
    pairs = 0
    prev = None
    while pairs < 1000:
        dim = rng.randint(2, 4)
        det = rng.randint(1, 10)
        cone = gen.random_cone(dim, det, random.Random(rng.random()))
        hb_cache[cone] = set(cones.hilbert_basis(cone).elements)
        par = cones.enumerate_parallelepiped(cone)
        prev = None
        for _ in range(10):
            z = par.points[rng.randrange(len(par))].vector
            for g in cone.generators:
                z = exact.vadd(z, exact.vscale(rng.randint(0, 3), g))
            report = oracle.min_terms(cone, z)
            assert report.status == "exact"
            assert report.witness.vector_sum() == tuple(z)
            assert all(v in hb_cache[cone] for _, v in report.witness.terms)
            if prev is not None:
                combined = oracle.min_terms(cone, exact.vadd(prev[0], z))
                assert combined.min_terms <= prev[1] + report.min_terms
            prev = (tuple(z), report.min_terms)
            pairs += 1
            if pairs == 1000:
                break
    _report(9, "1000/1000 oracle witnesses valid, subadditivity holds")


# ---------------------------------------------------------------------------
# criterion 10: byte-deterministic CSV


def test_criterion_10_determinism():
    first_c4 = _c4_csv()
    again_c4 = experiments.rows_to_csv(experiments.run_experiment(_C4_CONFIG))
    assert first_c4 == again_c4

    first_c6 = experiments.rows_to_csv(_c6_rows())
    rerun = []
    for n, det in _C6_CELLS:
        cone = gen.random_cone(n, det, gen.seeded_rng(_C6_SEED, n, det, 0))
        rerun.append(experiments.run_cone(cone, 2, _C6_SEED, n, det))
    again_c6 = experiments.rows_to_csv(rerun)
    assert first_c6 == again_c6
    _report(10, "criteria 4 and 6 reruns produced byte-identical CSV")


_ROOT = Path(__file__).resolve().parent.parent
_COLD_SWEEP = """
import hashlib, json, sys
from conekit import experiments
cfg = experiments.ExperimentConfig(**json.loads(sys.argv[1]))
csv_text = experiments.rows_to_csv(experiments.run_experiment(cfg))
print(hashlib.sha256(csv_text.encode()).hexdigest())
"""


def test_criterion_10_cold_process_determinism():
    # Criterion 10 reruns with warm caches; this reruns the pinned benchmark
    # sweep in fresh interpreters under different hash seeds, so every cache
    # is rebuilt and no iteration order can depend on string hashing.
    pinned = json.loads((_ROOT / "perfbench" / "workloads.json").read_text())
    pinned = pinned["sweep"]["pinned"]
    src = str(_ROOT / "src")
    digests = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _COLD_SWEEP, json.dumps(pinned["config"])],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(out.stdout.strip())
    assert digests == [pinned["sha256"]] * 2
    _report(10, "pinned sweep CSV identical in cold processes, PYTHONHASHSEED 0/4242")
