"""The three benchmark workloads: input generation, items and their checks.

Each workload yields its items in rounds.  A round is the smallest set of
items with the workload's full input mix, so a run always stops at a round
boundary and its throughput does not depend on where the clock ran out.
Items run through the public conekit API only; `tracer` is a NullTracer in
the untraced run, so both runs execute exactly the same calls.
"""

from __future__ import annotations

import hashlib
import random

from conekit import cones, cosets, exact, experiments, gen, oracle
from conekit.cones import SimplicialCone
from conekit.cover import build_cover_det5, decompose_in_cover
from conekit.decompose import decompose, reduce_to_hilbert


def _vector_sum(terms, length):
    total = (0,) * length
    for c, v in terms:
        total = exact.vadd(total, exact.vscale(c, v))
    return total


class Sweep:
    """Criterion-4 sweep: one fresh random cone per (dim, det) cell a round."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.cells = [
            (dim, det)
            for dim in range(spec["dim_lo"], spec["dim_hi"] + 1)
            for det in range(spec["det_lo"], spec["det_hi"] + 1)
        ]
        self.pool = []
        self.first_rows = {}  # (dim, det) -> row of the first round

    def setup(self, tracer):
        for i in range(self.spec["pool_rounds"]):
            self.pool.append([
                (dim, det, i, tracer.call(
                    "gen.cone", gen.random_cone, dim, det,
                    gen.seeded_rng(self.seed, dim, det, i),
                ))
                for dim, det in self.cells
            ])

    def rounds(self):
        return iter(self.pool)

    def run(self, item, tracer):
        dim, det, _, cone = item
        tracer.call("cones.build", cones.multiplicity, cone)
        return experiments.run_cone(cone, self.spec["dilation"], self.seed, dim, det)

    def check(self, item, row):
        dim, det, i, _ = item
        if i == 0:
            self.first_rows[dim, det] = row
        bad = []
        if row.engine_max > dim:
            bad.append(f"engine_max {row.engine_max} > dim {dim}")
        if row.oracle_max > dim:
            bad.append(f"oracle_max {row.oracle_max} > dim {dim}")
        if row.oracle_max > row.engine_max:
            bad.append(f"oracle_max {row.oracle_max} > engine_max {row.engine_max}")
        return bad

    def probe_points(self, item, row):
        cone = item[3]
        return [(cone, z) for z in oracle.dilated_sample(cone, self.spec["dilation"])]

    def probe_matrices(self, item, row):
        return [item[3].matrix]

    def digest(self):
        """sha256 of the first round's CSV, rows in run_experiment order.

        None when an item of the first round failed."""
        if len(self.first_rows) < len(self.cells):
            return None
        csv = experiments.rows_to_csv([self.first_rows[cell] for cell in self.cells])
        return hashlib.sha256(csv.encode()).hexdigest()


class Certify:
    """Library form of `decompose --certify-oracle` on warm cones, one point an item.

    The cones are a fixed library drawn from the spec's cone_seed, and the
    run seed draws only the query points: with a few dozen cones, which
    cones a seed happened to draw moved throughput by more than the bound.
    """

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.cones = []

    def setup(self, tracer):
        spec = self.spec
        for i in range(spec["cones_per_cell"]):
            for dim in range(spec["dim_lo"], spec["dim_hi"] + 1):
                for det in spec["dets"]:
                    self.cones.append(tracer.call(
                        "gen.cone", gen.random_cone, dim, det,
                        gen.seeded_rng(spec["cone_seed"], dim, det, i),
                    ))
        # Warm every per-cone cache the items read, including the projected
        # subcones reached from parallelepiped points shifted by one of each
        # generator.
        for cone in self.cones:
            tracer.call("cones.build", cones.multiplicity, cone)
            cosets.coset_profile(cone)
            cones.hilbert_basis(cone)
            shift = (0,) * cone.ambient_dim
            for g in cone.generators:
                shift = exact.vadd(shift, g)
            for p in cones.enumerate_parallelepiped(cone).points:
                dec = decompose(cone, exact.vadd(p.vector, shift))
                if not dec.all_hilbert:
                    reduce_to_hilbert(cone, dec)

    def rounds(self):
        rng = random.Random(f"certify:{self.seed}")
        below = self.spec["multiple_below"]
        for _ in range(self.spec["pool_rounds"]):
            batch = []
            for cone in self.cones:
                z = rng.choice(cones.enumerate_parallelepiped(cone).points).vector
                for g in cone.generators:
                    z = exact.vadd(z, exact.vscale(rng.randrange(below), g))
                batch.append((cone, z))
            yield batch

    def run(self, item, tracer):
        cone, z = item
        dec = decompose(cone, z)
        if not dec.all_hilbert:
            dec = reduce_to_hilbert(cone, dec)
        return dec, oracle.min_terms(cone, z)

    def check(self, item, out):
        cone, z = item
        dec, report = out
        bad = []
        if dec.vector_sum() != z:
            bad.append("engine terms do not sum to the point")
        if report.status != "exact":
            bad.append(f"oracle status {report.status}")
        elif report.min_terms > dec.term_count():
            bad.append(f"min_terms {report.min_terms} > engine {dec.term_count()}")
        elif report.witness.vector_sum() != z:
            bad.append("oracle witness does not sum to the point")
        return bad

    def probe_points(self, item, out):
        return [item]

    def probe_matrices(self, item, out):
        return [item[0].matrix]

    def digest(self):
        return None


def cover_cone(rng, shear_steps):
    """Unimodular shear of (e1, e2, e3, (a, b, c, 5)), (a, b, c) a permutation of (1, 2, 3)."""
    offsets = [1, 2, 3]
    rng.shuffle(offsets)
    rows = [
        [1, 0, 0, offsets[0]],
        [0, 1, 0, offsets[1]],
        [0, 0, 1, offsets[2]],
        [0, 0, 0, 5],
    ]
    for _ in range(shear_steps):
        i = rng.randrange(4)
        j = rng.randrange(4)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return SimplicialCone(tuple(zip(*rows)))


class Cover:
    """Criterion-5 shape: build, verify and use the det-5 cover of a fresh cone."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.pool = []

    def setup(self, tracer):
        rng = random.Random(f"cover:{self.seed}")
        for _ in range(self.spec["pool_items"]):
            self.pool.append(
                tracer.call("gen.cone", cover_cone, rng, self.spec["shear_steps"])
            )

    def rounds(self):
        return ([cone] for cone in self.pool)

    def run(self, cone, tracer):
        tracer.call("cones.build", cones.multiplicity, cone)
        cover = build_cover_det5(cone)
        verification = oracle.verify_cover(cover, cone)
        sample = oracle.dilated_sample(cone, 2)
        return cover, verification, sample, [decompose_in_cover(cone, z) for z in sample]

    def check(self, cone, out):
        cover, verification, sample, decs = out
        bad = []
        if not verification.ok:
            bad.append(f"verify_cover failed: {verification.failures[:3]}")
        if cover.census != (4, 10, 4):
            bad.append(f"census {cover.census}")
        if cover.disjoint_pairs != 153:
            bad.append(f"{cover.disjoint_pairs} disjoint pairs")
        for z, (terms, _) in zip(sample, decs):
            if len(terms) > 4 or any(c < 1 for c, _ in terms):
                bad.append(f"point {z}: {len(terms)} terms")
            elif _vector_sum(terms, len(z)) != z:
                bad.append(f"point {z}: terms do not sum back")
        return bad

    def probe_points(self, cone, out):
        return [(cone, z) for z in out[2]]

    def probe_matrices(self, cone, out):
        return [cone.matrix] + [s.cone.matrix for s in out[0].subcones]

    def digest(self):
        return None


WORKLOADS = {"sweep": Sweep, "certify": Certify, "cover": Cover}
