"""Randomized decomposition sweeps with deterministic CSV output.

Each experiment cell is (dimension, determinant); for every random cone in a
cell the engine decomposes all points of the dilated sample and the oracle
independently recomputes the minimal term counts.  Rows are emitted in cell
order, so a fixed configuration always produces byte-identical CSV.  The
`elapsed_ms` column is kept for the CSV layout and is always 0: no
wall-clock time enters the output.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from . import cosets, gen, oracle
from .decompose import decompose_sample, icr_upper_bound, reduce_to_hilbert

CSV_HEADER = "dim,det,cosets,engine_max,oracle_max,bound,method,seed,elapsed_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    dim_lo: int
    dim_hi: int
    det_lo: int = 1
    det_hi: int = 5
    count: int = 5
    dilation: int = 2
    seed: int = 0
    node_budget: int = None


@dataclass(frozen=True)
class ExperimentRow:
    dim: int
    det: int
    cosets: int
    engine_max: int
    oracle_max: int
    bound: int
    method: str
    seed: object

    def as_csv(self) -> str:
        return (
            f"{self.dim},{self.det},{self.cosets},{self.engine_max},"
            f"{self.oracle_max},{self.bound},{self.method},{self.seed},0"
        )


def run_cone(cone, dilation: int, seed, dim: int, det: int, node_budget=None):
    """One experiment row: engine and oracle maxima over the dilated sample."""
    profile = cosets.coset_profile(cone)
    bound = icr_upper_bound(cone)
    engine_max = 0
    points = oracle.dilated_sample(cone, dilation)
    for dec in decompose_sample(cone, points, node_budget=node_budget):
        if not dec.all_hilbert:
            dec = reduce_to_hilbert(cone, dec, node_budget=node_budget)
        engine_max = max(engine_max, dec.term_count())
    icp = oracle.sample_icp(cone, dilation)
    return ExperimentRow(
        dim=dim,
        det=det,
        cosets=profile.nontrivial_class_count,
        engine_max=engine_max,
        oracle_max=icp.max_min_terms,
        bound=bound.value,
        method=bound.method,
        seed=seed,
    )


def run_experiment(config: ExperimentConfig):
    rows = []
    for dim in range(config.dim_lo, config.dim_hi + 1):
        for det in range(config.det_lo, config.det_hi + 1):
            for i in range(config.count):
                rng = gen.seeded_rng(config.seed, dim, det, i)
                cone = gen.random_cone(dim, det, rng)
                rows.append(
                    run_cone(
                        cone,
                        config.dilation,
                        config.seed,
                        dim,
                        det,
                        node_budget=config.node_budget,
                    )
                )
    return rows


def rows_to_csv(rows) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(row.as_csv() + "\n")
    return out.getvalue()
