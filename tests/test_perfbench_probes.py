"""The benchmark's traced-run probes on the library calls they time.

A traced `perfbench/run.py` run calls `worker.run_probes` after every item:
the rational `exact.rat_inverse`/`rat_det`, `exact.snf`,
`cones.coefficients`/`contains`, and Fourier-Motzkin on `Fraction`
`rat_inverse` rows of every cover the tracer saw built.  An exception there
counts as a failed item, so these tests run one `Cover` item and one `Sweep`
item through `run`, `check` and then `run_probes`, as the traced run does.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from conekit import cover as cover_mod
from conekit import gen

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPECS = json.loads((BENCH_DIR / "workloads.json").read_text())


@pytest.fixture
def recorded_covers(monkeypatch):
    """Every distinct cover `build_cover_det5` returns, in call order.

    The traced run records each call's result; the probes do the same work
    for a repeat, so repeats are dropped here to keep the test short.
    """
    covers = []
    original = cover_mod.build_cover_det5

    def recording(cone):
        built = original(cone)
        if not any(built is c for c in covers):
            covers.append(built)
        return built

    monkeypatch.setattr(cover_mod, "build_cover_det5", recording)
    return covers


def _run_and_probe(workload, item, covers_of):
    """run, check and run_probes on one item; the probes' (ns, calls) totals.

    `covers_of(out)` gives the covers the traced run would hand the probes.
    """
    tracer = tracing.Tracer()  # not installed: spans only, nothing wrapped
    out = workload.run(item, tracer)
    assert workload.check(item, out) == []
    new_covers = covers_of(out)
    assert new_covers
    probes = defaultdict(lambda: (0, 0))
    worker.run_probes(workload, item, out, probes, tracer, new_covers)
    assert tracer.active and new_covers == []
    assert probes["feasibility.pair_us"][1] % 153 == 0
    for name in worker.PROBES:
        assert probes[name][1] > 0, name
    return probes


def test_probes_run_on_a_cover_item():
    workload = workloads.Cover(SPECS["cover"], SPECS["cover"]["default_seed"])
    workload.setup(tracing.NullTracer())
    probes = _run_and_probe(workload, workload.pool[0], lambda out: [out[0]])
    assert probes["feasibility.pair_us"][1] == 153


def test_probes_run_on_a_sweep_item_that_builds_covers(recorded_covers):
    # Round 9's dim-6 det-5 cone of the default seed is the first sweep item
    # whose decomposition reaches the det-5 cover (on projected subcones).
    seed = SPECS["sweep"]["default_seed"]
    workload = workloads.Sweep(SPECS["sweep"], seed)
    item = (6, 5, 9, gen.random_cone(6, 5, gen.seeded_rng(seed, 6, 5, 9)))
    _run_and_probe(workload, item, lambda out: list(recorded_covers))
