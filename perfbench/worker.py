"""One benchmark process: set up a workload, run its items, print one JSON line.

Started by run.py in a fresh interpreter for every measurement, because the
per-cone lru_caches of conekit would make any repeat in the same process
nearly free.

  worker.py MODE WORKLOAD SEED SECONDS ROUNDS SPANS_PATH

MODE is `setup` (set up, report the time, exit), `run` (closed loop of at
least the spec's min_rounds rounds, then more until SECONDS have passed) or
`trace` (exactly ROUNDS rounds, traced; run.py gives it the rounds of an
untraced `run`, and the pair gives the tracing overhead).  Peak RSS is read
after min_rounds rounds, so that it measures a fixed amount of work however
fast the program is.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"

NS_PER_MS = 1_000_000
# Per-call timings taken by calling the function directly on the item's own
# inputs after the item, outside its timed region.
PROBES = (
    "cones.coefficients_us", "cones.contains_us", "exact.snf_us",
    "exact.rat_inverse_us", "exact.rat_det_us", "feasibility.pair_us",
)


class LayerCounters:
    """Exact counts taken from results at the traced layer boundaries."""

    def __init__(self):
        self.counts = defaultdict(int)

    def on_decompose(self, args, dec):
        counts = self.counts
        counts["decompose.terms"] += dec.term_count()
        for step in dec.trace.steps:
            kind = type(step).__name__
            if kind == "BaseStep":
                counts[f"decompose.route.{step.method}"] += 1
            else:
                counts["decompose.route." + kind[: -len("Step")].lower()] += 1

    def on_reduce(self, args, dec):
        self.counts["decompose.terms"] += dec.term_count() - args[1].term_count()

    def on_min_terms(self, args, report):
        self.counts["search.nodes"] += report.nodes
        if report.status != "exact":
            self.counts["oracle.inconclusive"] += 1


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _mean(values, scale):
    return sum(values) / len(values) / scale if values else 0.0


def layer_metrics(tracer, counters, probes, cache_deltas, cache_sizes):
    """Per-layer metrics of the traced run.

    Cone generation, cone building and first calls on a fresh cone (cache
    misses) count wherever they happen, set-up included.  Everything else
    counts only spans inside items, so certify's cold warm-up does not mix
    into its per-item figures; `counters` is cleared when set-up ends."""
    in_item = tracer.inside("bench.item")
    by_name = defaultdict(list)
    misses = defaultdict(list)
    for span, item in zip(tracer.spans, in_item):
        if span.miss:
            misses[span.name].append(span.duration_ns)
        if item or span.name in ("gen.cone", "cones.build"):
            by_name[span.name].append(span.duration_ns)
    decompose_calls = len(by_name["decompose.decompose"])
    engine_ns = sum(by_name["decompose.decompose"]) + sum(by_name["decompose.reduce_to_hilbert"])
    oracle_ns = sum(by_name["oracle.min_terms"])
    counts = counters.counts
    m = {
        "gen.cone_ms": _mean(by_name["gen.cone"], NS_PER_MS),
        "cones.build_ms": _mean(by_name["cones.build"], NS_PER_MS),
        "cones.parallelepiped_ms": _mean(misses["cones.enumerate_parallelepiped"], NS_PER_MS),
        "cones.hilbert_ms": _mean(misses["cones.hilbert_basis"], NS_PER_MS),
        "cosets.profile_ms": _mean(misses["cosets.coset_profile"], NS_PER_MS),
        "decompose.point_ms": engine_ns / decompose_calls / NS_PER_MS if decompose_calls else 0.0,
        "oracle.sample_icp_ms": _mean(by_name["oracle.sample_icp"], NS_PER_MS),
        "oracle.min_terms_ms": _mean(by_name["oracle.min_terms"], NS_PER_MS),
        "search.nodes_per_s": counts["search.nodes"] / (oracle_ns / 1e9) if oracle_ns else 0.0,
        "cover.build_ms": _mean(misses["cover.build_cover_det5"], NS_PER_MS),
        "cover.decompose_in_cover_us": _mean(by_name["cover.decompose_in_cover"], 1000),
        "oracle.verify_cover_ms": _mean(by_name["oracle.verify_cover"], NS_PER_MS),
    }
    for key in ("strip", "project", "cover", "search", "unimodular"):
        m[f"decompose.route.{key}"] = counts[f"decompose.route.{key}"]
    for key in ("decompose.terms", "search.nodes", "oracle.inconclusive"):
        m[key] = counts[key]
    for name in PROBES:
        total_ns, calls = probes[name]
        m[name] = total_ns / calls / 1000 if calls else 0.0
    for fn, delta in cache_deltas.items():
        m[f"cache.{fn}.hits"] = delta[0]
        m[f"cache.{fn}.misses"] = delta[1]
        m[f"cache.{fn}.currsize"] = cache_sizes[fn]
    self_ns = tracer.self_time_ns(in_item)
    for layer in ("experiments", "gen", "cones", "cosets", "decompose",
                  "search", "oracle", "cover", "feasibility"):
        m[f"{layer}.self_ms"] = self_ns.get(layer, 0) / NS_PER_MS
    return m


def probe(name, fn, inputs, probes):
    """Time fn over inputs as one batch; accumulate (total ns, calls)."""
    start = time.perf_counter_ns()
    for args in inputs:
        fn(*args)
    total, calls = probes[name]
    probes[name] = (total + time.perf_counter_ns() - start, calls + len(inputs))


def run_probes(workload, item, out, probes, tracer, new_covers):
    from conekit import cones, exact, feasibility

    tracer.active = False
    try:
        points = workload.probe_points(item, out)
        probe("cones.coefficients_us", cones.coefficients, points, probes)
        probe("cones.contains_us", cones.contains, points, probes)
        matrices = [(m,) for m in workload.probe_matrices(item, out)]
        probe("exact.snf_us", exact.snf, matrices, probes)
        probe("exact.rat_inverse_us", exact.rat_inverse, matrices, probes)
        probe("exact.rat_det_us", exact.rat_det, matrices, probes)
        for cover in new_covers:
            inverses = [exact.rat_inverse(s.cone.matrix) for s in cover.subcones]
            probe(
                "feasibility.pair_us", feasibility.open_cones_intersect,
                list(itertools.combinations(inverses, 2)), probes,
            )
        new_covers.clear()
    finally:
        tracer.active = True


def main(argv):
    mode, workload_name, seed, seconds, n_rounds, spans_path = argv
    seed = int(seed)
    seconds = float(seconds)
    n_rounds = int(n_rounds)
    spec = json.loads(SPEC_PATH.read_text())[workload_name]

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import conekit  # noqa: F401  (import time belongs to set-up)

    import tracer as tracing
    import workloads

    traced = mode == "trace"
    counters = LayerCounters()
    new_covers = []
    if traced:
        tracer = tracing.Tracer(on_result={
            "decompose.decompose": counters.on_decompose,
            "decompose.reduce_to_hilbert": counters.on_reduce,
            "oracle.min_terms": counters.on_min_terms,
            "cover.build_cover_det5": lambda args, cover: new_covers.append(cover),
        })
        tracer.install(extra_modules=(workloads,))
    else:
        tracer = tracing.NullTracer()

    workload = workloads.WORKLOADS[workload_name](spec, seed)
    with tracer.span("bench.setup"):
        workload.setup(tracer)
    setup_s = time.perf_counter() - start
    counters.counts.clear()
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    caches = {
        name.split(".")[1]: fn
        for name, fn in (tracer.originals.items() if traced else ())
        if hasattr(fn, "cache_info")
    }
    cache_deltas = {fn: [0, 0] for fn in caches}
    probes = defaultdict(lambda: (0, 0))
    item_ns = []
    failures = []
    attempted = 0
    rounds_done = 0
    rss_mb = None
    loop_start = time.perf_counter()
    for batch in workload.rounds():
        if mode == "run":
            if (rounds_done >= spec["min_rounds"]
                    and time.perf_counter() - loop_start >= seconds):
                break
        elif rounds_done == n_rounds:
            break
        for item in batch:
            attempted += 1
            before = {fn: c.cache_info() for fn, c in caches.items()}
            error = None
            with tracer.span("bench.item"):
                t0 = time.perf_counter_ns()
                try:
                    out = workload.run(item, tracer)
                except Exception as err:  # an item failure must not end the run
                    error = err
                t1 = time.perf_counter_ns()
            for fn, c in caches.items():
                info = c.cache_info()
                cache_deltas[fn][0] += info.hits - before[fn].hits
                cache_deltas[fn][1] += info.misses - before[fn].misses
            if error is not None:
                failures.append(f"item {attempted}: {type(error).__name__}: {error}")
                continue
            item_ns.append(t1 - t0)
            try:
                bad = workload.check(item, out)
                if traced:
                    run_probes(workload, item, out, probes, tracer, new_covers)
            except Exception as err:  # a malformed result is a failed item
                bad = [f"checking raised {type(err).__name__}: {err}"]
            if bad:
                failures.append(f"item {attempted}: " + "; ".join(bad))
        rounds_done += 1
        if rounds_done == spec["min_rounds"]:
            rss_mb = peak_rss_mb()

    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(failures),  # at most one entry per item
        "failures": failures[:20],
        "item_ns": item_ns,
        "rounds": rounds_done,
        "digest": workload.digest(),
        "peak_rss_mb": rss_mb if rss_mb is not None else peak_rss_mb(),
    }
    if traced:
        sizes = {fn: c.cache_info().currsize for fn, c in caches.items()}
        result["layers"] = layer_metrics(tracer, counters, probes, cache_deltas, sizes)
        if spans_path != "-":
            tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
