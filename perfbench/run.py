#!/usr/bin/env python3
"""conekit benchmark: one workload, measured in fresh processes.

  python3 perfbench/run.py --workload {sweep,certify,cover} --seed N \\
      --seconds S --trace {0,1}

Run from anywhere; paths are resolved from this file.  Every measurement
runs in a new single-threaded interpreter (worker.py), because conekit's
per-cone lru_caches would make any repeat in one process nearly free.  A
workload is a closed loop: one caller, and the next item starts only after
the previous one has finished and been checked.

--trace 0 runs SETUP_REPEATS set-ups, half before and half after one
closed loop of whole rounds for at least S seconds (setup_s is the median
of these and the loop's own set-up), and reports the end-to-end metrics of
BENCHMARK.json.  --trace 1 runs a closed loop untraced for S/2 seconds,
then the same rounds again with spans around every layer boundary; it
reports the per-layer metrics and trace.overhead_frac, the traced item time
over the untraced one, minus one.

Every metric is printed as `name value unit`, followed by fail_frac,
item_ms_p50 and item_ms_tail, which are reported but not gated: item
latency percentiles move with which cones a seed draws by more than any
usable bound.  The last stdout line is the JSON result {"correct",
"attempted", "failed", "metrics"}.  The full record
(failures, tail latency, environment) goes to perfbench/out/, and the
traced run's spans to perfbench/out/spans-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"

# Fresh set-ups besides the main run's own, half before it and half after,
# so that a short slow spell of a shared machine moves few of them.
SETUP_REPEATS = 6
TIME_LIMIT_S = 170  # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# Program settings that would change what is measured.
CLEARED_ENV = ("CONEKIT_TIMING", "CONEKIT_NODE_BUDGET")


class BenchError(Exception):
    pass


def child(mode, args, deadline, seconds=0, rounds=0, spans="-"):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cmd = [
        sys.executable, str(WORKER), mode, args.workload, str(args.seed),
        str(seconds), str(rounds), spans,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the {TIME_LIMIT_S} s limit")
    if done.returncode != 0:
        raise BenchError(f"{mode} process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_ms(item_ns):
    """Highest standard percentile with at least ten items beyond it."""
    n = len(item_ns)
    ordered = sorted(item_ns)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            rank = max(1, -(-n * p // 100))  # nearest-rank percentile
            return {"percentile": p, "value": ordered[int(rank) - 1] / 1e6, "samples": n}
    return None


def check_digest(args, spec, results):
    """Compare the first-round sweep CSV digest with the pinned one."""
    pinned = spec.get("pinned")
    if pinned is None or args.seed != spec["default_seed"]:
        return None
    expected = pinned["sha256"]
    got = [r["digest"] for r in results]
    return {"expected": expected, "got": got, "ok": all(d == expected for d in got)}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_untraced(args, deadline):
    def setup_s():
        return child("setup", args, deadline)["setup_s"]

    setups = [setup_s() for _ in range(SETUP_REPEATS // 2)]
    main = child("run", args, deadline, seconds=args.seconds)
    setups.append(main["setup_s"])
    setups += [setup_s() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    item_ns = main["item_ns"]
    if not item_ns:
        raise BenchError("no item completed: " + "; ".join(main["failures"][:3]))
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(item_ns) / (sum(item_ns) / 1e9),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    extra = {
        "setup_s_samples": setups,
        "rounds": main["rounds"],
        "item_ms_p50": statistics.median(item_ns) / 1e6,
        "item_ms_tail": tail_ms(item_ns),
    }
    return metrics, [main], extra


def run_traced(args, deadline, spans_path):
    ref = child("run", args, deadline, seconds=args.seconds / 2)
    rounds = ref["rounds"]
    traced = child("trace", args, deadline, rounds=rounds, spans=str(spans_path))
    n = min(len(ref["item_ns"]), len(traced["item_ns"]))
    if n == 0:
        raise BenchError("no item completed: " + "; ".join(traced["failures"][:3]))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (
        sum(traced["item_ns"][:n]) / sum(ref["item_ns"][:n]) - 1
    )
    return metrics, [ref, traced], {"rounds": rounds, "spans": str(spans_path)}


def main(argv=None):
    spec_all = json.loads((BENCH_DIR / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec_all))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "conekit" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"conekit sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(bench_file.read_text())["per_layer" if args.trace else "end_to_end"]
    spec = spec_all[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            measured, results, extra = run_traced(
                args, deadline, OUT_DIR / f"spans-{tag}.jsonl"
            )
        else:
            measured, results, extra = run_untraced(args, deadline)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
    }

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    digest = check_digest(args, spec, results)
    if digest is not None:
        attempted += 1
        if not digest["ok"]:
            failed += 1
            failures.append(f"sweep CSV sha256 {digest['got']} != pinned {digest['expected']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "digest": digest,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        **extra,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {record['fail_frac']:.6g} frac ({failed}/{attempted})")
    tail = extra.get("item_ms_tail")
    if not args.trace:
        print(f"item_ms_p50 {extra['item_ms_p50']:.6g} ms ({len(results[0]['item_ns'])} items)")
        if tail:
            print(f"item_ms_tail {tail['value']:.6g} ms (p{tail['percentile']:g} of {tail['samples']} items)")
        else:
            print("item_ms_tail omitted: fewer than 20 items")
    for line in failures[:5]:
        print(f"FAILED {line}")
    print(f"python {record['python']} nproc {record['nproc']} git {record['git_sha']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
