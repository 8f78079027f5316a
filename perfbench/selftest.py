#!/usr/bin/env python3
"""Self-test of the benchmark harness, plus the cold-process determinism check.

  python3 perfbench/selftest.py

Checks, each printed as one PASS or FAIL line:

1. every workload at minimal size (--seconds 1), untraced and traced, ends
   with the result object, reports correct == true, and prints every metric
   BENCHMARK.json names, with its unit;
2. in a copy holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result;
3. the same copy, given the conekit sources and a deliberately wrong pinned
   digest, runs the default-seed sweep and reports the mismatch as a
   failure;
4. experiments.run_experiment on the pinned sweep configuration gives the
   pinned CSV sha256 in two fresh interpreters with different
   PYTHONHASHSEED values, so no cache or hash order leaks into the CSV.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
HASH_SEEDS = ("0", "4242")
WRONG_DIGEST = "0" * 64

_DIGEST_CODE = """
import hashlib, json, sys
from conekit import experiments
cfg = experiments.ExperimentConfig(**json.loads(sys.argv[1]))
csv = experiments.rows_to_csv(experiments.run_experiment(cfg))
print(hashlib.sha256(csv.encode()).hexdigest())
"""


def run_bench(workload, seed, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(done, declared):
    result = last_json(done.stdout)
    if done.returncode != 0 or result is None:
        return f"exit {done.returncode}, no result: {done.stderr.strip()[-300:]}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"correct={result['correct']} failed={result['failed']}"
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}"
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        if not isinstance(value, (int, float)):
            return f"{name} is not a number"
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in done.stdout.splitlines()):
            return f"{name} not printed with its unit"
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = json.loads((BENCH_DIR / "workloads.json").read_text())
    failures = 0

    def report(name, problem):
        nonlocal failures
        failures += problem is not None
        print(f"{'FAIL' if problem else 'PASS'} {name}" + (f": {problem}" if problem else ""),
              flush=True)

    for workload in sorted(specs):
        seed = specs[workload]["default_seed"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(workload, seed, trace)
            report(f"{workload} trace {trace} prints every metric",
                   check_metrics(done, bench[key]))

    # A copy of BENCHMARK.json and perfbench/ alone, as the benchmark's
    # files would be unpacked without the rest of the repository.
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    bare_run = bare / "perfbench" / "run.py"
    done = run_bench("cover", 1, 0, cwd=bare, script=bare_run)
    ok = done.returncode != 0 and last_json(done.stdout) is None
    report("without the conekit sources the run fails without a result",
           None if ok else f"exit {done.returncode}")

    # The same copy, given the sources and a wrong pinned digest.
    (bare / "src").symlink_to(ROOT / "src", target_is_directory=True)
    wrong = json.loads(json.dumps(specs))
    wrong["sweep"]["pinned"]["sha256"] = WRONG_DIGEST
    (bare / "perfbench" / "workloads.json").write_text(json.dumps(wrong, indent=1))
    done = run_bench("sweep", specs["sweep"]["default_seed"], 0, cwd=bare, script=bare_run)
    shutil.rmtree(bare)
    result = last_json(done.stdout)
    ok = (done.returncode == 0 and result is not None and not result["correct"]
          and result["failed"] >= 1)
    report("a wrong pinned digest is reported as a failure",
           None if ok else f"exit {done.returncode}, result {result}")

    pinned = specs["sweep"]["pinned"]
    digests = []
    for hash_seed in HASH_SEEDS:
        env = {k: v for k, v in os.environ.items() if k != "CONEKIT_TIMING"}
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(ROOT / "src")
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_CODE, json.dumps(pinned["config"])],
            capture_output=True, text=True, env=env, timeout=600,
        )
        digests.append(done.stdout.strip() or done.stderr.strip()[-200:])
    ok = all(d == pinned["sha256"] for d in digests)
    report(f"pinned sweep CSV digest under PYTHONHASHSEED {', '.join(HASH_SEEDS)}",
           None if ok else f"got {digests}, pinned {pinned['sha256']}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
