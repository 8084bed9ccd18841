#!/usr/bin/env python3
"""Builds and runs the ccjs host benchmark (see README.md).

    python3 ccjsbench/run.py --workload sweep|service|churn --seed N \
        --seconds S --trace 0|1
    python3 ccjsbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout. The first run configures and builds
the library and the benchmark program from source into the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later runs reuse it. The
last line of standard output is the JSON result; build output goes to
standard error. `--workload all` runs the three workloads untraced, one
process each, and prints their end-to-end metrics side by side.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "service", "churn")
# Address-space cap of the benchmark program, about eight times the largest
# peak RSS of any workload: a generated script that allocated without
# bound would otherwise take the whole machine's memory before it failed.
MEMORY_CAP = 4 << 30


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def fail(msg):
    print(f"ccjsbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ccjs sources at {ROOT / 'src'}; run from a source checkout")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ccjsbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def check_spans(path):
    """The span file parses, and no span's self time is negative."""
    spans = json.loads(Path(path).read_text())["spans"]
    return bool(spans) and all(s["self_us"] >= 0 and
                               s["end_us"] >= s["start_us"] for s in spans)


def run_timeout(seconds):
    """How long one run may take: the measured phases, the service loop's
    allowance of 3 x --seconds to catch up, and up to a minute of set-ups
    and reference computation."""
    return 3 * seconds + 60


def run_one(out, workload, seed, seconds, trace):
    spans = out / "spans" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "ccjsbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--digests", str(HERE / "digests.txt"),
           "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout(seconds),
                              preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {run_timeout(seconds)} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if trace and not check_spans(spans):
        print(f"ccjsbench: bad span file {spans}", file=sys.stderr)
        result["correct"] = False
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    params = json.loads((HERE / "params.json").read_text())
    seed = params["gate_seed"] if args.seed is None else args.seed
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seconds = args.seconds
    out = build()

    if args.workload != "all":
        text, result = run_one(out, args.workload, seed, seconds,
                               args.trace)
        print("\n".join(text))
        print(json.dumps(result))
        return

    results = {w: run_one(out, w, seed, seconds, 0)[1]
               for w in WORKLOADS}
    names = list(results["sweep"]["metrics"]) + ["failed_frac"]
    print(f"{'metric':<16}{'unit':>10}" +
          "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        cells, unit = [], "ratio"
        for w in WORKLOADS:
            r = results[w]
            if name == "failed_frac":
                cells.append(r["failed"] / r["attempted"])
            else:
                cells.append(r["metrics"][name]["value"])
                unit = r["metrics"][name]["unit"]
        print(f"{name:<16}{unit:>10}" + "".join(f"{c:>14.4f}" for c in cells))
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
