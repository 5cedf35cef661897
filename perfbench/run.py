#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 its metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer
ones (a layer the workload never calls reads 0). Before it come a
provenance line (host, build, git sha, source digest, seed) and a line with
every metric the program measured, listed in BENCHMARK.json or not. The
exit code is nonzero when the build fails or a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SPANS = BUILD / "spans"
WORKLOADS = ["static-optimal", "online-seqscan", "sharded-drift"]
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return BINARY.exists()


def source_digest():
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def metric_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_program(workload, seed, seconds, trace, extra=()):
    """Runs the measuring program; returns (exit code, provenance, result)."""
    SPANS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", str(SPANS), *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1, None, None
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        log("perfbench: unreadable output:\n" + p.stdout)
        return p.returncode or 1, None, None
    return p.returncode, provenance, result


def shape(result, trace):
    """Keeps exactly the metrics BENCHMARK.json names for this mode.

    Returns (result, missing names). Per-layer metrics of layers the
    workload never calls read 0; a missing end-to-end metric is an error.
    """
    measured = result["metrics"]
    metrics, missing = {}, []
    for m in metric_spec(trace):
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                missing.append(m["name"])
                continue
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            missing.append(m["name"] + " (unit " + got["unit"] + ")")
        metrics[m["name"]] = got
    shaped = {"correct": bool(result["correct"]) and not missing,
              "attempted": int(result["attempted"]),
              "failed": int(result["failed"]),
              "metrics": metrics}
    return shaped, missing


def run_once(args):
    if not build():
        return 1
    code, provenance, result = run_program(args.workload, args.seed,
                                           args.seconds, args.trace)
    if result is None:
        return code or 1
    provenance.update(git_sha=git_sha(), src_sha256=source_digest())
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"measured": result["metrics"]}))
    shaped, missing = shape(result, args.trace)
    if missing:
        log("perfbench: metrics missing from the result:", ", ".join(missing))
    print(json.dumps(shaped), flush=True)
    return code if code else (0 if shaped["correct"] else 1)


def selftest():
    """Every workload and check at tiny sizes, plus tampered expectations."""
    if not build():
        return 1
    failures = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_program(w, 7, 0.3, trace, ["--tiny"])
            ok = code == 0 and result is not None
            if ok:
                shaped, missing = shape(result, trace)
                ok = shaped["correct"] and not missing
            log(f"selftest {w} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"{w} trace={trace}")
        # Negative case: a corrupted expected counter must fail the check.
        trace = 1 if w == "sharded-drift" else 0
        code, _, result = run_program(w, 7, 0.3, trace, ["--tiny", "--tamper"])
        caught = code != 0 and result is not None and not result["correct"]
        log(f"selftest {w} tampered: {'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"{w} tampered")
    if failures:
        log("selftest FAILED:", ", ".join(failures))
        return 1
    log("selftest passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
