#!/usr/bin/env python3
"""End-to-end benchmark of the julie verifier: net in -> verdict out.

Builds the benchmark program (e2e_bench/bench_main.cpp, linked against ../src) with CMake
into .bench_build/, then runs one workload and prints its metrics. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

  python3 e2e_bench/run.py --workload gpo-conflict --seed 1 --seconds 20 --trace 0
  python3 e2e_bench/run.py --all --seconds 4     # every workload, every metric
  python3 e2e_bench/run.py --selfcheck           # the benchmark's own checks

See e2e_bench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gpo-conflict", "portfolio-stream", "baseline-statespace"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2e_bench")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", out, "--target", "e2e_bench",
          "-j", str(os.cpu_count() or 1)])
    return os.path.join(out, "e2e_bench")


def step(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.exit("e2e_bench: build step failed: " + " ".join(cmd))


def commit():
    """The git commit if this is a checkout, else a digest of src/."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for f in sorted(files):
            with open(os.path.join(d, f), "rb") as fh:
                h.update(f.encode() + b"\0" + fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(ROOT, ".bench_build", "e2e_work",
                        "%s-%d" % (workload, os.getpid()))
    trace_dir = os.path.join(ROOT, ".bench_build", "e2e_traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", os.path.join(HERE, "expected_verdicts.txt"),
           "--work-dir", work, "--commit", commit(),
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.jsonl" % (workload, seed))]
    cmd += list(extra)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
        return r.returncode, r.stdout.splitlines()
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2e_bench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 124, []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def header_of(lines):
    for line in lines:
        if line.startswith('{"header"'):
            return json.loads(line)["header"]
    return {}


def selfcheck(binary):
    """The benchmark's own checks; returns the number of failures."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("PASS " if ok else "FAIL ") + what)
        failures += 0 if ok else 1

    r = subprocess.run([binary, "--verify-table", "--expected",
                        os.path.join(HERE, "expected_verdicts.txt")],
                       capture_output=True, text=True)
    expect(r.returncode == 0, "expected-verdict table agrees with the search: "
           + r.stdout.strip())
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for w in WORKLOADS:
        digests = set()
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            code, lines = run(binary, w, seed, 2, trace)
            res = result_of(lines)
            ok = code == 0 and res is not None and res["correct"] and res["failed"] == 0
            expect(ok, "%s seed %d trace %d: exit 0, correct, no failed job"
                   % (w, seed, trace))
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   "%s: result keys" % w)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want[trace], "%s trace %d: metric names and units "
                   "match BENCHMARK.json" % (w, trace))
            if trace == 0:
                digests.add(header_of(lines).get("job_list_digest"))
                expect(res["metrics"]["decided_frac"]["value"] == 1.0,
                       "%s seed %d: decided_frac = 1.0" % (w, seed))
        expect(len(digests) == 2, "%s: seeds 1 and 2 give different job lists" % w)
    code, lines = run(binary, "gpo-conflict", 1, 1, 0,
                      ["--flip-expected", "nsdp:4"])
    res = result_of(lines)
    expect(code != 0 and res is not None and not res["correct"]
           and res["failed"] > 0,
           "a flipped expected verdict (nsdp:4) fails the run")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced, print a table")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.selfcheck):
        ap.error("one of --workload, --all, --selfcheck is required")

    binary = build()
    if args.selfcheck:
        sys.exit(1 if selfcheck(binary) else 0)
    if args.all:
        worst = 0
        for w in WORKLOADS:
            for trace in (0, 1):
                code, lines = run(binary, w, args.seed, args.seconds, trace)
                worst = max(worst, code)
                res = result_of(lines)
                if res is None:
                    print("%s trace %d: no result (exit %d)" % (w, trace, code))
                    continue
                print("%s trace %d: correct=%s attempted=%d failed=%d"
                      % (w, trace, res["correct"], res["attempted"], res["failed"]))
                for name, m in res["metrics"].items():
                    print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
        sys.exit(worst)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
