#!/usr/bin/env python3
"""Builds and runs the SEVE benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The first form builds the library and the seve_perfbench binary from
source (Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload
in its own process, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics. It exits non-zero when any
correctness or determinism gate fails.

The second form runs every workload scaled down, with and without tracing,
and checks metric names and units against BENCHMARK.json, digest parity
between the traced harness and Engine::Run, and span nesting.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_LIMIT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds seve_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SEVE sources under {ROOT}/src; cannot build")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(out, "seve_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def source_id():
    """The git commit, or a hash of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()


def run_binary(exe, args, deadline):
    """Runs the binary; returns (exit code, its RESULT object or None)."""
    try:
        done = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              text=True, timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("seve_perfbench timed out")
        return 1, None
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return done.returncode, result


def check_metrics(result, expected):
    """Names and units the binary reported vs BENCHMARK.json; [] if equal."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"metric {name} missing")
        elif name not in want:
            problems.append(f"metric {name} not in BENCHMARK.json")
        elif got[name] != want[name]:
            problems.append(f"metric {name}: unit {got[name]} != {want[name]}")
    return problems


def describe_host(result):
    info = result["info"]
    release = info["build_type"] == "Release"
    print(f"# host: build_type={info['build_type']} compiler=gcc-"
          f"{info['compiler']} nproc={info['nproc']} commit={source_id()}"
          f"{'' if release else '  WARNING: not a Release build'}")
    if not release:
        log(f"WARNING: {info['build_type']} build; timings are not comparable")


def measure(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    exe = build()
    if exe is None:
        return 1
    # The time limit covers the measurement, not a first build.
    deadline = time.time() + RUN_LIMIT_S
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(build_dir(),
                                        f"spans-{args.workload}.tsv")]
    code, result = run_binary(exe, cmd, deadline)
    if result is None:
        log(f"seve_perfbench exited {code} without a result")
        return 1
    describe_host(result)
    expected = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    problems = check_metrics(result, expected)
    for p in problems:
        log(p)
    correct = bool(result["correct"]) and code == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }))
    return 0 if correct else 1


def selfcheck():
    spec = load_spec()
    exe = build()
    if exe is None:
        return 1
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            deadline = time.time() + RUN_LIMIT_S
            cmd = ["--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", str(trace), "--small"]
            if trace == 1:
                cmd += ["--spans", os.path.join(build_dir(),
                                                f"selfcheck-{workload}.tsv")]
            code, result = run_binary(exe, cmd, deadline)
            label = f"{workload} trace={trace}"
            if result is None:
                failures.append(f"{label}: no result (exit {code})")
                continue
            expected = spec["per_layer"] if trace == 1 else spec["end_to_end"]
            problems = check_metrics(result, expected) + result["errors"]
            if code != 0 or not result["correct"]:
                problems.append(f"incorrect (exit {code})")
            if trace == 1 and result["info"].get("digest_parity") is not True:
                problems.append("no traced/untraced digest parity")
            failures += [f"{label}: {p}" for p in problems]
            print(f"# selfcheck {label}: {'ok' if not problems else 'FAIL'}")
    for f in failures:
        log(f)
    print("selfcheck " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
