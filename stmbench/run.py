#!/usr/bin/env python3
"""Build and run the end-to-end STM benchmark.

    python3 stmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds stmbench/ (a CMake package
over ../include) into $CARGO_TARGET_DIR/stmbench, or .bench_build/stmbench
when that variable is unset, then runs one workload. Prints the labelled
report as one JSON line, then the result line
{"correct", "attempted", "failed", "metrics"} last. Exits non-zero without
a result line when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("disjoint-update", "hashmap-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("stmbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "include", "chronostm", "stm", "facade.hpp")):
        fail("library headers not found under include/; run from a full source tree")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"), "stmbench")
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", "4"]):
        # Build chatter goes to stderr: stdout carries only the report.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "stmbench")


def source_labels():
    """The git commit when run from a git checkout, and always a digest of
    the sources the binary was built from (include/ and stmbench/)."""
    labels = {"git_commit": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            labels["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("include", "stmbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".hpp", ".cpp", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    labels["source_sha256"] = h.hexdigest()
    return labels


def check_result(res, trace):
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a positive integer")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        fail("failed must be a non-negative integer")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail("metric %s has no numeric value" % k)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    exe = build()
    try:
        r = subprocess.run(
            [exe, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("benchmark exited with code %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    report = json.loads(lines[-1])
    result = report.pop("result")
    check_result(result, a.trace)
    report["labels"].update(source_labels())
    for f in report["failures"]:
        print("stmbench: FAILED: " + f, file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
