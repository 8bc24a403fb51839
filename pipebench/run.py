#!/usr/bin/env python3
"""Pipeline benchmark: offline pre-training, StreamTune online tuning and
rate-based tuning, each timed layer by layer from outside the program.

Run from the repository root:

    python3 pipebench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

The first run builds the repository and this benchmark with sbt; later runs
reuse that build while the sources are unchanged. The last line of standard
output is one JSON object with the run's metrics; the lines before it are the
run's log. The exit code is 0 only for a run whose checks all passed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = "pipebench"
STATE_DIR = os.path.join(BENCH_DIR, "target", "state")
CLASSPATH_FILE = os.path.join(BENCH_DIR, "target", "classpath.txt")
WORKLOADS = ("pretrain", "tune-streamtune", "tune-ratebased")
# Everything the build reads: the program, its build, and this benchmark.
SOURCES = ("build.sbt", "project", "src/main", "jobs", BENCH_DIR)
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseSerialGC"]


def fail(msg):
    print(f"pipebench: {msg}", file=sys.stderr)
    sys.exit(2)


def fingerprint():
    """Hash of every source and build file, so a changed tree is rebuilt."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths += [os.path.join(root, f) for f in sorted(files)
                      if f.endswith((".scala", ".sbt", ".properties", ".py"))]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def classpath(build_id):
    """Compile with sbt when the sources changed; return the runtime classpath."""
    if os.path.exists(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as f:
            cached_id, cp = f.read().split("\n", 1)
        if cached_id == build_id:
            return cp.strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=BENCH_DIR, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:])
        fail(f"build failed (exit {out.returncode})")
    cp = out.stdout.strip().splitlines()[-1]
    if "pipebench" not in cp:
        sys.stderr.write(out.stdout[-4000:])
        fail("build did not report a classpath")
    os.makedirs(os.path.dirname(CLASSPATH_FILE), exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(build_id + "\n" + cp + "\n")
    return cp


def main():
    # A terminated run stops its build or JVM too: subprocess.run kills the
    # child when the SystemExit raised here interrupts it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for need in ("build.sbt", "src/main/scala/repro"):
        if not os.path.exists(need):
            fail(f"run from the repository root: {need} is missing")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    build_id = fingerprint()
    cp = classpath(build_id)
    cmd = ["java", *JVM_OPTS, "-cp", cp, "repro.pipebench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--state-dir", STATE_DIR, "--build-id", build_id]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")

    # The printed metrics must be exactly the ones BENCHMARK.json declares.
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"printed metrics {sorted(printed.items())} differ from BENCHMARK.json {sorted(declared.items())}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
