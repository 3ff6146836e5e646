#!/usr/bin/env python3
"""Build and run the qsurf benchmark.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                          [--record]

Run from the root of a qsurf checkout.  Builds qbench/ (the qsurf library,
the shipped compile_server and the qbench driver) into $CARGO_TARGET_DIR
or .bench_build/, repeats the workload's set-up in separate processes and
reports the median set-up time, runs the workload, checks every printed
metric name and unit against BENCHMARK.json, and prints the result as the
last line of stdout.  A traced run (--trace 1) also writes its spans to
spans-<workload>.jsonl in the build directory.  Exits nonzero when the sources are missing, the build
fails, an output check fails or a printed metric is undeclared.

--record rewrites qbench/expected/<workload>.json from this run (use with
the default seed, 1, after a change that is meant to alter results).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Extra set-up-only launches per run; set-up is reported as the median
# over these and the measuring launch.  service-mix set-up spawns a
# server and warms its cache, so it gets fewer.
SETUP_REPEATS = {"service-mix": 2}
DEFAULT_SETUP_REPEATS = 4

# Per-launch ceiling, well inside the 180 s a run may take.
LAUNCH_TIMEOUT_S = 170


def fail(message, code=1):
    print("qbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build; return the build directory."""
    for needed in ("src/engine/sweep.h", "examples/compile_server.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no qsurf sources in %s (missing %s)" % (ROOT, needed), 2)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "qbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def launch(build_dir, args, extra):
    """Run qbench once; return (exit code, stdout lines)."""
    cmd = [os.path.join(build_dir, "qbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected-dir", os.path.join(HERE, "expected"),
           "--server", os.path.join(build_dir, "compile_server")] + extra
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0-ns", str(t0)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in %d s" % (args.workload,
                                            LAUNCH_TIMEOUT_S))
    return proc.returncode, proc.stdout.strip().splitlines()


def check_names(declared, metrics):
    """Every printed metric is declared with the same unit, and every
    declared metric is printed."""
    problems = []
    for name, m in metrics.items():
        if name not in declared:
            problems.append("%s is not declared in BENCHMARK.json" % name)
        elif m["unit"] != declared[name]:
            problems.append("%s has unit %s, declared %s"
                            % (name, m["unit"], declared[name]))
    for name in declared:
        if name not in metrics:
            problems.append("%s is declared but not printed" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail("unknown workload %s" % args.workload, 2)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[kind]}

    build_dir = build()

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS.get(args.workload,
                                         DEFAULT_SETUP_REPEATS)):
            code, lines = launch(build_dir, args, ["--setup-only"])
            if code != 0 or not lines:
                fail("set-up failed")
            setups.append(json.loads(lines[-1])["metrics"]["setup_s"]
                          ["value"])

    extra = []
    if args.trace:
        extra = ["--spans",
                 os.path.join(build_dir, "spans-%s.jsonl" % args.workload)]
    if args.record:
        extra += ["--record",
                 os.path.join(HERE, "expected", args.workload + ".json")]
    code, lines = launch(build_dir, args, extra)
    if not lines:
        fail("%s printed no result" % args.workload)
    result = json.loads(lines[-1])
    facts = json.loads(lines[-2]) if len(lines) >= 2 else {}
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        facts.setdefault("samples", {})["setup_s"] = len(setups)

    problems = check_names(declared, metrics)
    for p in problems:
        print("qbench: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False

    for line in lines[:-2]:
        print(line)
    print(json.dumps(facts))
    print(json.dumps(result))
    sys.exit(code if code != 0 else (1 if problems else 0))


if __name__ == "__main__":
    main()
