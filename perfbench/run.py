#!/usr/bin/env python3
"""Build and run the interactive-session benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload script-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 20

The first form builds perfbench (a Go module next to this file that
imports the repository's packages from source) and runs one workload; the
last line of its output is the JSON result. --report runs every workload
untraced and traced, prints every metric with its unit, and writes
.bench_build/perfbench/report.json. Build outputs, the Go build cache and
run data all stay under .bench_build/ in the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")
WORKLOADS = ["script-scan", "native-stage", "tune-loop"]
BUILD_TIMEOUT = 840  # a cold Go build cache compiles the standard library
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "PPROF_TMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env.update(dirs)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly")
    return env


def build(env):
    go = shutil.which("go") or "/usr/local/go/bin/go"
    env["PATH"] = os.path.dirname(go) + os.pathsep + env.get("PATH", "")
    subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env, check=True,
                   timeout=BUILD_TIMEOUT, stdout=sys.stderr)


def run(env, workload, seed, seconds, trace, capture=False):
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-out", OUT]
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT, check=True,
                          stdout=subprocess.PIPE if capture else None, text=True)


def report(env, seed, seconds):
    units = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"] + bench["per_layer"]:
        units[m["name"]] = m["unit"]
    results = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            out = run(env, w, seed, seconds, trace, capture=True).stdout
            results[f"{w}/trace{trace}"] = json.loads(out.strip().splitlines()[-1])
    for key, res in results.items():
        print(f"{key}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:34s} {m['value']:16.4f} {units.get(name, m['unit'])}")
    with open(os.path.join(OUT, "report.json"), "w") as f:
        json.dump({"seed": seed, "seconds": seconds, "results": results}, f, indent=2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    args = p.parse_args()
    if not args.report and not args.workload:
        p.error("--workload or --report is required")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "internal", "core")
    ):
        sys.exit(f"perfbench: no program source next to {HERE} (go.mod, internal/core)")
    env = go_env()
    try:
        build(env)
        if args.report:
            report(env, args.seed, args.seconds)
        else:
            run(env, args.workload, args.seed, args.seconds, args.trace)
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: {e}")
    except subprocess.TimeoutExpired as e:
        sys.exit(f"perfbench: timed out: {e}")


if __name__ == "__main__":
    main()
