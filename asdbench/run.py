#!/usr/bin/env python3
"""Build asdbench from source and run it, or run its smoke checks.

Run from the root of a checkout:

    python3 asdbench/run.py --workload spec_stream_pms --seed 1 \\
        --seconds 20 --trace 0
    python3 asdbench/run.py --smoke [--seed 7] [--bin PATH]

The first form configures and builds the package in
.bench_build/asdbench (CMake, RelWithDebInfo), then runs the binary
with the given arguments. The binary's last stdout line is the JSON
result; build output goes to stderr.

--smoke runs every workload listed in BENCHMARK.json at 5% of its
trace length, end to end and traced; 5% is the least at which ASD
prefetches on bwaves, so the interposer's forwarding is exercised.
The golden is pinned at full scale only, so the smoke checks that a
workload's runs agree with each other. It checks that each run reports
exactly the metrics BENCHMARK.json names, with their units, and that no
op failed. --bin names an already-built binary and skips the build.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "asdbench"
BUILD = ROOT / ".bench_build" / "asdbench"


def build():
    """Build the binary; exit non-zero when the sources are missing."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("asdbench: no simulator sources under " + str(ROOT / "src")
                 + "; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(PACKAGE), "-B", str(BUILD)],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "asdbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("asdbench: build step failed: " + " ".join(step))
    return BUILD / "asdbench"


def last_json_line(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke(binary, seed):
    """Downscaled run of every workload; exit non-zero on any problem."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    env = dict(os.environ, ASD_BENCH_SCALE="0.05")
    problems = []
    with tempfile.TemporaryDirectory(dir=binary.parent) as scratch:
        for workload in spec["workloads"]:
            name = workload["name"]
            for trace, metrics in groups.items():
                report = Path(scratch) / f"{name}_{trace}.json"
                events = Path(scratch) / f"{name}_{trace}.trace.json"
                cmd = [str(binary), "--workload", name, "--seconds", "0",
                       "--trace", trace, "--out", str(report),
                       "--trace-out", str(events)]
                if seed is not None:
                    cmd += ["--seed", seed]
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      env=env, timeout=600)
                where = f"{name} --trace {trace}"
                if done.returncode != 0:
                    problems.append(f"{where}: exit {done.returncode}: "
                                    + done.stderr.strip()[-400:])
                    continue
                result = last_json_line(done.stdout)
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append(f"{where}: result keys {sorted(result)}")
                    continue
                if not result["correct"] or result["failed"] != 0 \
                        or result["attempted"] < 1:
                    problems.append(f"{where}: {result['failed']} of "
                                    f"{result['attempted']} ops failed")
                want = {m["name"]: m["unit"] for m in metrics}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if want != got:
                    problems.append(f"{where}: metrics differ from "
                                    f"BENCHMARK.json: missing "
                                    f"{sorted(set(want) - set(got))}, extra "
                                    f"{sorted(set(got) - set(want))}, or a "
                                    f"unit differs")
                for key, value in result["metrics"].items():
                    if not isinstance(value["value"], (int, float)):
                        problems.append(f"{where}: {key} is not a number")
                doc = json.loads(report.read_text())
                if doc.get("build", {}).get("type") is None:
                    problems.append(f"{where}: report lacks build info")
                if trace == "1" and not json.loads(
                        events.read_text())["traceEvents"]:
                    problems.append(f"{where}: empty --trace-out")
    for problem in problems:
        print("asdbench smoke: " + problem, file=sys.stderr)
    if problems:
        sys.exit(1)
    print("asdbench smoke: ok, seed " + (seed or "default"))


def main(argv):
    if "--smoke" in argv:
        argv = [a for a in argv if a != "--smoke"]
        binary = None
        seed = None
        while argv:
            flag = argv.pop(0)
            if flag in ("--bin", "--seed") and argv:
                value = argv.pop(0)
                if flag == "--bin":
                    binary = Path(value)
                else:
                    seed = value
            else:
                sys.exit("asdbench smoke: unknown argument " + flag)
        smoke(binary or build(), seed)
        return 0
    binary = build()
    return subprocess.run([str(binary)] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
