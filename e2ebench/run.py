#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of Secure Yannakakis.

Run from the repository root:

    python3 e2ebench/run.py --workload q3-real --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --smoke

The first form builds the benchmark with dune (build output goes to
stderr) and runs one workload; the last line of stdout is the JSON
result. --smoke runs every workload once at scale xs, in both trace
modes, and checks that each metric declared in BENCHMARK.json is emitted
with its declared unit and that no execution failed.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "e2ebench", "main.exe")


def build():
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./e2ebench/main.exe"],
            stdout=sys.stderr,
            env=env,
        )
    except OSError as e:
        print(f"cannot run dune: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            r = subprocess.run(
                [EXE, "--workload", w["name"], "--smoke", "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append(f"{label}: exit code {r.returncode}")
                continue
            result = json.loads(lines[-1])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared:
                problems.append(f"{label}: metrics differ from BENCHMARK.json {key}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} failed executions")
            if trace == 1 and result["metrics"]["check.failed_frac"]["value"] != 0:
                problems.append(f"{label}: check.failed_frac is not 0")
            print(f"{label}: {len(emitted)} metrics, {result['attempted']} executions")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--smoke"]:
        return smoke()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
