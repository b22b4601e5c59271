#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The first form builds the
library, the `symor` binary and the benchmark with dune, then runs one
workload (grid_reduce, rlck_reduce or serve_mix); the last line of its
standard output is the JSON result. `--smoke` runs every workload on
tiny inputs, traced and untraced, and checks each result line: it
parses, names exactly the metrics BENCHMARK.json declares, every value
is finite, and the output checks ran.
"""

import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["grid_reduce", "rlck_reduce", "serve_mix"]


def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.exit(f"run.py: {need} not found; run from the root of a source checkout")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/symor.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        sys.exit(f"run.py: build failed (exit {r.returncode})")


def smoke_one(workload, trace, declared):
    args = [EXE, "--workload", workload, "--seed", "1", "--seconds", "8",
            "--trace", str(trace), "--tiny"]
    r = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    where = f"{workload} --trace {trace}"
    if r.returncode != 0 or not lines:
        return f"{where}: exit {r.returncode}"
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return f"{where}: correct={result['correct']} attempted={result['attempted']}"
    want = declared["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != set(want):
        return f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            return f"{where}: metric {name} = {m}"
    prov = [l for l in lines if l.startswith("provenance: ")]
    if not prov or json.loads(prov[-1][len("provenance: "):])["output_checks"] < 1:
        return f"{where}: no output check ran"
    print(f"smoke: {where}: ok ({result['attempted']} attempted, {len(got)} metrics)", flush=True)
    return None


def smoke():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {k: {m["name"]: m["unit"] for m in bench[k]} for k in ("end_to_end", "per_layer")}
    errors = [e for w in WORKLOADS for t in (0, 1) if (e := smoke_one(w, t, declared))]
    for e in errors:
        print(f"smoke: FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        sys.exit(smoke())
    sys.stdout.flush()
    sys.exit(subprocess.run([EXE] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
