#!/usr/bin/env python3
"""Self test of the benchmark: run from the repository root.

    python3 perfbench/selftest.py

For each workload: two traced runs at reduced length, whose
deterministic counts must repeat exactly, and one untraced run.  Every
run must be correct and must emit every metric BENCHMARK.json names,
with its unit.  Exits 1 on the first failure.
"""

import json
import subprocess
import sys

SECONDS = 3.0
SEED = 5

# Counts fixed by the inputs alone: equal on every run of one seed.
DETERMINISTIC = [
    "matching.build.pairs_scored",
    "matching.build.cache_lookups",
    "matching.build.profile_builds",
    "core.infer.families",
    "core.infer.views",
    "matching.view_matches.views_scored",
    "core.select_matches.selected",
    "delta.maintain.patched_frac",
    "serve.json.request_kb",
]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (workload, trace, proc.returncode, proc.stderr))
    return json.loads(lines[-1])


def check_metrics(result, declared, what):
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit("FAIL %s: correct=%s attempted=%d failed=%d"
                 % (what, result["correct"], result["attempted"], result["failed"]))
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            sys.exit("FAIL %s: metric %s missing" % (what, m["name"]))
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit("FAIL %s: metric %s has unit %s, declared %s"
                     % (what, m["name"], got[m["name"]]["unit"], m["unit"]))
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        sys.exit("FAIL %s: undeclared metrics %s" % (what, sorted(extra)))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(run(name, SEED, SECONDS, 0), bench["end_to_end"], name + " untraced")
        first, second = (run(name, SEED, SECONDS, 1) for _ in range(2))
        for r in (first, second):
            check_metrics(r, bench["per_layer"], name + " traced")
        for key in DETERMINISTIC:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                sys.exit("FAIL %s: %s differs between runs: %r vs %r" % (name, key, a, b))
        print("ok %s: %s" % (name, ", ".join(
            "%s=%g" % (k.rsplit(".", 1)[-1], first["metrics"][k]["value"]) for k in DETERMINISTIC)))
    print("selftest passed")


if __name__ == "__main__":
    main()
