#!/usr/bin/env python3
"""Self-test of the repo benchmark, on tiny configurations.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the tiny configuration
untraced once and traced twice with one seed, and traced once with
another seed, then checks that:

- every run exits 0 and its last line is a result object with
  correct=true and exactly the metrics BENCHMARK.json names (end-to-end
  untraced, per-layer traced), each with its unit;
- the same seed gives the same schedule and a different seed another;
- the deterministic counts repeat exactly between the two same-seed
  runs: per-instance pivots, refactors, rebuilds, fallbacks, dense
  pivots, rounds and cuts for the cut workloads; attempted operations,
  session pivots and cut reuse for serve-mix.

Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
ROW_FIELDS = ["pivots", "refac", "rebld", "fallbk", "dense_pv", "rounds", "cuts"]
SERVE_COUNTS = ["session.pivots_per_resolve", "session.reuse_share"]


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        fail("%s exited %d:\n%s%s" % (" ".join(cmd), p.returncode, p.stdout, p.stderr))
    lines = p.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_result(workload, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s" % (workload, result["correct"], result["attempted"]))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail("%s: metrics/units differ from BENCHMARK.json: %s" %
             (workload, sorted(set(got.items()) ^ set(want.items()))))


def context(lines, key):
    for line in lines:
        parts = line.split(None, 1)
        if len(parts) == 2 and parts[0] == key:
            return parts[1]
    fail("no %r line in output" % key)


def rows(lines):
    """Per-instance rows of a traced cut run, keyed by family and seed."""
    out, header = {}, None
    for line in lines:
        cols = line.split()
        if cols[:2] == ["family", "seed"]:
            header = cols
        elif header and len(cols) == len(header) and cols[1].isdigit():
            rec = dict(zip(header, cols))
            out[(rec["family"], rec["seed"])] = [rec["status"]] + [rec[f] for f in ROW_FIELDS]
        elif header:
            break
    return out


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        lines, result = run(name, 5, 0)
        check_result(name, result, SPEC["end_to_end"])
        a_lines, a = run(name, 5, 1)
        b_lines, b = run(name, 5, 1)
        c_lines, _ = run(name, 6, 1)
        for r in (a, b):
            check_result(name, r, SPEC["per_layer"])
        if context(a_lines, "schedule") != context(b_lines, "schedule"):
            fail("%s: same seed, different schedule" % name)
        if context(a_lines, "schedule") == context(c_lines, "schedule"):
            fail("%s: seeds 5 and 6 gave the same schedule" % name)
        if name.startswith("cut-"):
            ra, rb = rows(a_lines), rows(b_lines)
            if not ra or ra != rb:
                fail("%s: per-instance counts differ between runs:\n%s\n%s" % (name, ra, rb))
        else:
            if a["attempted"] != b["attempted"]:
                fail("%s: attempted %d vs %d" % (name, a["attempted"], b["attempted"]))
            for k in SERVE_COUNTS:
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]:
                    fail("%s: %s differs between runs" % (name, k))
        print("selftest: %s ok" % name)
    print("selftest: ok")


if __name__ == "__main__":
    main()
