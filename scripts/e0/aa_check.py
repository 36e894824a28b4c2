#!/usr/bin/env python3
"""Hold two e0 result files of one commit to the bounds in BENCHMARK.json.

    aa_check.py A.jsonl B.jsonl

A result file holds one JSON object per line, as `e0_pipeline --out`
appends them. Exits 1 when a check misses, 2 on unusable input.

For every (workload, trace) run in both files, each end-to-end metric
may differ by at most its bound, relative to A, in either direction
(`setup_s` also passes within SETUP_FLOOR_S, absolute: a few
microseconds of set-up have no meaningful relative spread), and every
entry of `exact` (digest, op and event counts, per-layer counts) must
be equal. The raw `host.*` readings are printed beside the normalized
ones and held to nothing: a shift that shows in `ops_per_norm_s` but
not in `host.ops_per_wall_s` (or the other way round) came from the
reference kernel or the host, not from the program.
"""

import json
import pathlib
import sys

SETUP_FLOOR_S = 0.005


def load(path):
    runs = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def value(run, name):
    return run["metrics"][name]["value"]


def compare(end_to_end, a_runs, b_runs):
    misses = 0
    for key in sorted(a_runs.keys() & b_runs.keys()):
        a, b = a_runs[key][-1], b_runs[key][-1]
        label = f"{key[0]} trace={key[1]}"
        for run, side in ((a, "A"), (b, "B")):
            if not run["correct"]:
                print(f"MISS {label}: {side} failed its own checks: {run['problems']}")
                misses += 1
        if key[1] == 0:
            for m in end_to_end:
                va, vb = value(a, m["name"]), value(b, m["name"])
                rel = abs(vb - va) / abs(va) if va else float(vb != va)
                ok = rel <= m["bound"]
                if m["name"] == "setup_s" and abs(vb - va) <= SETUP_FLOOR_S:
                    ok = True
                print(
                    f"{'ok  ' if ok else 'MISS'} {label} {m['name']}: "
                    f"A {va:.6g} B {vb:.6g} {m['unit']} differ {rel:.2%} (bound {m['bound']:.2%})"
                )
                misses += not ok
            for name, m in sorted(a.get("host_metrics", {}).items()):
                va, vb = m["value"], b["host_metrics"][name]["value"]
                print(
                    f"     {label} {name}: A {va:.6g} B {vb:.6g} {m['unit']} "
                    f"differ {abs(vb - va) / abs(va):.2%} (raw, not held)"
                )
        for name in sorted(a["exact"].keys() | b["exact"].keys()):
            ea, eb = a["exact"].get(name), b["exact"].get(name)
            if ea != eb:
                print(f"MISS {label} exact {name}: A {ea} B {eb}")
                misses += 1
    if not a_runs.keys() & b_runs.keys():
        print("MISS the two files share no run")
        misses += 1
    return misses


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    end_to_end = json.loads(bench.read_text())["end_to_end"]
    misses = compare(end_to_end, load(argv[1]), load(argv[2]))
    print(f"{misses} miss(es)")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
