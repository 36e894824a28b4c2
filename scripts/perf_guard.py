#!/usr/bin/env python3
"""CI perf-regression guard over the committed BENCH_*.json baselines.

Usage:
    perf_guard.py BASELINE_DIR CURRENT.json [CURRENT.json ...]

For every CURRENT artifact, the committed baseline of the same filename
is loaded from BASELINE_DIR and each result row's throughput metric
(`frames_per_wall_s`, `events_per_wall_s` or `sim_frames_per_wall_s`)
is compared against the baseline row with the same identity (the
non-measured keys: burst size, shard count, path name, frame length,
...). The guard fails when any metric drops more than THRESHOLD below
its baseline.

Wall-clock throughput on shared CI runners is noisy; 15% is wide enough
to absorb scheduler jitter while still catching a real datapath
regression (a genuine fast-path break shows up as a 50%+ drop, not
15%).

Shard-scaling artifacts are only compared when both sides were produced
under the same `cores_limited` condition: a capacity-starved artifact measures
scheduling overhead, not parallelism, and must not gate a multi-core
run (or vice versa).
"""

import json
import pathlib
import sys

THRESHOLD = 0.15
RATE_KEYS = (
    "frames_per_wall_s",
    "events_per_wall_s",
    "sim_frames_per_wall_s",
    "ops_per_wall_s",
    "sessions_per_wall_s",
)
# Keys that are measurements (vary run to run), not row identity.
MEASURED = set(RATE_KEYS) | {
    "wall_s",
    "tuple_wall_s",
    "ops",
    "speedup",
    "achieved_pps",
    "deficit_pct",
    "stream_wall_s",
    "collect_wall_s",
    # Run-size/outcome fields: these scale with --frames, so keeping
    # them in the identity would break comparisons whenever CI runs a
    # different frame count than the committed baseline.
    "digest",
    "captured",
    "events",
    # Fairness is a quality score the bench already asserts on (> 0.95);
    # tiny float drift must not split row identity.
    "jain_fairness",
}


def rows(doc):
    """Yield (identity, rate_key, row) for every comparable row."""
    for row in doc.get("results", []):
        rate_key = next((k for k in RATE_KEYS if k in row), None)
        if rate_key is None:
            continue
        ident = tuple(
            sorted((k, v) for k, v in row.items() if k not in MEASURED and not isinstance(v, (list, dict)))
        )
        yield ident, rate_key, row


def check(base_path, cur_path):
    base = json.load(open(base_path))
    cur = json.load(open(cur_path))
    # Correctness records (e.g. BENCH_chaos.json) carry no throughput
    # rows at all — they are audit tallies, not rate measurements. A
    # rate guard has nothing to compare there; the only thing worth
    # enforcing is that the audit itself is clean.
    if not list(rows(base)) and not list(rows(cur)):
        violations = cur.get("violations")
        if violations:
            return [
                f"  FAIL {cur_path.name}: correctness artifact reports "
                f"{violations} invariant violation(s)"
            ]
        print(f"  ok   {cur_path.name}: correctness artifact (no rate rows), audit clean")
        return []
    if base.get("cores_limited") != cur.get("cores_limited"):
        print(
            f"  SKIP {cur_path.name}: cores_limited "
            f"{base.get('cores_limited')} (baseline) vs {cur.get('cores_limited')} (current) "
            f"— artifacts are not comparable across host classes"
        )
        return []
    baseline_rows = {ident: row for ident, _, row in rows(base)}
    failures = []
    compared = 0
    for ident, rate_key, row in rows(cur):
        if ident not in baseline_rows:
            continue
        base_row = baseline_rows[ident]
        compared += 1
        label = ", ".join(f"{k}={v}" for k, v in ident)
        rate, base_rate = float(row[rate_key]), float(base_row.get(rate_key, 0))
        if base_rate <= 0:
            continue
        drop = 1.0 - rate / base_rate
        if drop > THRESHOLD:
            failures.append(
                f"  FAIL {cur_path.name} [{label}]: {rate_key} "
                f"{rate:.0f} is {drop:.1%} below baseline {base_rate:.0f}"
            )
        else:
            word = "down" if drop > 0 else "up"
            print(
                f"  ok   {cur_path.name} [{label}]: {rate_key} "
                f"{rate:.0f} vs {base_rate:.0f} ({abs(drop):.1%} {word})"
            )
    if compared == 0:
        failures.append(f"  FAIL {cur_path.name}: no comparable rows against {base_path.name}")
    return failures


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    baseline_dir = pathlib.Path(argv[1])
    failures = []
    for arg in argv[2:]:
        cur_path = pathlib.Path(arg)
        base_path = baseline_dir / cur_path.name
        if not base_path.exists():
            print(f"  SKIP {cur_path.name}: no committed baseline")
            continue
        if not cur_path.exists():
            failures.append(f"  FAIL {cur_path.name}: artifact was not produced")
            continue
        failures += check(base_path, cur_path)
    if failures:
        print(f"\nPerf regression guard: {len(failures)} failure(s), threshold {THRESHOLD:.0%}")
        print("\n".join(failures))
        return 1
    print(f"\nPerf regression guard: all artifacts within {THRESHOLD:.0%} of baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
