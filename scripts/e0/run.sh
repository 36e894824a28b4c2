#!/usr/bin/env bash
# E0: build the benchmark and run it. See README.md beside this file.
#
#   run.sh --workload W --seed S --seconds T --trace 0|1
#       one run of one workload (what BENCHMARK.json's command does);
#       the last line of output is the result as JSON.
#   run.sh [--seed S]
#       every workload, end-to-end run then traced run, every metric
#       printed by name; results also written as JSON lines.
#   run.sh --aa [--seed S]
#       the above twice, then aa_check.py on the two result files.
#   run.sh --bless
#       re-pin expected.json from traced seed-1 runs, printing old and new.
#
# Exits non-zero when the build, any run or any check fails.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/.bench_build}
# The product reads OSNT_* knobs from inside library code.
for knob in $(compgen -e | grep '^OSNT_' || true); do unset "$knob"; done
E0_RUSTC=$(rustc -V)
E0_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export E0_RUSTC E0_COMMIT

cargo build --release --offline --quiet \
    --manifest-path crates/bench/src/bin/e0_pipeline/Cargo.toml >&2
bin=$CARGO_TARGET_DIR/release/e0_pipeline
expected=scripts/e0/expected.json
workloads="p1_legacy_load p2_consistency p2_churn burst_linerate"

mode=all seed=1
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
case " $* " in
    *" --workload "*) exec "$bin" "$@" --expected "$expected" ;;
esac
while [ $# -gt 0 ]; do
    case $1 in
        --aa) mode=aa ;;
        --bless) mode=bless ;;
        --seed) seed=$2; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

results=$CARGO_TARGET_DIR/e0
mkdir -p "$results"

# run_all FILE: every workload, end-to-end run then traced run.
run_all() {
    local w t
    rm -f "$1"
    for w in $workloads; do
        for t in 0 1; do
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
                --expected "$expected" --out "$1"
        done
    done
}

case $mode in
    all)
        run_all "$results/results-$seed.jsonl"
        echo "e0: results in $results/results-$seed.jsonl"
        ;;
    aa)
        run_all "$results/aa-a.jsonl"
        run_all "$results/aa-b.jsonl"
        python3 "$here/aa_check.py" "$results/aa-a.jsonl" "$results/aa-b.jsonl"
        ;;
    bless)
        for w in $workloads; do
            "$bin" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
                --expected "$expected" --bless
        done
        ;;
esac
