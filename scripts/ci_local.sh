#!/usr/bin/env bash
# The gate steps of .github/workflows/ci.yml, offline, for a checkout
# with no Actions runner: build, tests and their release leg, fmt,
# clippy, the E0 correctness gate (the benchmark built from scratch and
# run in both trace modes) and the two digest-asserting experiment bins.
# Fresh BENCH_*.json land in a temporary directory; the committed ones
# are not touched.
#
# Exits non-zero at the first failing step.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_NET_OFFLINE=true

step() { printf '\n== %s\n' "$*"; }
bin() { cargo run --release -q -p osnt-bench --bin "$@"; }

step "build"
cargo build --workspace --all-targets
step "test"
cargo test --workspace -q
step "bottom crates, codec, switch, monitor and controller in release (debug_assert! and overflow checks are off where the benchmark runs)"
cargo test --release -q -p osnt-time -p osnt-packet -p osnt-netsim -p osnt-openflow -p osnt-switch -p osnt-mon -p oflops-turbo
step "rustfmt"
cargo fmt --all --check
step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

step "E0 pipeline benchmark, built fresh, both trace modes (correctness gate, not a timing gate)"
# The way the benchmark pipeline runs it: its own manifest, an empty
# target directory, --trace 0 (the headline run) and --trace 1. A traced
# run prints its kernel self time, the margin of the check that handler
# spans do not exceed the run; a failing run prints why it failed.
e0() {
    local rc=0
    CARGO_TARGET_DIR=$out/e0_build \
        scripts/e0/run.sh --workload "$1" --seed 1 --seconds 2 --trace "$2" >"$out/e0.log" || rc=$?
    if [ "$2" = 1 ]; then
        grep -m1 'netsim.kernel.self_ns_per_op' "$out/e0.log" | sed "s/^ */e0 $1 --trace 1: /" || true
    fi
    if [ $rc -ne 0 ]; then
        grep 'FAILED' "$out/e0.log" >&2 || true
        exit $rc
    fi
}
for w in p1_legacy_load p2_consistency p2_churn burst_linerate; do
    e0 "$w" 0
    e0 "$w" 1
    echo "e0 $w: digest, ops and events match scripts/e0/expected.json, traced and not"
done

step "E13 burst sweep (one committed digest at every burst size)"
bin e13_burst -- --frames 100000 --json "$out/BENCH_burst.json"
step "E15 flow table (verdict digests)"
bin e15_flowtable -- --json "$out/BENCH_e15.json"

printf '\nci_local: all gate steps passed\n'
