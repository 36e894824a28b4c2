#!/usr/bin/env bash
# The gate steps of .github/workflows/ci.yml, offline, for a checkout
# with no Actions runner: build, tests, their env leg and their
# release leg, fmt, clippy, the E0 correctness gate (the benchmark built
# from scratch and run in both trace modes), the chaos campaign
# and the digest-asserting experiment bins. Fresh BENCH_*.json land in
# a temporary directory; the committed ones are not touched.
#
# The last step holds `e5_legacy_latency | md5sum`, the event-order
# pin, and the md5s of e2's and e8's output, the stamp pins, to their
# committed values.
#
# Exits non-zero at the first failing step.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_NET_OFFLINE=true
for knob in $(compgen -e | grep '^OSNT_' || true); do unset "$knob"; done

step() { printf '\n== %s\n' "$*"; }
bin() { cargo run --release -q -p osnt-bench --bin "$@"; }

step "build"
cargo build --workspace --all-targets
step "test"
cargo test --workspace -q
step "fault models under a second RNG seed"
OSNT_FAULT_SEED=2 cargo test -q -p osnt-netsim -p oflops-turbo
step "bottom crates, switch and controller in release (debug_assert! and overflow checks are off where the benchmark runs)"
cargo test --release -q -p osnt-time -p osnt-packet -p osnt-netsim -p osnt-switch -p oflops-turbo
step "rustfmt"
cargo fmt --all --check
step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

step "E0 pipeline benchmark, built fresh, both trace modes (correctness gate, not a timing gate)"
# The way the benchmark pipeline runs it: its own manifest, an empty
# target directory, --trace 0 (the headline run) and --trace 1.
e0() {
    CARGO_TARGET_DIR=$out/e0_build \
        scripts/e0/run.sh --workload "$1" --seed 1 --seconds 2 --trace "$2" >/dev/null
}
for w in p1_legacy_load p2_consistency p2_churn burst_linerate; do
    e0 "$w" 0
    e0 "$w" 1
    echo "e0 $w: digest, ops and events match scripts/e0/expected.json, traced and not"
done

step "E14 chaos campaign (zero violations)"
bin e14_chaos -- --seeds 4 --json "$out/BENCH_chaos.json"

step "E12 capture (committed digest)"
bin e12_capture -- --frames 200000 --json "$out/BENCH_capture.json"
step "E13 burst sweep (one committed digest at every burst size)"
bin e13_burst -- --frames 100000 --json "$out/BENCH_burst.json"
step "E15 flow table (verdict digests)"
bin e15_flowtable -- --json "$out/BENCH_e15.json"

# md5_pin BIN MD5: the md5 of BIN's whole output is MD5.
md5_pin() {
    local got
    got=$(bin "$1" | md5sum | cut -d' ' -f1)
    echo "$1: $got"
    [ "$got" = "$2" ] || { echo "$1 output differs from the pin $2" >&2; exit 1; }
}
step "output md5 pins: e5 (event order), e2 and e8 (drifting, jittered clock stamps)"
md5_pin e5_legacy_latency e0c6830d40f3e38dcaf66b49d8c78c51
md5_pin e2_timestamp 11bd5fe50cbb9f9c8b1c50aa79090f41
md5_pin e8_noise a15a2d381395b3f279aba5a39cd7ae6f

printf '\nci_local: all gate steps passed\n'
