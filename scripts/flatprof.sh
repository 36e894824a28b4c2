#!/usr/bin/env bash
# A flat sampling profile of an unmodified binary, with nothing but the
# host's cc and nm (this host has no perf, gdb or valgrind):
#
#   scripts/flatprof.sh [-n ROWS] [-a REGEX] BINARY [ARGS...]
#   scripts/flatprof.sh .bench_build/release/e0_pipeline --workload p1_legacy_load \
#       --seed 1 --seconds 40 --trace 0 --expected scripts/e0/expected.json
#
# Builds a SIGPROF/ITIMER_PROF sampler into a temp dir, LD_PRELOADs it,
# and bins the sampled program counters by the binary's own symbols:
# self time per symbol, inlined callees included in their caller. The
# binary's output goes to stderr, the table to stdout. CPU time only,
# one sample per kernel tick at most (250 a second here); build with
# symbols (cargo's release profile keeps them).
#
# -a REGEX then disassembles (objdump -d) every symbol whose demangled
# name matches the awk regex and prints each sampled instruction with
# its count and share of all samples, in address order. A stall shows
# as one hot instruction: the sample lands on the instruction that
# waits, usually a load right after narrower stores to the same bytes.
set -euo pipefail
rows=25 annotate=
while getopts n:a: o; do
    case $o in n) rows=$OPTARG ;; a) annotate=$OPTARG ;; *) exit 2 ;; esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || { sed -n '2,20p' "$0" >&2; exit 2; }
bin=$(command -v "$1") || { echo "flatprof: no such binary: $1" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat >"$tmp/flatprof.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#define MAX (1 << 22)
static unsigned long pcs[MAX], base, end;
static volatile unsigned long n;
static void on_prof(int sig, siginfo_t *si, void *ctx) {
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = uc->uc_mcontext.pc;
#endif
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < MAX) pcs[i] = pc;
    (void)sig, (void)si;
}
/* The first object is the program itself: its load base and extent. */
static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
    base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD) {
            unsigned long e = base + info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
            if (e > end) end = e;
        }
    (void)size, (void)data;
    return 1;
}
__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval it = {{0, 1000}, {0, 1000}};
    dl_iterate_phdr(main_object, NULL);
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &it, NULL);
}
/* One line per sample: its offset in the binary, as nm prints addresses. */
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = fopen(getenv("FLATPROF_OUT"), "w");
    if (!f) return;
    for (unsigned long i = 0; i < n && i < MAX; i++)
        fprintf(f, "%016lx b\n", pcs[i] >= base && pcs[i] < end ? pcs[i] - base : ~0ul);
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$tmp/flatprof.so" "$tmp/flatprof.c"
FLATPROF_OUT=$tmp/samples LD_PRELOAD=$tmp/flatprof.so "$bin" "${@:2}" >&2
[ -s "$tmp/samples" ] || { echo "flatprof: no samples (did the run use any CPU?)" >&2; exit 1; }

# Symbols ("a") and samples ("b") in one address-sorted stream: every
# sample belongs to the last symbol before it.
{
    nm -C --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/ { a = $1; $1 = $2 = ""; print a, "a", $0 }'
    echo "ffffffffffffffff a [outside the binary: libc, vdso, preloaded code]"
    cat "$tmp/samples"
} | LC_ALL=C sort -k1,1 -k2,2 | awk -v top="sort -rn | head -n $rows" '
    $2 == "a" { $1 = $2 = ""; sub(/^ +/, ""); sym = $0; next }
    { hits[sym]++; total++ }
    END {
        printf "%d samples\n", total
        fflush()
        for (s in hits) printf "%6.1f %%  %7d  %s\n", 100 * hits[s] / total, hits[s], s | top
    }'

[ -n "$annotate" ] || exit 0

# The sampled symbols that match, each with its extent: up to the next
# symbol at a higher address.
cut -d' ' -f1 "$tmp/samples" | LC_ALL=C sort | uniq -c >"$tmp/per_pc"
{
    nm -C --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/ { a = $1; $1 = $2 = ""; sub(/^ +/, ""); print a, "a", $0 }'
    awk '{ print $2, "b" }' "$tmp/per_pc"
} | LC_ALL=C sort -k1,1 -k2,2 | awk -v re="$annotate" '
    $2 == "b" { hit = hit || match_; next }
    $1 != at { if (hit) print at, $1, sym; at = $1; hit = 0 }
    { $1 = $2 = ""; sub(/^ +/, ""); sym = $0; match_ = sym ~ re }' >"$tmp/ranges"
[ -s "$tmp/ranges" ] || { echo "flatprof: no sampled symbol matches $annotate" >&2; exit 1; }
total=$(wc -l <"$tmp/samples")
while read -r start stop name; do
    objdump -d --no-show-raw-insn -C --start-address="0x$start" --stop-address="0x$stop" "$bin" |
        awk -v total="$total" -v name="$name" '
            NR == FNR { hits[$2] = $1; next }
            match($0, /^ *[0-9a-f]+:/) {
                a = substr($0, RSTART, RLENGTH - 1)
                gsub(/ /, "", a)
                a = sprintf("%16s", a)
                gsub(/ /, "0", a)
                if (!(a in hits)) next
                insn = substr($0, RLENGTH + 1)
                sub(/^[ \t]+/, "", insn)
                n++; sum += hits[a]
                line[n] = sprintf("%6.2f %%  %7d  %s  %s", 100 * hits[a] / total, hits[a], a, insn)
            }
            END {
                if (!n) exit
                printf "\n%s: %d samples, %.1f %%\n", name, sum, 100 * sum / total
                for (i = 1; i <= n; i++) print line[i]
            }' "$tmp/per_pc" -
done <"$tmp/ranges"
