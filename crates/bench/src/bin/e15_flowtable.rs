//! E15 — tuple-space flow classification: wildcard tables from 100 to
//! a million entries, swept over a lookup/update mix.
//!
//! Each table size is populated with a deterministic rule corpus spread
//! over a handful of wildcard shapes (exact /32 + L4 port, exact /32,
//! /24 prefix, /16 prefix + L4 port, port-constrained /32) — a few
//! *tuples* in the tuple-space sense, which is exactly the regime real
//! OpenFlow rule sets live in — and loaded into a [`FlowTable`].
//!
//! Before anything is timed, the table answers a 512-key verdict sweep
//! through its index, with the rule interpreter (`lookup_idx`) as ground
//! truth on a subsample; the verdicts are CRC'd into a digest that must
//! equal the committed artifact's for that size ([`COMMITTED`]) or the
//! bench panics. Then, per size:
//!
//! * **lookup** leg — pure `lookup_key_idx` over the key set;
//! * **update** leg — sustained flow_mod churn (add one rule, strict-
//!   delete the oldest, one lookup per iteration, as any real datapath
//!   interleaving would).
//!
//! The rates (`ops_per_wall_s`) are readings, and so is the flatness
//! ratio printed last — the flow_mod rate at 100 000 entries over the
//! rate at 100 (flow_mods that are O(1) on paper should stay near-flat
//! on the machine too). Nothing is asserted on them: the ratio moves
//! between 0.39 and 0.58 across runs of one commit on one host. The
//! curve is measured, normalised, by `e0_pipeline`'s
//! `switch.flowtable.ns_per_flowmod_1e{3,5}` probes.
//!
//! `--max-size N` caps the sweep; `--json PATH` writes the sweep as
//! JSON (committed as `BENCH_e15.json`).

use osnt_bench::Table;
use osnt_openflow::match_field::wildcards;
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_packet::hash::crc32_update;
use osnt_packet::{FlowKey, MacAddr, Packet, PacketBuilder};
use osnt_switch::{FlowEntry, FlowTable};
use osnt_time::SimTime;
use std::hint::black_box;
use std::net::Ipv4Addr;

const KEY_COUNT: usize = 512;
/// Churn headroom: the update leg holds one extra rule in flight.
const CAPACITY_SLACK: usize = 1_024;
/// Table sizes of the sweep with the verdict digest the committed
/// `BENCH_e15.json` records for each.
const COMMITTED: [(usize, u32); 5] = [
    (100, 0xe22a_5682),
    (1_000, 0xfecb_354f),
    (10_000, 0xfe47_e1d9),
    (100_000, 0x1fb1_9464),
    (1_000_000, 0x7a3e_ef1f),
];

fn out(port: u16) -> ActionList {
    ActionList::one(Action::Output { port, max_len: 0 })
}

/// Rule `i` of the corpus: the shape cycles with `i % 8`, the fields
/// are index-derived so every rule is distinct (the generator is used
/// far past the initial table size by the churn leg).
fn rule(i: usize) -> (OfMatch, u16) {
    let c = i / 8;
    match i % 8 {
        // Exact /32 destination + exact L4 port: the bulk tuple.
        0..=2 => {
            let mut m = OfMatch::ipv4_dst(Ipv4Addr::new(
                10,
                ((i >> 16) & 255) as u8,
                ((i >> 8) & 255) as u8,
                (i & 255) as u8,
            ));
            m.nw_proto = 17;
            m.tp_dst = 9001;
            m.wildcards &= !(wildcards::NW_PROTO | wildcards::TP_DST);
            (m, 5)
        }
        // Exact /32 destination only.
        3..=4 => (
            OfMatch::ipv4_dst(Ipv4Addr::new(
                10,
                ((i >> 16) & 255) as u8,
                ((i >> 8) & 255) as u8,
                (i & 255) as u8,
            )),
            5,
        ),
        // /24 prefix.
        5 => {
            let mut m = OfMatch::ipv4_dst(Ipv4Addr::new(
                (64 + ((c >> 16) & 63)) as u8,
                ((c >> 8) & 255) as u8,
                (c & 255) as u8,
                0,
            ));
            m.set_nw_dst_prefix(24);
            (m, 1)
        }
        // /16 prefix + exact L4 port (the port keeps rules distinct).
        6 => {
            let mut m = OfMatch::ipv4_dst(Ipv4Addr::new(172, ((c >> 14) & 255) as u8, 0, 0));
            m.set_nw_dst_prefix(16);
            m.nw_proto = 17;
            m.tp_dst = 1024 + (c & 0x3fff) as u16;
            m.wildcards &= !(wildcards::NW_PROTO | wildcards::TP_DST);
            (m, 1)
        }
        // Port-constrained exact /32.
        _ => {
            let mut m = OfMatch::ipv4_dst(Ipv4Addr::new(
                193,
                ((c >> 16) & 255) as u8,
                ((c >> 8) & 255) as u8,
                (c & 255) as u8,
            ));
            m.in_port = 1 + (c & 1) as u16;
            m.wildcards &= !wildcards::IN_PORT;
            (m, 9)
        }
    }
}

fn build_table(n: usize) -> FlowTable {
    let mut t = FlowTable::new(n + CAPACITY_SLACK);
    for i in 0..n {
        let (m, prio) = rule(i);
        t.add(FlowEntry::new(m, prio, out(2), SimTime::ZERO))
            .expect("prefill fits the capacity");
    }
    assert_eq!(t.len(), n, "rule generator produced duplicates");
    t
}

struct LookupKey {
    frame: Packet,
    key: FlowKey,
    in_port: u16,
}

/// 512 probe keys: exact-rule hits, /24 hits, /16 hits, and misses, on
/// alternating ingress ports.
fn probe_keys(n: usize) -> Vec<LookupKey> {
    (0..KEY_COUNT)
        .map(|k| {
            let i = ((k as u64).wrapping_mul(2_654_435_761) % n as u64) as usize;
            let c = i / 8;
            let (dst, dport) = match k % 4 {
                0 => (
                    Ipv4Addr::new(
                        10,
                        ((i >> 16) & 255) as u8,
                        ((i >> 8) & 255) as u8,
                        (i & 255) as u8,
                    ),
                    9001,
                ),
                1 => (
                    Ipv4Addr::new(
                        (64 + ((c >> 16) & 63)) as u8,
                        ((c >> 8) & 255) as u8,
                        (c & 255) as u8,
                        7,
                    ),
                    9001,
                ),
                2 => (
                    Ipv4Addr::new(172, ((c >> 14) & 255) as u8, 9, 9),
                    1024 + (c & 0x3fff) as u16,
                ),
                _ => (Ipv4Addr::new(8, 8, 8, 8), 53),
            };
            let frame = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 99, 0, 1), dst)
                .udp(5001, dport)
                .build();
            let key = FlowKey::extract(&frame.parse());
            LookupKey {
                frame,
                key,
                in_port: 1 + (k as u16 & 1),
            }
        })
        .collect()
}

/// Verdict sweep: every key's index verdict is CRC'd, so the JSON
/// artifact records *what* was answered, and checked against the
/// interpreter on a subsample.
fn verdict_digest(t: &mut FlowTable, keys: &[LookupKey]) -> u32 {
    let mut digest = 0u32;
    let mut hits = 0u64;
    for (k, lk) in keys.iter().enumerate() {
        let verdict = t.lookup_key_idx(lk.in_port, &lk.key);
        if k % 8 == 0 {
            assert_eq!(
                t.lookup_idx(lk.in_port, &lk.frame.parse()),
                verdict,
                "key {k}: index verdict diverged from the interpreter"
            );
        }
        let v = verdict.map_or(u64::MAX, |i| i as u64);
        digest = crc32_update(digest, &v.to_le_bytes());
        hits += u64::from(verdict.is_some());
    }
    assert!(hits > 0, "probe keys never hit the table");
    digest
}

fn bench_lookups(t: &mut FlowTable, keys: &[LookupKey], ops: u64) -> f64 {
    let t0 = std::time::Instant::now();
    let mut acc = 0u64;
    for j in 0..ops {
        let k = &keys[j as usize % keys.len()];
        acc = acc.wrapping_add(
            t.lookup_key_idx(k.in_port, &k.key)
                .map_or(0, |i| i as u64 + 1),
        );
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Sustained churn: add rule `n+j`, strict-delete rule `j` (adds stay
/// exactly `n` ahead of deletes, so the victim always exists), then one
/// lookup, as interleaved datapath traffic would.
/// Returns (wall seconds, flow_mods applied).
fn bench_updates(t: &mut FlowTable, n: usize, iters: u64, keys: &[LookupKey]) -> (f64, u64) {
    let t0 = std::time::Instant::now();
    let mut acc = 0u64;
    for j in 0..iters {
        let (m, prio) = rule(n + j as usize);
        t.add(FlowEntry::new(m, prio, out(3), SimTime::ZERO))
            .expect("churn stays within the capacity slack");
        let (dm, dprio) = rule(j as usize);
        let removed = t.delete(&dm, dprio, true);
        assert_eq!(removed.len(), 1, "churn victim {j} was missing");
        let k = &keys[j as usize % keys.len()];
        acc = acc.wrapping_add(
            t.lookup_key_idx(k.in_port, &k.key)
                .map_or(0, |i| i as u64 + 1),
        );
    }
    black_box(acc);
    assert_eq!(t.len(), n, "churn must leave the table at its set size");
    (t0.elapsed().as_secs_f64(), iters * 2)
}

fn main() {
    let (max_size, artifact) =
        osnt_bench::flags_or_exit("e15_flowtable [--max-size N] [--json PATH]", |args| {
            args.get("max-size", 1_000_000usize)
        });
    println!(
        "E15: tuple-space classification, table sweep to {max_size} entries,\n\
         5 wildcard shapes, {KEY_COUNT} probe keys, lookup + flow_mod churn legs\n"
    );

    let mut table = Table::new(["entries", "tuples", "lookup/s", "mods/s", "digest"]);
    let mut json_rows = Vec::new();
    // Flow_mod rate at 100 and at 100 000 entries.
    let mut flat: (Option<f64>, Option<f64>) = (None, None);
    for (n, committed) in COMMITTED.into_iter().filter(|&(n, _)| n <= max_size) {
        let mut t = build_table(n);
        let tuples = t.lookup_cost_units();
        let keys = probe_keys(n);
        let digest = verdict_digest(&mut t, &keys);
        assert_eq!(
            digest, committed,
            "{n} entries: verdict digest diverged from the committed BENCH_e15.json"
        );

        let lookup_ops = 200_000;
        let lookup_s = bench_lookups(&mut t, &keys, lookup_ops);
        let (update_s, mods) = bench_updates(&mut t, n, 100_000, &keys);
        let lookup_rate = lookup_ops as f64 / lookup_s;
        let update_rate = mods as f64 / update_s;
        if n == 100 {
            flat.0 = Some(update_rate);
        }
        if n == 100_000 {
            flat.1 = Some(update_rate);
        }

        table.row([
            n.to_string(),
            tuples.to_string(),
            format!("{lookup_rate:.0}"),
            format!("{update_rate:.0}"),
            format!("{digest:08x}"),
        ]);
        json_rows.push(format!(
            "{{\"size\":{n},\"phase\":\"lookup\",\"ops\":{lookup_ops},\
             \"tuple_wall_s\":{lookup_s:.6},\"ops_per_wall_s\":{lookup_rate:.0},\
             \"digest\":\"{digest:08x}\"}}"
        ));
        json_rows.push(format!(
            "{{\"size\":{n},\"phase\":\"update\",\"ops\":{mods},\
             \"tuple_wall_s\":{update_s:.6},\"ops_per_wall_s\":{update_rate:.0},\
             \"digest\":\"{digest:08x}\"}}"
        ));
    }
    table.print();

    let flatness = flat.0.zip(flat.1).map(|(small, large)| large / small);
    match flatness {
        Some(ratio) => println!(
            "\nFlatness (flow_mod rate at 100k entries over the rate at 100): {ratio:.2} \
             (a reading, not a gate)."
        ),
        None => println!("\nFlatness: needs the 100000-entry point (--max-size >= 100000)."),
    }

    artifact.write(
        "e15_flowtable",
        1,
        &format!(
            "\"max_size\":{max_size},\"key_count\":{KEY_COUNT},\
             \"flowmod_flatness\":{},\"results\":[{}]",
            flatness.map_or("null".to_string(), |r| format!("{r:.4}")),
            json_rows.join(",")
        ),
    );
}
