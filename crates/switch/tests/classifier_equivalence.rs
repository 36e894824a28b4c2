//! Index equivalence: the flow table's tuple-space index must be
//! observationally identical to its two oracles — the rule interpreter
//! (`FlowTable::lookup_idx`) for verdicts, and a naive scan-everything
//! model (below) for what flow_mods report and leave behind — across
//! arbitrary interleavings of flow_mods, expiry, and lookups.
//!
//! The table and the model run the *same* operation sequence. What every
//! op reports (added or full, entries removed, entries modified) is
//! compared op by op, and the entry vectors must stay byte-identical, so
//! lookup verdicts can be compared as raw indices — including the
//! priority/specificity/insertion-order tie-break, which the model
//! resolves from installation numbers it keeps itself. What `expire`
//! would remove is compared after every op too, at instants where idle
//! and hard timeouts of every length fall due: the table skips its scan
//! when it counts no entry with a timeout, and that count must follow
//! every install, in-place replacement and removal.
//!
//! Generated matches carry **junk under their wildcards** (host bits
//! below a prefix, values in wildcarded fields): two such matches lower
//! to the same masked words, so they classify alike, yet they are
//! unequal `OfMatch` values and therefore distinct entries to every
//! strict flow_mod. An index that told rules apart by lowered form alone
//! would merge them.

use osnt_openflow::match_field::wildcards;
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_packet::{FlowKey, MacAddr, Packet, PacketBuilder};
use osnt_switch::flowtable::{covers, FlowEntry, FlowTable, RemovalReason};
use osnt_time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const IP_POOL: [Ipv4Addr; 4] = [
    Ipv4Addr::new(10, 0, 0, 1),
    Ipv4Addr::new(10, 0, 0, 2),
    Ipv4Addr::new(10, 1, 0, 1),
    Ipv4Addr::new(192, 168, 1, 1),
];
const PREFIX_POOL: [u8; 4] = [8, 16, 24, 32];
const PORT_POOL: [u16; 4] = [53, 80, 443, 9001];

/// A generatable wildcard match: a few overlapping field shapes drawn
/// from small pools, so random sets collide on masks, values, and
/// ranks (equal-priority ties are frequent by construction).
#[derive(Debug, Clone, Copy)]
struct MatchSpec {
    ipv4: bool,
    nw_dst: Option<(u8, u8)>,
    tp_dst: Option<u8>,
    in_port: Option<u8>,
    priority: u16,
    idle_timeout: u16,
    hard_timeout: u16,
    /// Written wherever the match does not look: 0 leaves it clean.
    junk: u8,
}

impl MatchSpec {
    fn build(&self) -> OfMatch {
        let mut m = OfMatch::any();
        // Junk first, everywhere; the fields the match does look at are
        // overwritten below.
        m.nw_dst = Ipv4Addr::new(0, 0, 0, self.junk);
        m.tp_dst = self.junk as u16;
        m.in_port = self.junk as u16;
        m.nw_tos = self.junk;
        if self.ipv4 {
            m.dl_type = 0x0800;
            m.wildcards &= !wildcards::DL_TYPE;
        }
        if let Some((ip, plen)) = self.nw_dst {
            let plen = PREFIX_POOL[plen as usize];
            // Below a /8../24 the low byte is host bits.
            let host = if plen < 32 { self.junk } else { 0 };
            m.nw_dst = Ipv4Addr::from(u32::from(IP_POOL[ip as usize]) ^ host as u32);
            m.set_nw_dst_prefix(plen);
        }
        if let Some(p) = self.tp_dst {
            m.tp_dst = PORT_POOL[p as usize];
            m.wildcards &= !wildcards::TP_DST;
        }
        if let Some(p) = self.in_port {
            m.in_port = p as u16 + 1;
            m.wildcards &= !wildcards::IN_PORT;
        }
        m
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(MatchSpec),
    DeleteStrict(MatchSpec),
    Delete(MatchSpec),
    ModifyStrict(MatchSpec),
    Expire,
}

fn match_spec() -> impl Strategy<Value = MatchSpec> {
    (
        0u8..2,
        0u8..17,
        0u8..5,
        0u8..4,
        0u8..4,
        0u8..5,
        0u8..5,
        0u8..3,
    )
        .prop_map(|(ipv4, nw, tp, inp, prio, ito, hto, junk)| MatchSpec {
            ipv4: ipv4 == 1,
            nw_dst: (nw < 16).then_some((nw & 3, nw >> 2)),
            tp_dst: (tp < 4).then_some(tp),
            in_port: (inp < 3).then_some(inp),
            priority: [1u16, 5, 5, 9][prio as usize],
            idle_timeout: [0u16, 0, 0, 1, 2][ito as usize],
            hard_timeout: [0u16, 0, 0, 1, 2][hto as usize],
            junk,
        })
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, match_spec()).prop_map(|(k, s)| match k {
        0..=3 => Op::Add(s),
        4 => Op::DeleteStrict(s),
        5 => Op::Delete(s),
        6 => Op::ModifyStrict(s),
        _ => Op::Expire,
    })
}

fn udp_frame(dst_ip: Ipv4Addr, dst_port: u16) -> Packet {
    PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 9, 9, 9), dst_ip)
        .udp(1000, dst_port)
        .build()
}

fn out(port: u16) -> ActionList {
    ActionList::one(Action::Output { port, max_len: 0 })
}

/// The naive model: entries in a plain vector beside their installation
/// numbers, every op a scan. Removal is `swap_remove` in descending
/// position order, the table's documented storage discipline — `iter()`
/// order reaches the wire in flow-stats replies, so it is compared
/// position by position.
struct Naive {
    rows: Vec<(u64, FlowEntry)>,
    installs: u64,
    capacity: usize,
}

impl Naive {
    fn new(capacity: usize) -> Self {
        Naive {
            rows: Vec::new(),
            installs: 0,
            capacity,
        }
    }

    fn position(&self, m: &OfMatch, priority: u16) -> Option<usize> {
        self.rows
            .iter()
            .position(|(_, e)| e.of_match == *m && e.priority == priority)
    }

    /// Remove the rows at ascending positions `hits`, reported in that
    /// order.
    fn remove_all(&mut self, hits: Vec<usize>) -> Vec<FlowEntry> {
        let mut out: Vec<FlowEntry> = hits
            .iter()
            .rev()
            .map(|&i| self.rows.swap_remove(i).1)
            .collect();
        out.reverse();
        out
    }

    /// The rows a timeout removes at `now`, ascending, each with its
    /// reason: an elapsed hard timeout first, then an idle one.
    fn expired(&self, now: SimTime) -> Vec<(usize, RemovalReason)> {
        let due = |from: SimTime, secs: u16| {
            secs > 0 && now >= from + SimDuration::from_secs(secs.into())
        };
        (0..self.rows.len())
            .filter_map(|i| {
                let e = &self.rows[i].1;
                if due(e.installed_at, e.hard_timeout) {
                    Some((i, RemovalReason::HardTimeout))
                } else if due(e.last_match, e.idle_timeout) {
                    Some((i, RemovalReason::IdleTimeout))
                } else {
                    None
                }
            })
            .collect()
    }

    fn account(&mut self, i: usize, now: SimTime, frame_bytes: usize) {
        let e = &mut self.rows[i].1;
        e.packets += 1;
        e.bytes += frame_bytes as u64;
        e.last_match = now;
    }

    /// Best match by scanning: highest `(priority, specificity)`, then
    /// earliest install.
    fn lookup(&self, in_port: u16, frame: &Packet) -> Option<usize> {
        let parsed = frame.parse();
        (0..self.rows.len())
            .filter(|&i| self.rows[i].1.of_match.matches(in_port, &parsed))
            .max_by_key(|&i| {
                let (seq, e) = &self.rows[i];
                (
                    e.priority,
                    e.of_match.specificity(),
                    std::cmp::Reverse(*seq),
                )
            })
    }

    fn apply(&mut self, i: usize, op: &Op) -> (usize, Vec<FlowEntry>) {
        let now = SimTime::from_ms(i as u64);
        match op {
            Op::Add(s) => {
                let e = new_entry(s, i, now);
                match self.position(&e.of_match, e.priority) {
                    Some(at) => self.rows[at].1 = e,
                    None if self.rows.len() >= self.capacity => return (0, Vec::new()),
                    None => {
                        self.rows.push((self.installs, e));
                        self.installs += 1;
                    }
                }
                (1, Vec::new())
            }
            Op::DeleteStrict(s) => {
                let hit = self.position(&s.build(), s.priority);
                (0, self.remove_all(hit.into_iter().collect()))
            }
            Op::Delete(s) => {
                let filter = s.build();
                let hits = (0..self.rows.len())
                    .filter(|&i| covers(&filter, &self.rows[i].1.of_match))
                    .collect();
                (0, self.remove_all(hits))
            }
            Op::ModifyStrict(s) => match self.position(&s.build(), s.priority) {
                Some(at) => {
                    self.rows[at].1.actions = modify_actions(i);
                    (1, Vec::new())
                }
                None => (0, Vec::new()),
            },
            Op::Expire => {
                let hits = self.expired(now).into_iter().map(|(i, _)| i).collect();
                (0, self.remove_all(hits))
            }
        }
    }
}

fn new_entry(s: &MatchSpec, i: usize, now: SimTime) -> FlowEntry {
    let mut e = FlowEntry::new(s.build(), s.priority, out(i as u16), now);
    e.idle_timeout = s.idle_timeout;
    e.hard_timeout = s.hard_timeout;
    e
}

fn modify_actions(i: usize) -> ActionList {
    out((i as u16).wrapping_add(10_000))
}

/// Apply one op to a table and say what it reported: a count (entries
/// added or modified) and the entries it removed, in the order given.
fn apply(t: &mut FlowTable, i: usize, op: &Op) -> (usize, Vec<FlowEntry>) {
    let now = SimTime::from_ms(i as u64);
    match op {
        // TableFull rejections are part of the behaviour.
        Op::Add(s) => (t.add(new_entry(s, i, now)).is_ok() as usize, Vec::new()),
        Op::DeleteStrict(s) => (0, t.delete(&s.build(), s.priority, true)),
        Op::Delete(s) => (0, t.delete(&s.build(), s.priority, false)),
        Op::ModifyStrict(s) => (
            t.modify(&s.build(), s.priority, true, &modify_actions(i)),
            Vec::new(),
        ),
        Op::Expire => (0, t.expire(now).into_iter().map(|(e, _)| e).collect()),
    }
}

/// Table and model hold the same entries — every field, counters and
/// timestamps included — in the same order.
fn agree(naive: &Naive, table: &FlowTable) -> bool {
    naive.rows.iter().map(|(_, e)| e).eq(table.iter())
}

/// `expire` on a copy of the table reports what the model's scan finds,
/// reasons included, at `now` and at instants past every 1 s and 2 s
/// timeout armed or refreshed by `now`.
fn expiry_agrees(naive: &Naive, table: &FlowTable, now: SimTime) -> bool {
    [0, 1_500, 2_000].into_iter().all(|ms| {
        let at = now + SimDuration::from_ms(ms);
        let want: Vec<(FlowEntry, RemovalReason)> = naive
            .expired(at)
            .into_iter()
            .map(|(i, reason)| (naive.rows[i].1.clone(), reason))
            .collect();
        table.clone().expire(at) == want
    })
}

proptest! {
    /// Random flow_mod histories + random traffic: the index must return
    /// the model's and the interpreter's verdict on every lookup path
    /// (scalar key, 8-lane block) and leave the model's table — under
    /// overlapping masks, equal-priority ties, and capacity-constrained
    /// (table-full) histories.
    #[test]
    fn tuple_space_equals_the_oracles(
        capacity in 4usize..24,
        ops in proptest::collection::vec(op(), 1..80),
        keys in proptest::collection::vec((0u8..4, 0u8..4), 1..24),
    ) {
        let mut naive = Naive::new(capacity);
        let mut table = FlowTable::new(capacity);
        for (i, o) in ops.iter().enumerate() {
            prop_assert_eq!(naive.apply(i, o), apply(&mut table, i, o));
            prop_assert!(expiry_agrees(&naive, &table, SimTime::from_ms(i as u64)), "op {}", i);
        }
        prop_assert!(agree(&naive, &table));

        let frames: Vec<Packet> = keys
            .iter()
            .map(|&(ip, port)| udp_frame(IP_POOL[ip as usize], PORT_POOL[port as usize]))
            .collect();
        for in_port in [1u16, 2, 3] {
            // Verdicts: model, interpreter, index.
            for frame in &frames {
                let parsed = frame.parse();
                let key = FlowKey::extract(&parsed);
                let truth = naive.lookup(in_port, frame);
                prop_assert_eq!(table.lookup_idx(in_port, &parsed), truth);
                prop_assert_eq!(table.lookup_key_idx(in_port, &key), truth);
                // Account on both so counters and idle deadlines must
                // track together.
                if let Some(i) = truth {
                    let now = SimTime::from_secs(999);
                    naive.account(i, now, frame.frame_len());
                    table.account(i, now, frame.frame_len());
                }
            }
        }
        prop_assert!(agree(&naive, &table));
        // Hard and unrefreshed idle timeouts are long due; a refreshed
        // idle one falls due 1 or 2 s after the matches.
        for ms in [998_000, 999_000, 999_500] {
            prop_assert!(expiry_agrees(&naive, &table, SimTime::from_ms(ms)));
        }
    }
}

/// Twins — matches that lower alike and differ as values — at equal
/// and at different priorities, walked through every strict and
/// non-strict flow_mod by hand: each twin is its own entry in the table
/// as in the model, and a lookup that hits both picks the one the
/// interpreter picks.
#[test]
fn lowered_twins_stay_distinct_entries() {
    let shapes = [
        // Host bits under a /24; junk in three wildcarded fields.
        MatchSpec {
            ipv4: true,
            nw_dst: Some((2, 2)),
            tp_dst: None,
            in_port: None,
            priority: 5,
            idle_timeout: 0,
            hard_timeout: 0,
            junk: 0,
        },
        // Nothing but junk: two `any`s.
        MatchSpec {
            ipv4: false,
            nw_dst: None,
            tp_dst: None,
            in_port: None,
            priority: 5,
            idle_timeout: 0,
            hard_timeout: 0,
            junk: 0,
        },
    ];
    let frame = udp_frame(IP_POOL[2], PORT_POOL[0]);
    let parsed = frame.parse();
    let key = FlowKey::extract(&parsed);
    for clean in shapes {
        for twin_priority in [5u16, 9] {
            let twin = MatchSpec {
                junk: 2,
                priority: twin_priority,
                ..clean
            };
            assert_ne!(clean.build(), twin.build());
            let history = [
                Op::Add(clean),
                Op::Add(twin),
                Op::Add(twin), // replaces the twin, not the clean one
                Op::ModifyStrict(twin),
                Op::DeleteStrict(clean),
                Op::Add(clean),    // back, now the later install
                Op::Delete(clean), // covers both
            ];
            let lens = [1, 2, 2, 2, 1, 2, 0];
            let mut naive = Naive::new(8);
            let mut tuple = FlowTable::new(8);
            for (i, (o, len)) in history.iter().zip(lens).enumerate() {
                let reported = apply(&mut tuple, i, o);
                assert_eq!(naive.apply(i, o), reported, "op {i}");
                assert_eq!(tuple.len(), len, "op {i}");
                assert!(agree(&naive, &tuple), "op {i}");
                let truth = naive.lookup(1, &frame);
                assert_eq!(truth.is_some(), len > 0);
                assert_eq!(tuple.lookup_idx(1, &parsed), truth, "op {i}");
                assert_eq!(tuple.lookup_key_idx(1, &key), truth, "op {i}");
                match i {
                    // Only the twin took the new actions.
                    3 => assert_eq!(
                        (
                            reported.0,
                            tuple.iter().filter(|e| e.actions == out(10_003)).count()
                        ),
                        (1, 1)
                    ),
                    // The strict delete took the clean one and left the twin.
                    4 => {
                        assert_eq!(reported.1.len(), 1);
                        assert_eq!(reported.1[0].of_match, clean.build());
                        assert_eq!(tuple.iter().next().unwrap().of_match, twin.build());
                    }
                    // The covering delete reports both, in scan order.
                    6 => assert_eq!(
                        reported.1.iter().map(|e| e.of_match).collect::<Vec<_>>(),
                        [twin.build(), clean.build()]
                    ),
                    _ => {}
                }
            }
        }
    }
}

/// In-place re-ADDs that switch one entry's timeouts off, on, and from
/// one kind to the other, beside an entry whose timeout never changes:
/// after every op the table holds what the model holds and `expire`
/// reports what the model's scan finds.
#[test]
fn readding_in_place_switches_timeouts_off_and_on() {
    let plain = MatchSpec {
        ipv4: true,
        nw_dst: Some((0, 3)),
        tp_dst: None,
        in_port: None,
        priority: 5,
        idle_timeout: 0,
        hard_timeout: 0,
        junk: 0,
    };
    let hard = MatchSpec {
        hard_timeout: 1,
        ..plain
    };
    let idle = MatchSpec {
        idle_timeout: 1,
        ..plain
    };
    let both = MatchSpec {
        idle_timeout: 2,
        hard_timeout: 1,
        ..plain
    };
    let neighbour = MatchSpec {
        tp_dst: Some(1),
        hard_timeout: 2,
        ..plain
    };
    let history = [
        Op::Add(plain),
        Op::Add(hard),  // off → on
        Op::Add(plain), // on → off
        Op::Add(neighbour),
        Op::Add(idle), // off → on
        Op::Add(both),
        Op::Add(plain), // on → off
        Op::Add(hard),  // off → on
        Op::DeleteStrict(plain),
        Op::Add(plain),
        Op::Add(idle),
        Op::Expire,
        Op::Add(plain),
        Op::Delete(plain), // covers the neighbour too
    ];
    let lens = [1, 1, 1, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 0];
    let mut naive = Naive::new(8);
    let mut table = FlowTable::new(8);
    for (i, (o, len)) in history.iter().zip(lens).enumerate() {
        assert_eq!(naive.apply(i, o), apply(&mut table, i, o), "op {i}");
        assert_eq!(table.len(), len, "op {i}");
        assert!(agree(&naive, &table), "op {i}");
        assert!(
            expiry_agrees(&naive, &table, SimTime::from_ms(i as u64)),
            "op {i}"
        );
    }
}

/// Deterministic splitmix64 — a seeded op stream without touching the
/// tables' entropy or adding dependencies.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// 100k-flow_mod churn with interleaved lookups: the index's
/// incremental maintenance (insert/remove/relocate under `swap_remove`
/// storage) must never drift from the model, no matter how long the
/// history. Index verdicts are probed every 8 ops and cross-checked
/// against model and interpreter on a sample (both scan O(n) rows);
/// final table state is compared entry-for-entry.
#[test]
fn hundred_k_flowmod_churn_stays_equivalent() {
    const OPS: usize = 100_000;
    const CAPACITY: usize = 1024;
    let mut rng = SplitMix(0xE15_F10);
    let mut naive = Naive::new(CAPACITY);
    let mut tuple = FlowTable::new(CAPACITY);

    let spec_from = |r: u64| {
        let nw = (r >> 8) & 0xf;
        MatchSpec {
            ipv4: r & 1 == 0,
            nw_dst: (nw < 12).then_some(((nw & 3) as u8, ((nw >> 2) & 3) as u8)),
            tp_dst: ((r >> 16) & 3 != 3).then_some(((r >> 18) & 3) as u8),
            in_port: ((r >> 24) & 7 == 0).then_some(((r >> 27) & 1) as u8),
            priority: [1u16, 5, 5, 9][((r >> 32) & 3) as usize],
            idle_timeout: [0u16, 0, 0, 2][((r >> 36) & 3) as usize],
            hard_timeout: [0u16, 0, 0, 1][((r >> 40) & 3) as usize],
            junk: ((r >> 48) % 3) as u8,
        }
    };
    let mut lookups = 0u64;
    let mut hits = 0u64;
    for i in 0..OPS {
        let r = rng.next();
        let s = spec_from(r);
        let o = match r % 16 {
            0..=8 => Op::Add(s),
            9..=11 => Op::DeleteStrict(s),
            12 => Op::Delete(s),
            13..=14 => Op::ModifyStrict(s),
            _ => Op::Expire,
        };
        assert_eq!(
            naive.apply(i, &o),
            apply(&mut tuple, i, &o),
            "op {i} reported differently"
        );
        assert_eq!(naive.rows.len(), tuple.len(), "len diverged at op {i}");
        if i % 8 == 0 {
            let k = rng.next();
            let frame = udp_frame(
                IP_POOL[(k & 3) as usize],
                PORT_POOL[((k >> 2) & 3) as usize],
            );
            let in_port = ((k >> 4) & 1) as u16 + 1;
            let key = FlowKey::extract(&frame.parse());
            let t = tuple.lookup_key_idx(in_port, &key);
            lookups += 1;
            hits += t.is_some() as u64;
            if i % 512 == 0 {
                assert_eq!(
                    naive.lookup(in_port, &frame),
                    t,
                    "verdict diverged at op {i}"
                );
                assert_eq!(
                    tuple.lookup_idx(in_port, &frame.parse()),
                    t,
                    "interpreter diverged at op {i}"
                );
            }
        }
    }
    assert!(agree(&naive, &tuple));
    assert!(lookups >= (OPS / 8) as u64);
    // The workload must actually exercise matches, not just misses.
    assert!(hits > 0, "churn produced no matching lookups");
    // And a final exhaustive sweep across the whole key pool.
    for ip in IP_POOL {
        for port in PORT_POOL {
            let frame = udp_frame(ip, port);
            let parsed = frame.parse();
            let key = FlowKey::extract(&parsed);
            for in_port in [1u16, 2] {
                let truth = naive.lookup(in_port, &frame);
                assert_eq!(tuple.lookup_idx(in_port, &parsed), truth);
                assert_eq!(tuple.lookup_key_idx(in_port, &key), truth);
            }
        }
    }
}
