//! Determinism parity of the sharded kernel: for every generated
//! topology and every shard count, the parallel run must produce
//! **byte-identical** observable state to the single-threaded kernel —
//! arrival logs (time, port, payload digest), per-port counters,
//! fault-injection tallies and the dispatched-event count.
//!
//! This is the non-negotiable contract of `osnt_netsim::shard`: the
//! `(time, source component, per-source sequence)` event key is
//! partition-independent, so any cut of the component graph replays
//! the same total order. The property test here pins that argument
//! against real topologies (independent port pairs, cross-shard
//! chains, fan-in, a stochastic `FaultyLink` mid-chain) at shard
//! counts 1, 2 and 4.

use osnt_error::OsntError;
use osnt_netsim::{
    Component, ComponentId, FaultConfig, FaultStats, FaultyLink, Kernel, LinkSpec, LossModel,
    PortCounters, ShardPlan, ShardStats, ShardedSim, SimBuilder,
};
use osnt_packet::{hash::crc32, Packet};
use osnt_time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One observed arrival: (time ps, rx port, frame digest).
type ArrivalLog = Rc<RefCell<Vec<(u64, usize, u32)>>>;

/// Constant-bit-rate source: `n` frames of `frame_len`, one per
/// `interval`, payload stamped with the frame index.
struct Cbr {
    n: u64,
    interval: SimDuration,
    frame_len: usize,
    sent: u64,
}

impl Component for Cbr {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        if self.n > 0 {
            k.schedule_timer(me, SimDuration::ZERO, 0);
        }
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        let mut data = vec![0u8; self.frame_len - 4];
        data[..8].copy_from_slice(&self.sent.to_be_bytes());
        let _ = k.transmit(me, 0, Packet::from_vec(data));
        self.sent += 1;
        if self.sent < self.n {
            k.schedule_timer(me, self.interval, 0);
        }
    }
}

/// Sink recording every arrival with a payload digest.
struct RecSink {
    log: ArrivalLog,
}

impl Component for RecSink {
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, port: usize, pkt: Packet) {
        self.log
            .borrow_mut()
            .push((k.now().as_ps(), port, crc32(pkt.data())));
    }
}

/// Everything we compare between runs.
#[derive(Debug, PartialEq)]
struct Observed {
    arrivals: Vec<Vec<(u64, usize, u32)>>,
    counters: Vec<(u64, u64, u64, u64, u64)>,
    fault: Option<FaultStats>,
    dispatched: u64,
}

/// Generator parameters for one random topology.
#[derive(Debug, Clone)]
struct Topo {
    /// Independent CBR→sink pairs (exercise the no-cross-wire path).
    pairs: usize,
    /// Add a cross-shard chain src → FaultyLink → sink.
    chain: bool,
    /// Add a two-source fan-in to one 2-port sink.
    fanin: bool,
    frames: u64,
    frame_len: usize,
    interval_ns: u64,
    fault_seed: u64,
    loss: f64,
}

/// Build the topology, returning (builder, per-sink logs, fault stats,
/// component count, and the list of wire-connected groups for plan
/// construction).
struct Built {
    builder: SimBuilder,
    logs: Vec<ArrivalLog>,
    fault: Option<Rc<RefCell<FaultStats>>>,
    groups: Vec<Vec<ComponentId>>,
    /// Every component id, in creation order (for counter snapshots).
    ids: Vec<ComponentId>,
}

fn build(t: &Topo) -> Built {
    let mut b = SimBuilder::new();
    let mut logs = Vec::new();
    let mut groups = Vec::new();
    let interval = SimDuration::from_ns(t.interval_ns);
    for i in 0..t.pairs {
        let src = b.add_component(
            &format!("cbr{i}"),
            Box::new(Cbr {
                n: t.frames,
                interval,
                frame_len: t.frame_len,
                sent: 0,
            }),
            1,
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = b.add_component(
            &format!("sink{i}"),
            Box::new(RecSink { log: log.clone() }),
            1,
        );
        b.connect(src, 0, sink, 0, LinkSpec::ten_gig());
        logs.push(log);
        groups.push(vec![src, sink]);
    }
    let mut fault = None;
    if t.chain {
        let src = b.add_component(
            "chain-src",
            Box::new(Cbr {
                n: t.frames,
                interval,
                frame_len: t.frame_len,
                sent: 0,
            }),
            1,
        );
        let (link, stats) = FaultyLink::new(FaultConfig {
            loss: if t.loss > 0.0 {
                LossModel::Uniform {
                    probability: t.loss,
                }
            } else {
                LossModel::None
            },
            seed: t.fault_seed,
            ..FaultConfig::default()
        })
        .expect("valid config");
        let mid = b.add_component("chain-fault", Box::new(link), 2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = b.add_component("chain-sink", Box::new(RecSink { log: log.clone() }), 1);
        b.connect(src, 0, mid, 0, LinkSpec::ten_gig());
        b.connect(mid, 1, sink, 0, LinkSpec::ten_gig());
        logs.push(log);
        fault = Some(stats);
        // Three components we deliberately cut across shards: each in
        // its own group so plans can separate them.
        groups.push(vec![src]);
        groups.push(vec![mid]);
        groups.push(vec![sink]);
    }
    if t.fanin {
        let a = b.add_component(
            "fan-a",
            Box::new(Cbr {
                n: t.frames,
                interval,
                frame_len: t.frame_len,
                sent: 0,
            }),
            1,
        );
        let c = b.add_component(
            "fan-b",
            Box::new(Cbr {
                n: t.frames,
                interval,
                frame_len: t.frame_len,
                sent: 0,
            }),
            1,
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = b.add_component("fan-sink", Box::new(RecSink { log: log.clone() }), 2);
        b.connect(a, 0, sink, 0, LinkSpec::ten_gig());
        b.connect(c, 0, sink, 1, LinkSpec::ten_gig());
        logs.push(log);
        groups.push(vec![a]);
        groups.push(vec![c]);
        groups.push(vec![sink]);
    }
    let ids = groups.iter().flatten().copied().collect();
    Built {
        builder: b,
        logs,
        fault,
        groups,
        ids,
    }
}

fn snapshot(
    logs: &[ArrivalLog],
    fault: &Option<Rc<RefCell<FaultStats>>>,
    counters: Vec<(u64, u64, u64, u64, u64)>,
    dispatched: u64,
) -> Observed {
    Observed {
        arrivals: logs.iter().map(|l| l.borrow().clone()).collect(),
        counters,
        fault: fault.as_ref().map(|f| *f.borrow()),
        dispatched,
    }
}

const HORIZON_MS: u64 = 2;

fn run_single(t: &Topo) -> Observed {
    let built = build(t);
    let mut sim = built.builder.build();
    let dispatched = sim.run_until(SimTime::from_ms(HORIZON_MS));
    let counters = built
        .ids
        .iter()
        .map(|&id| {
            let c = sim.kernel().counters(id, 0);
            (c.tx_frames, c.tx_bytes, c.tx_drops, c.rx_frames, c.rx_bytes)
        })
        .collect();
    snapshot(&built.logs, &built.fault, counters, dispatched)
}

/// The yield-stress seed CI's `OSNT_SHARD_STRESS` leg asks for: every
/// sharded run in this file then jitters its workers around each
/// barrier (`ShardedSim::set_yield_stress`).
fn env_stress() -> Option<u64> {
    let v = std::env::var("OSNT_SHARD_STRESS").ok()?;
    Some(v.parse::<u64>().unwrap_or(1).max(1))
}

fn run_sharded(t: &Topo, n_shards: usize) -> Observed {
    run_sharded_stressed(t, n_shards, env_stress())
}

fn run_sharded_stressed(t: &Topo, n_shards: usize, stress: Option<u64>) -> Observed {
    let built = build(t);
    let n = built.builder.component_count();
    // Deterministic cut: group g → shard g % n_shards. This splits
    // the chain and fan-in topologies across shards on purpose.
    let mut plan = ShardPlan::new(n, n_shards);
    for (g, members) in built.groups.iter().enumerate() {
        for &m in members {
            plan.assign(m, g % n_shards);
        }
    }
    let mut sim = built.builder.build_sharded(plan);
    sim.set_yield_stress(stress);
    let dispatched = sim.run_until(SimTime::from_ms(HORIZON_MS));
    let counters = built
        .ids
        .iter()
        .map(|&id| {
            let c = sim.counters(id, 0);
            (c.tx_frames, c.tx_bytes, c.tx_drops, c.rx_frames, c.rx_bytes)
        })
        .collect();
    snapshot(&built.logs, &built.fault, counters, dispatched)
}

fn assert_parity(t: &Topo) {
    let reference = run_single(t);
    // Something must actually happen or the test proves nothing.
    assert!(reference.dispatched > 0, "degenerate topology: {t:?}");
    for shards in [1, 2, 4] {
        let got = run_sharded(t, shards);
        assert_eq!(
            got, reference,
            "sharded run (shards={shards}) diverged from single-threaded: {t:?}"
        );
    }
}

proptest! {
    #[test]
    fn sharded_runs_match_single_threaded(
        pairs in 1usize..4,
        chain in any::<bool>(),
        fanin in any::<bool>(),
        frames in 1u64..40,
        frame_len in (0usize..4).prop_map(|i| [64usize, 128, 512, 1518][i]),
        interval_ns in (0usize..4).prop_map(|i| [68u64, 100, 1_000, 10_000][i]),
        fault_seed in any::<u64>(),
        loss in (0usize..3).prop_map(|i| [0.0f64, 0.1, 0.5][i]),
    ) {
        assert_parity(&Topo {
            pairs, chain, fanin, frames, frame_len, interval_ns, fault_seed, loss,
        });
    }
}

/// Quiescence path parity: `run_to_quiescence` drains to the same
/// state and event count for any shard count.
#[test]
fn quiescence_parity() {
    let t = Topo {
        pairs: 2,
        chain: true,
        fanin: true,
        frames: 25,
        frame_len: 256,
        interval_ns: 500,
        fault_seed: 7,
        loss: 0.2,
    };
    let reference = {
        let built = build(&t);
        let mut sim = built.builder.build();
        let d = sim.run_to_quiescence(1_000_000);
        (
            d,
            built
                .logs
                .iter()
                .map(|l| l.borrow().clone())
                .collect::<Vec<_>>(),
        )
    };
    for shards in [2, 4] {
        let built = build(&t);
        let n = built.builder.component_count();
        let mut plan = ShardPlan::new(n, shards);
        for (g, members) in built.groups.iter().enumerate() {
            for &m in members {
                plan.assign(m, g % shards);
            }
        }
        let mut sim = built.builder.build_sharded(plan);
        let d = sim.run_to_quiescence(1_000_000);
        assert_eq!(sim.pending_events(), 0);
        let logs: Vec<_> = built.logs.iter().map(|l| l.borrow().clone()).collect();
        assert_eq!(
            (d, logs),
            reference,
            "quiescence diverged at {shards} shards"
        );
    }
}

/// The auto-sharder keeps wire-connected groups together: independent
/// pairs spread across shards, and results still match.
#[test]
fn auto_sharding_parity() {
    let t = Topo {
        pairs: 4,
        chain: false,
        fanin: false,
        frames: 50,
        frame_len: 64,
        interval_ns: 68,
        fault_seed: 0,
        loss: 0.0,
    };
    let reference = run_single(&t);
    let built = build(&t);
    let mut sim = built.builder.build_auto_sharded(4);
    assert_eq!(sim.n_shards(), 4);
    sim.set_yield_stress(env_stress());
    assert!(
        (0..4).all(|p| (0..4).all(|s| sim.lookahead_between(p, s).is_none())),
        "independent pairs have no cross-shard wires"
    );
    let dispatched = sim.run_until(SimTime::from_ms(HORIZON_MS));
    let counters = built
        .ids
        .iter()
        .map(|&id| {
            let c = sim.counters(id, 0);
            (c.tx_frames, c.tx_bytes, c.tx_drops, c.rx_frames, c.rx_bytes)
        })
        .collect();
    let got = snapshot(&built.logs, &None, counters, dispatched);
    assert_eq!(got, reference);
}

/// Randomized-yield stress: every worker inserts pseudo-random
/// `yield_now` bursts around its window phases, shaking out schedules
/// the quiet run never exhibits. Parity must hold under every
/// interleaving — this is the repo's no-TSan race check (see
/// CONTRIBUTING.md). Five seeds, offset by CI's when it sets one.
#[test]
fn yield_stress_keeps_parity() {
    let t = Topo {
        pairs: 2,
        chain: true,
        fanin: true,
        frames: 30,
        frame_len: 64,
        interval_ns: 68,
        fault_seed: 99,
        loss: 0.1,
    };
    let reference = run_single(&t);
    let base = env_stress().unwrap_or(0);
    for round in 1..=5u64 {
        for shards in [2, 4] {
            let got = run_sharded_stressed(&t, shards, Some(base + round));
            assert_eq!(
                got, reference,
                "stress round {round} diverged at {shards} shards"
            );
        }
    }
}

/// Sends `at_start` frames from `on_start` and `burst` more from one
/// timer handler at 1 µs, all out of port 0, then panics if told to.
struct Blast {
    at_start: u64,
    burst: u64,
    panic_after: bool,
}

impl Blast {
    fn send(k: &mut Kernel, me: ComponentId, n: u64, tag: u8) {
        for i in 0..n {
            let mut data = vec![tag; 60];
            data[..8].copy_from_slice(&i.to_be_bytes());
            let _ = k.transmit(me, 0, Packet::from_vec(data));
        }
    }
}

impl Component for Blast {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        Blast::send(k, me, self.at_start, 0xA5);
        k.schedule_timer_at(me, SimTime::from_us(1), 0);
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        Blast::send(k, me, self.burst, 0x5A);
        if self.panic_after {
            panic!("blast component failed after posting");
        }
    }
}

/// What a [`Blast`] → sink run looked like from outside.
#[derive(Debug, PartialEq)]
struct BlastObserved {
    arrivals: Vec<(u64, usize, u32)>,
    tx: PortCounters,
    rx: PortCounters,
    dispatched: u64,
}

fn blast_builder(blast: Blast) -> (SimBuilder, ComponentId, ComponentId, ArrivalLog) {
    let mut b = SimBuilder::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let src = b.add_component("blast", Box::new(blast), 1);
    let sink = b.add_component("sink", Box::new(RecSink { log: log.clone() }), 1);
    b.connect(src, 0, sink, 0, LinkSpec::ten_gig());
    (b, src, sink, log)
}

fn blast_single(blast: Blast) -> BlastObserved {
    let (b, src, sink, log) = blast_builder(blast);
    let mut sim = b.build();
    let dispatched = sim.run_until(SimTime::from_ms(HORIZON_MS));
    let arrivals = log.borrow().clone();
    BlastObserved {
        arrivals,
        tx: sim.kernel().counters(src, 0),
        rx: sim.kernel().counters(sink, 0),
        dispatched,
    }
}

/// The sender on shard 0, the sink on shard 1 (further shards idle), so
/// every delivery crosses; workers jitter under `stress`.
fn blast_sharded_sim(
    blast: Blast,
    shards: usize,
    stress: u64,
) -> (ShardedSim, ComponentId, ComponentId, ArrivalLog) {
    let (b, src, sink, log) = blast_builder(blast);
    let mut plan = ShardPlan::new(b.component_count(), shards);
    plan.assign(sink, 1);
    let mut sim = b.build_sharded(plan);
    sim.set_yield_stress(Some(stress));
    (sim, src, sink, log)
}

/// Run [`blast_sharded_sim`] to the horizon; returns the observation
/// and shard 0's cross-shard push count.
fn blast_sharded(blast: Blast, shards: usize, stress: u64) -> (BlastObserved, u64) {
    let (mut sim, src, sink, log) = blast_sharded_sim(blast, shards, stress);
    let dispatched = sim.run_until(SimTime::from_ms(HORIZON_MS));
    let stats = sim.shard_stats();
    let merged = stats
        .iter()
        .fold(ShardStats::default(), |a, s| a.merged(*s));
    assert_eq!(
        merged.ring_pushes, merged.ring_drains,
        "a crossing was lost"
    );
    let arrivals = log.borrow().clone();
    (
        BlastObserved {
            arrivals,
            tx: sim.counters(src, 0),
            rx: sim.counters(sink, 0),
            dispatched,
        },
        stats[0].ring_pushes,
    )
}

/// One handler call — so one window — posts more cross-shard entries
/// than any committed artifact or other test sends in a whole run
/// (1 024 was the old channel's slot count): nothing is lost, reordered
/// or delayed.
#[test]
fn one_window_with_thousands_of_crossings_keeps_parity() {
    let blast = || Blast {
        at_start: 0,
        burst: 3_000,
        panic_after: false,
    };
    let reference = blast_single(blast());
    assert_eq!(reference.arrivals.len(), 3_000);
    let base = env_stress().unwrap_or(0);
    for shards in [2, 4] {
        for round in 1..=3 {
            let (got, pushes) = blast_sharded(blast(), shards, base + round);
            assert_eq!(pushes, 3_000, "every delivery crosses the cut");
            assert_eq!(got, reference, "diverged at {shards} shards, round {round}");
        }
    }
}

/// Cross-shard sends from `on_start` are posted on the calling thread,
/// before any worker exists, and folded in at the first window
/// boundary.
#[test]
fn crossings_posted_from_on_start_keep_parity() {
    let blast = || Blast {
        at_start: 40,
        burst: 2,
        panic_after: false,
    };
    let reference = blast_single(blast());
    assert_eq!(reference.arrivals.len(), 42);
    let base = env_stress().unwrap_or(0);
    for shards in [2, 4] {
        for round in 1..=3 {
            let (got, pushes) = blast_sharded(blast(), shards, base + round);
            assert_eq!(pushes, 42);
            assert_eq!(got, reference, "diverged at {shards} shards, round {round}");
        }
    }
}

/// A component that panics after its shard has already posted entries
/// in the same window: the mailbox lock is never held across a handler,
/// so it is not poisoned, the barrier is — every peer stops and
/// `try_run_until` reports the component's own panic, the one the
/// unsharded kernel raises.
#[test]
fn panic_after_posting_is_contained_and_peers_stop() {
    let blast = || Blast {
        at_start: 5,
        burst: 50,
        panic_after: true,
    };
    let oracle = {
        let (b, ..) = blast_builder(blast());
        let mut sim = b.build();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_ms(HORIZON_MS))
        }));
        OsntError::from_panic("oracle", caught.expect_err("oracle panics").as_ref())
    };
    let OsntError::Panicked { reason: want, .. } = oracle else {
        unreachable!("from_panic always yields Panicked");
    };
    assert!(want.contains("failed after posting"), "{want}");
    let base = env_stress().unwrap_or(0);
    for shards in [2, 4] {
        for round in 1..=3 {
            let (mut sim, ..) = blast_sharded_sim(blast(), shards, base + round);
            match sim.try_run_until(SimTime::from_ms(HORIZON_MS)) {
                Err(OsntError::Panicked { reason, .. }) => assert_eq!(reason, want),
                other => panic!("{shards} shards, round {round}: expected Panicked, got {other:?}"),
            }
        }
    }
}

/// A cross-shard link with zero propagation delay has no lookahead —
/// the build must refuse it rather than livelock.
#[test]
#[should_panic(expected = "zero propagation")]
fn zero_propagation_cross_link_rejected() {
    let mut b = SimBuilder::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let src = b.add_component(
        "src",
        Box::new(Cbr {
            n: 1,
            interval: SimDuration::from_ns(100),
            frame_len: 64,
            sent: 0,
        }),
        1,
    );
    let sink = b.add_component("sink", Box::new(RecSink { log }), 1);
    b.connect(
        src,
        0,
        sink,
        0,
        LinkSpec::ten_gig().with_propagation(SimDuration::ZERO),
    );
    let mut plan = ShardPlan::new(2, 2);
    plan.assign(src, 0);
    plan.assign(sink, 1);
    let _ = b.build_sharded(plan);
}
