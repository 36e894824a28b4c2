//! Determinism parity of the sharded kernel: for every generated
//! topology and every shard count, the parallel run must produce
//! **byte-identical** observable state to the single-threaded kernel —
//! arrival logs (time, port, payload digest), per-port counters,
//! fault-injection tallies, the dispatched-event count and the queue's
//! lane / fall-back push counts (every source here transmits frame by
//! frame; only the re-queued tails of split bursts depend on what else
//! a kernel holds).
//!
//! This is the non-negotiable contract of `osnt_netsim::shard`: the
//! `(time, source component, per-source sequence)` event key is
//! partition-independent, so packing the wire-connected groups onto any
//! number of workers replays the same total order. The property test
//! here pins that argument against real topologies (independent port
//! pairs, a chain through a stochastic `FaultyLink`, fan-in — each one
//! group) at shard counts 1, 2 and 4.

use osnt_error::OsntError;
use osnt_netsim::{
    Component, ComponentId, FaultConfig, FaultStats, FaultyLink, Kernel, LinkSpec, LossModel,
    QueueCounts, SimBuilder,
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
    queued: QueueCounts,
}

/// Generator parameters for one random topology.
#[derive(Debug, Clone)]
struct Topo {
    /// Independent CBR→sink pairs (exercise the no-cross-wire path).
    pairs: usize,
    /// Add a three-component chain src → FaultyLink → sink.
    chain: bool,
    /// Add a two-source fan-in to one 2-port sink.
    fanin: bool,
    frames: u64,
    frame_len: usize,
    interval_ns: u64,
    fault_seed: u64,
    loss: f64,
}

/// The built topology: builder, per-sink logs, fault stats.
struct Built {
    builder: SimBuilder,
    logs: Vec<ArrivalLog>,
    fault: Option<Rc<RefCell<FaultStats>>>,
    /// Every component id, in creation order (for counter snapshots).
    ids: Vec<ComponentId>,
}

fn build(t: &Topo) -> Built {
    let mut b = SimBuilder::new();
    let mut logs = Vec::new();
    let mut ids = Vec::new();
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
        ids.extend([src, sink]);
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
        ids.extend([src, mid, sink]);
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
        ids.extend([a, c, sink]);
    }
    Built {
        builder: b,
        logs,
        fault,
        ids,
    }
}

fn snapshot(
    logs: &[ArrivalLog],
    fault: &Option<Rc<RefCell<FaultStats>>>,
    counters: Vec<(u64, u64, u64, u64, u64)>,
    dispatched: u64,
    queued: QueueCounts,
) -> Observed {
    Observed {
        arrivals: logs.iter().map(|l| l.borrow().clone()).collect(),
        counters,
        fault: fault.as_ref().map(|f| *f.borrow()),
        dispatched,
        queued,
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
    let queued = sim.kernel().queue_counts();
    snapshot(&built.logs, &built.fault, counters, dispatched, queued)
}

fn run_sharded(t: &Topo, n_shards: usize) -> Observed {
    let built = build(t);
    let mut sim = built.builder.build_auto_sharded(n_shards);
    let groups = t.pairs + usize::from(t.chain) + usize::from(t.fanin);
    assert_eq!(sim.n_shards(), n_shards.min(groups));
    let dispatched = sim.run_until(SimTime::from_ms(HORIZON_MS));
    assert_eq!(sim.now(), SimTime::from_ms(HORIZON_MS));
    let counters = built
        .ids
        .iter()
        .map(|&id| {
            let c = sim.counters(id, 0);
            (c.tx_frames, c.tx_bytes, c.tx_drops, c.rx_frames, c.rx_bytes)
        })
        .collect();
    let queued = sim.queue_counts();
    snapshot(&built.logs, &built.fault, counters, dispatched, queued)
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
    for shards in [1, 2, 4] {
        let built = build(&t);
        let mut sim = built.builder.build_auto_sharded(shards);
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
/// pairs spread one per shard, a group never splits however many shards
/// are asked for, and results still match.
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
    assert_eq!(run_sharded(&t, 4), reference);
    let connected = Topo {
        pairs: 0,
        chain: true,
        ..t
    };
    assert_eq!(
        build(&connected).builder.build_auto_sharded(4).n_shards(),
        1
    );
    assert_eq!(run_sharded(&connected, 4), run_single(&connected));
}

/// Sends `burst` frames from one timer handler at 1 µs, then panics.
struct Blast {
    burst: u64,
}

impl Component for Blast {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        k.schedule_timer_at(me, SimTime::from_us(1), 0);
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        for i in 0..self.burst {
            let mut data = vec![0x5A; 60];
            data[..8].copy_from_slice(&i.to_be_bytes());
            let _ = k.transmit(me, 0, Packet::from_vec(data));
        }
        panic!("blast component failed after posting");
    }
}

/// A component that panics takes down its own worker and nothing else:
/// `try_run_until` reports the component's own panic message — the one
/// the unsharded kernel raises — and the groups on the other workers
/// run to the horizon exactly as they do without the faulty group.
#[test]
fn panic_is_contained_and_peers_finish() {
    let peers = Topo {
        pairs: 2,
        chain: false,
        fanin: true,
        frames: 30,
        frame_len: 64,
        interval_ns: 68,
        fault_seed: 0,
        loss: 0.0,
    };
    let with_blast = || {
        let mut built = build(&peers);
        let b = &mut built.builder;
        let src = b.add_component("blast", Box::new(Blast { burst: 50 }), 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = b.add_component("blast-sink", Box::new(RecSink { log }), 1);
        b.connect(src, 0, sink, 0, LinkSpec::ten_gig());
        built
    };
    let oracle = {
        let mut sim = with_blast().builder.build();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_ms(HORIZON_MS))
        }));
        OsntError::from_panic("oracle", caught.expect_err("oracle panics").as_ref())
    };
    let OsntError::Panicked { reason: want, .. } = oracle else {
        unreachable!("from_panic always yields Panicked");
    };
    assert!(want.contains("failed after posting"), "{want}");
    let peers_alone = run_single(&peers);
    for shards in [1, 2, 4] {
        let built = with_blast();
        let mut sim = built.builder.build_auto_sharded(shards);
        match sim.try_run_until(SimTime::from_ms(HORIZON_MS)) {
            Err(OsntError::Panicked { reason, .. }) => assert_eq!(reason, want),
            other => panic!("{shards} shards: expected Panicked, got {other:?}"),
        }
        if shards == 4 {
            // Every peer group had a worker of its own.
            let logs: Vec<_> = built.logs.iter().map(|l| l.borrow().clone()).collect();
            assert_eq!(logs, peers_alone.arrivals, "a peer did not finish");
        }
    }
}
