//! End-to-end sharding parity: the canonical latency experiment (the
//! paper's Fig. 2 topology) must produce a **byte-identical**
//! `LatencyReport` whether it runs on the single-threaded kernel or on
//! the sharded kernel (`shards` ≥ 2: tester device on one shard, DUT on
//! the other). Every field — Poisson probe timestamps, latency
//! summary floats, fault tallies — goes through the comparison via the
//! report's `Debug` rendering, so even a one-ULP drift fails.

use osnt::chaos::{ChaosScenario, Episode};
use osnt::core::experiment::LatencyExperiment;
use osnt::netsim::{
    Component, ComponentId, FaultConfig, FaultyLink, Kernel, LinkSpec, LossModel, ShardPlan,
    ShardStats, SimBuilder,
};
use osnt::packet::{hash::crc32, Packet};
use osnt::switch::LegacyConfig;
use osnt::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn short_run(faults: Option<FaultConfig>, background: f64, shards: Option<usize>) -> String {
    let exp = LatencyExperiment {
        duration: SimDuration::from_ms(5),
        warmup: SimDuration::from_ms(1),
        background_load: background,
        probe_faults: faults,
        shards,
        ..LatencyExperiment::default()
    };
    let report = exp
        .run_legacy(LegacyConfig::default())
        .expect("experiment runs");
    format!("{report:?}")
}

#[test]
fn sharded_experiment_reports_are_byte_identical() {
    let faulty = Some(FaultConfig {
        loss: LossModel::Uniform { probability: 0.05 },
        corrupt_probability: 0.05,
        seed: 42,
        ..FaultConfig::default()
    });

    let clean_ref = short_run(None, 0.5, None);
    let faulty_ref = short_run(faulty.clone(), 0.0, None);

    for shards in [2, 4] {
        assert_eq!(
            short_run(None, 0.5, Some(shards)),
            clean_ref,
            "clean report diverged at {shards} shards"
        );
        assert_eq!(
            short_run(faulty.clone(), 0.0, Some(shards)),
            faulty_ref,
            "faulty report diverged at {shards} shards"
        );
    }
}

/// A lowered chaos scenario — composed loss, duplication, jitter, GPS
/// holdover and a capture bound all at once — is the hardest parity
/// input the platform has: every stochastic subsystem is live. It must
/// still render byte-identical at 1, 2 and 4 shards.
#[test]
fn chaos_scenario_reports_are_byte_identical_across_shard_counts() {
    let scenario = ChaosScenario {
        name: "parity-chaos".into(),
        duration: SimDuration::from_ms(5),
        warmup: SimDuration::from_ms(1),
        background_load: 0.6,
        capture_limit: Some(256),
        episodes: vec![
            Episode::LossBurst {
                enter_probability: 0.01,
                mean_burst_frames: 6.0,
            },
            Episode::Duplicate { probability: 0.02 },
            Episode::Jitter {
                extra_delay: SimDuration::from_us(2),
                jitter: SimDuration::from_us(1),
            },
            Episode::GpsOutage {
                start: SimTime::from_ms(2),
                length: SimDuration::from_ms(2),
            },
        ],
    };
    let lowered = scenario.lower(77).expect("scenario lowers");

    let run_at = |shards: usize| -> String {
        let exp = LatencyExperiment {
            duration: scenario.duration,
            warmup: scenario.warmup,
            background_load: scenario.background_load,
            probe_faults: lowered.faults.clone(),
            gps_signal: lowered.gps.clone(),
            capture_limit: scenario.capture_limit,
            record_raw: true,
            seed: 77,
            shards: Some(shards),
            ..LatencyExperiment::default()
        };
        let report = exp
            .run_legacy(LegacyConfig::default())
            .expect("chaos experiment runs");
        format!("{report:?}")
    };

    let reference = run_at(1);
    assert!(
        reference.contains("fault_stats: Some"),
        "the lowered fault channel must be live"
    );
    for shards in [2, 4] {
        assert_eq!(
            run_at(shards),
            reference,
            "chaos report diverged at {shards} shards"
        );
    }
}

// ---------------------------------------------------------------------
// Adaptive-window parity on raw netsim topologies: random multi-shard
// rings with *asymmetric* per-direction cross-shard delays, optional
// fault injection mid-ring, run under the per-channel-lookahead windows
// of the sharded executive. Every observable —
// arrival logs (time, digest), per-port counters, dispatched-event
// count — must be byte-identical to the single-threaded run, and the
// executive's window-accounting ledger must balance.
// ---------------------------------------------------------------------

/// CBR source; also ignores anything bounced back at it.
struct Src {
    n: u64,
    interval: SimDuration,
    sent: u64,
}

impl Component for Src {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        if self.n > 0 {
            k.schedule_timer(me, SimDuration::ZERO, 0);
        }
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        let mut data = vec![0u8; 60];
        data[..8].copy_from_slice(&self.sent.to_be_bytes());
        let _ = k.transmit(me, 0, Packet::from_vec(data));
        self.sent += 1;
        if self.sent < self.n {
            k.schedule_timer(me, self.interval, 0);
        }
    }
    fn on_packet(&mut self, _k: &mut Kernel, _me: ComponentId, _port: usize, _pkt: Packet) {
        // Bounced frames terminate here.
    }
}

type Log = Rc<RefCell<Vec<(u64, u32)>>>;

/// Logs every arrival on port 0 and bounces every third frame back
/// upstream — the bounce forces cross-shard traffic *against* the ring
/// direction, exercising the influence matrix's cycle entries.
struct BounceSink {
    log: Log,
    seen: u64,
}

impl Component for BounceSink {
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, _port: usize, pkt: Packet) {
        self.log
            .borrow_mut()
            .push((k.now().as_ps(), crc32(pkt.data())));
        self.seen += 1;
        if self.seen.is_multiple_of(3) {
            let _ = k.transmit(me, 0, Packet::from_vec(pkt.data().to_vec()));
        }
    }
}

struct RingTopo {
    nodes: usize,
    frames: u64,
    interval_ns: u64,
    /// Per-hop (forward_ns, reverse_ns) — asymmetric cross delays.
    delays: Vec<(u64, u64)>,
    /// Wrap this hop (if any) in a lossy fault injector.
    faulty_hop: Option<usize>,
    loss: f64,
    fault_seed: u64,
}

struct RingBuilt {
    builder: SimBuilder,
    logs: Vec<Log>,
    ids: Vec<ComponentId>,
    node_of: Vec<(ComponentId, usize)>,
}

/// Node `i` hosts a source whose frames cross hop `i` (delay
/// `delays[i]`) into node `(i+1) % nodes`'s sink; the sink's bounces
/// ride the same wire back. One hop optionally goes through a
/// `FaultyLink` that lives on the *receiving* node.
fn build_ring(t: &RingTopo) -> RingBuilt {
    let mut b = SimBuilder::new();
    let mut logs = Vec::new();
    let mut node_of = Vec::new();
    let mut srcs = Vec::new();
    let mut sinks = Vec::new();
    for i in 0..t.nodes {
        let src = b.add_component(
            &format!("src{i}"),
            Box::new(Src {
                n: t.frames,
                interval: SimDuration::from_ns(t.interval_ns),
                sent: 0,
            }),
            1,
        );
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let sink = b.add_component(
            &format!("sink{i}"),
            Box::new(BounceSink {
                log: log.clone(),
                seen: 0,
            }),
            1,
        );
        logs.push(log);
        node_of.push((src, i));
        node_of.push((sink, i));
        srcs.push(src);
        sinks.push(sink);
    }
    for (i, &src) in srcs.iter().enumerate() {
        let dst = (i + 1) % t.nodes;
        let (fwd_ns, rev_ns) = t.delays[i];
        let fwd = LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(fwd_ns));
        let rev = LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(rev_ns));
        if t.faulty_hop == Some(i) {
            let (link, _stats) = FaultyLink::new(FaultConfig {
                loss: LossModel::Uniform {
                    probability: t.loss,
                },
                seed: t.fault_seed,
                ..FaultConfig::default()
            })
            .expect("valid fault config");
            let mid = b.add_component(&format!("fault{i}"), Box::new(link), 2);
            node_of.push((mid, dst));
            b.connect_asym(src, 0, mid, 0, fwd, rev);
            // The injector sits on the receiving node: its second hop
            // is node-local.
            b.connect(
                mid,
                1,
                sinks[dst],
                0,
                LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(50)),
            );
        } else {
            b.connect_asym(src, 0, sinks[dst], 0, fwd, rev);
        }
    }
    let ids = node_of.iter().map(|&(c, _)| c).collect();
    RingBuilt {
        builder: b,
        logs,
        ids,
        node_of,
    }
}

#[derive(Debug, PartialEq)]
struct RingObserved {
    arrivals: Vec<Vec<(u64, u32)>>,
    counters: Vec<(u64, u64, u64, u64, u64)>,
    dispatched: u64,
}

const RING_HORIZON_MS: u64 = 2;

fn ring_single(t: &RingTopo) -> RingObserved {
    let built = build_ring(t);
    let mut sim = built.builder.build();
    let dispatched = sim.run_until(SimTime::from_ms(RING_HORIZON_MS));
    RingObserved {
        arrivals: built.logs.iter().map(|l| l.borrow().clone()).collect(),
        counters: built
            .ids
            .iter()
            .map(|&id| {
                let c = sim.kernel().counters(id, 0);
                (c.tx_frames, c.tx_bytes, c.tx_drops, c.rx_frames, c.rx_bytes)
            })
            .collect(),
        dispatched,
    }
}

fn ring_sharded(t: &RingTopo, shards: usize) -> RingObserved {
    let built = build_ring(t);
    let mut plan = ShardPlan::new(built.builder.component_count(), shards);
    for &(c, node) in &built.node_of {
        plan.assign(c, node % shards);
    }
    let mut sim = built.builder.build_sharded(plan);
    let dispatched = sim.run_until(SimTime::from_ms(RING_HORIZON_MS));

    // The executive's deterministic ledger must balance on every run:
    // rounds are lockstep across shards, and summed cross-shard pushes
    // equal drains once the run quiesces.
    let stats: Vec<ShardStats> = sim.shard_stats();
    assert_eq!(stats.len(), shards);
    let rounds = stats[0].rounds();
    assert!(
        stats.iter().all(|s| s.rounds() == rounds),
        "shards disagree on round count: {stats:?}"
    );
    let merged = stats
        .iter()
        .fold(ShardStats::default(), |a, s| a.merged(*s));
    assert_eq!(
        merged.ring_pushes, merged.ring_drains,
        "ring ledger does not balance: {merged:?}"
    );

    RingObserved {
        arrivals: built.logs.iter().map(|l| l.borrow().clone()).collect(),
        counters: built
            .ids
            .iter()
            .map(|&id| {
                let c = sim.counters(id, 0);
                (c.tx_frames, c.tx_bytes, c.tx_drops, c.rx_frames, c.rx_bytes)
            })
            .collect(),
        dispatched,
    }
}

proptest! {
    #[test]
    fn adaptive_windows_match_reference_on_asymmetric_rings(
        nodes in 2usize..5,
        frames in 1u64..30,
        interval_ns in (0usize..3).prop_map(|i| [68u64, 500, 5_000][i]),
        delay_picks in proptest::collection::vec((0usize..4, 0usize..4), 4),
        fault in any::<bool>(),
        fault_seed in any::<u64>(),
        loss in (0usize..2).prop_map(|i| [0.1f64, 0.4][i]),
    ) {
        let menu = [500u64, 5_000, 50_000, 150_000];
        let t = RingTopo {
            nodes,
            frames,
            interval_ns,
            delays: delay_picks
                .iter()
                .take(nodes)
                .map(|&(a, b)| (menu[a], menu[b]))
                .collect(),
            faulty_hop: fault.then_some(nodes - 1),
            loss,
            fault_seed,
        };
        let reference = ring_single(&t);
        prop_assert!(reference.dispatched > 0);
        for shards in [2, 4] {
            let shards = shards.min(nodes);
            let got = ring_sharded(&t, shards);
            prop_assert!(
                got == reference,
                "{:?} diverged at {} shards:\n got {:?}\n ref {:?}",
                t.delays,
                shards,
                got,
                reference
            );
        }
    }
}
