//! Burst-vs-scalar parity of the fault-injection link: for every fault
//! configuration and every burst-shaped offered load, a `FaultyLink`
//! processing whole [`osnt_netsim::PacketBurst`]s (its vector fast
//! path, or its internal per-member fallback when reordering or
//! in-flight frames force it) must deliver **exactly** the frames the
//! scalar dispatch path delivers — same arrival instants at the sink,
//! same payload bytes (including corruption flips), same
//! [`FaultStats`] tallies.
//!
//! The scalar reference is obtained with a shim component that owns the
//! very same `FaultyLink` but answers `wants_bursts() == false`: the
//! engine then splits each incoming `DeliverBurst` back into exact
//! per-member scalar `on_packet` calls (the determinism-pinning replay
//! path), so both runs see the *same* wire-level input stream and the
//! only difference is which link code path consumes it. Both faults
//! draw from the same seeded RNG in the same order, so every stochastic
//! decision — loss, Gilbert–Elliott state walks, corruption bit picks,
//! jitter, duplication — must land on the same frames.

use osnt_netsim::{
    Component, ComponentId, FaultConfig, FaultStats, FaultyLink, GilbertElliott, Kernel, LinkSpec,
    LossModel, SimBuilder,
};
use osnt_packet::{hash::crc32, Packet};
use osnt_time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One observed delivery: (arrival ps, frame length, payload digest).
type ArrivalLog = Rc<RefCell<Vec<(u64, usize, u32)>>>;

/// Scripted burst source: emits `bursts` bursts of `burst_len` frames
/// via [`Kernel::transmit_batch`], one burst per `gap`, payloads
/// stamped with (burst, member) so any mis-delivery shows in digests.
struct BurstSource {
    bursts: u32,
    burst_len: u32,
    frame_len: usize,
    gap: SimDuration,
    emitted: u32,
}

impl Component for BurstSource {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        if self.bursts > 0 {
            k.schedule_timer(me, SimDuration::ZERO, 0);
        }
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        let burst = self.emitted;
        let mut member = 0u32;
        let n = self.burst_len;
        let len = self.frame_len;
        let _ = k.transmit_batch(
            me,
            0,
            &mut |_| {
                if member == n {
                    return None;
                }
                let mut data = vec![0u8; len - 4];
                data[..4].copy_from_slice(&burst.to_be_bytes());
                data[4..8].copy_from_slice(&member.to_be_bytes());
                member += 1;
                Some(Packet::from_vec(data))
            },
            None,
        );
        self.emitted += 1;
        if self.emitted < self.bursts {
            k.schedule_timer(me, self.gap, 0);
        }
    }
}

/// Sink recording every scalar arrival (it never opts into batches, so
/// both runs log exact per-frame instants).
struct RecSink {
    log: ArrivalLog,
}

impl Component for RecSink {
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
        self.log
            .borrow_mut()
            .push((k.now().as_ps(), pkt.len(), crc32(pkt.data())));
    }
}

/// The scalar reference: owns a real `FaultyLink` and forwards every
/// handler to it, but reports `wants_bursts() == false` so the engine
/// replays arriving bursts one exact scalar `on_packet` at a time.
struct ScalarShim {
    inner: FaultyLink,
}

impl Component for ScalarShim {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        self.inner.on_start(k, me);
    }
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, pkt: Packet) {
        self.inner.on_packet(k, me, port, pkt);
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
        self.inner.on_timer(k, me, tag);
    }
    fn wants_bursts(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "scalar-shim"
    }
}

/// Generator parameters for one run pair.
#[derive(Debug, Clone)]
struct Case {
    bursts: u32,
    burst_len: u32,
    frame_len: usize,
    gap_ns: u64,
    config: FaultConfig,
}

/// Run one simulation; `scalar` selects the shim (exact replay) or the
/// bare link (burst path). Returns (sink log, final fault stats).
fn run(case: &Case, scalar: bool) -> (Vec<(u64, usize, u32)>, FaultStats) {
    let mut b = SimBuilder::new();
    let src = b.add_component(
        "src",
        Box::new(BurstSource {
            bursts: case.bursts,
            burst_len: case.burst_len,
            frame_len: case.frame_len,
            gap: SimDuration::from_ns(case.gap_ns),
            emitted: 0,
        }),
        1,
    );
    let (link, stats) = FaultyLink::new(case.config.clone()).expect("valid fault config");
    let link_box: Box<dyn Component> = if scalar {
        Box::new(ScalarShim { inner: link })
    } else {
        Box::new(link)
    };
    let fault = b.add_component("fault", link_box, 2);
    let log: ArrivalLog = Rc::new(RefCell::new(Vec::new()));
    let sink = b.add_component("sink", Box::new(RecSink { log: log.clone() }), 1);
    b.connect(src, 0, fault, 0, LinkSpec::ten_gig());
    b.connect(fault, 1, sink, 0, LinkSpec::ten_gig());
    let mut sim = b.build();
    // Far past the last burst plus every extra delay / jitter / reorder
    // hold, so all pending releases drain (`delivered` is counted at
    // release time on the scalar path).
    sim.run_until(SimTime::from_ms(200));
    let log = log.borrow().clone();
    let stats = *stats.borrow();
    (log, stats)
}

fn assert_parity(case: &Case) {
    let (scalar_log, scalar_stats) = run(case, true);
    let (burst_log, burst_stats) = run(case, false);
    assert_eq!(
        burst_log, scalar_log,
        "burst-path deliveries diverged from scalar replay: {case:?}"
    );
    assert_eq!(
        burst_stats, scalar_stats,
        "burst-path fault tallies diverged from scalar replay: {case:?}"
    );
    // Sanity: the offered count is what the source actually emitted.
    assert_eq!(
        scalar_stats.offered,
        u64::from(case.bursts) * u64::from(case.burst_len),
        "harness lost frames before the link: {case:?}"
    );
}

fn loss_strategy() -> impl Strategy<Value = LossModel> {
    (0usize..3, 0usize..3, 0usize..3).prop_map(|(kind, p, m)| match kind {
        0 => LossModel::None,
        1 => LossModel::Uniform {
            probability: [0.05f64, 0.2, 0.5][p],
        },
        _ => LossModel::GilbertElliott(GilbertElliott::bursty(
            [0.02f64, 0.1, 0.25][p],
            [1.0f64, 3.0, 8.0][m],
        )),
    })
}

fn config_strategy() -> impl Strategy<Value = FaultConfig> {
    (
        loss_strategy(),
        // Reorder > 0 forces the link's internal per-member fallback;
        // keep it in the mix so that path is pinned too.
        (0usize..3).prop_map(|i| [0.0f64, 0.1, 0.3][i]),
        (0usize..3).prop_map(|i| [0.0f64, 0.1, 0.4][i]),
        (0usize..3).prop_map(|i| [0.0f64, 0.1, 0.3][i]),
        1u32..4,
        (0usize..3).prop_map(|i| [0u64, 500, 5_000][i]),
        (0usize..3).prop_map(|i| [0u64, 100, 2_000][i]),
        any::<u64>(),
    )
        .prop_map(
            |(loss, reorder, dup, corrupt, bits, delay_ns, jitter_ns, seed)| FaultConfig {
                loss,
                reorder_probability: reorder,
                reorder_hold: SimDuration::from_us(30),
                duplicate_probability: dup,
                corrupt_probability: corrupt,
                corrupt_bits: bits,
                extra_delay: SimDuration::from_ns(delay_ns),
                jitter: SimDuration::from_ns(jitter_ns),
                seed,
            },
        )
}

proptest! {
    #[test]
    fn burst_path_matches_scalar_replay(
        bursts in 1u32..12,
        burst_len in 1u32..24,
        frame_len in (0usize..4).prop_map(|i| [64usize, 128, 600, 1518][i]),
        gap_ns in (0usize..4).prop_map(|i| [200u64, 2_000, 20_000, 150_000][i]),
        config in config_strategy(),
    ) {
        assert_parity(&Case { bursts, burst_len, frame_len, gap_ns, config });
    }
}

/// Deterministic pin of the vector fast path specifically: no reorder,
/// tight back-to-back bursts so releases FIFO-clamp, every other fault
/// family on at once.
#[test]
fn vector_fast_path_with_all_faults_matches_scalar() {
    assert_parity(&Case {
        bursts: 16,
        burst_len: 32,
        frame_len: 64,
        gap_ns: 3_000,
        config: FaultConfig {
            loss: LossModel::Uniform { probability: 0.15 },
            reorder_probability: 0.0,
            reorder_hold: SimDuration::from_us(30),
            duplicate_probability: 0.2,
            corrupt_probability: 0.2,
            corrupt_bits: 3,
            extra_delay: SimDuration::from_ns(800),
            jitter: SimDuration::from_ns(400),
            seed: 0xB0B5,
        },
    });
}

/// Deterministic pin of the Gilbert–Elliott walk across the burst path:
/// the good→burst transition counter and the dropped-in-burst subset
/// must match frame for frame.
#[test]
fn gilbert_elliott_walk_matches_across_paths() {
    assert_parity(&Case {
        bursts: 24,
        burst_len: 16,
        frame_len: 128,
        gap_ns: 10_000,
        config: FaultConfig {
            loss: LossModel::GilbertElliott(GilbertElliott::bursty(0.1, 4.0)),
            seed: 7,
            ..FaultConfig::default()
        },
    });
}

// ---------------------------------------------------------------------
// Dispatch parity: a batch of one is a packet.
//
// A batch-capable forwarder (bounded by its `batch_window`) and a
// batch-capable sink must see exactly what scalar-only twins see — the
// same `(instant, bytes)` sequence, the twin logging `Kernel::now()` in
// `on_packet` — and the kernel must dispatch the same number of events,
// whichever way a run of one arrives: as a `Deliver` or as the head of
// a requeued `DeliverBurst` tail. A batch of one is handled *at* its
// member's instant: only deliveries coalesce, so nothing can move `now`
// past a lone member.
// ---------------------------------------------------------------------

/// What one receiver saw, and in what shape.
#[derive(Debug, Default, Clone, PartialEq)]
struct Seen {
    /// (instant ps, stored length, payload digest) per frame, in order.
    log: Vec<(u64, usize, u32)>,
    /// One-member batches with `now` at the member's instant.
    singletons: u64,
    /// One-member batches whose `now` had moved past the member: must
    /// stay zero (checked for every case in `assert_dispatch_parity`).
    late_singletons: u64,
    /// Batches of two or more.
    multi_batches: u64,
}

/// A receiver that records arrivals and, as a forwarder, relays them
/// out of port 1 after a fixed fabric delay (its `batch_window`).
struct Tap {
    /// Opt into batch delivery, or stay the scalar-only reference.
    batches: bool,
    relay_after: Option<SimDuration>,
    in_fabric: std::collections::VecDeque<Packet>,
    seen: Rc<RefCell<Seen>>,
}

impl Tap {
    fn frame_at(&mut self, k: &mut Kernel, me: ComponentId, at: SimTime, pkt: Packet) {
        self.seen
            .borrow_mut()
            .log
            .push((at.as_ps(), pkt.len(), crc32(pkt.data())));
        if let Some(delay) = self.relay_after {
            self.in_fabric.push_back(pkt);
            k.schedule_timer_at(me, at + delay, 0);
        }
    }
}

impl Component for Tap {
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, _: usize, pkt: Packet) {
        // The scalar twin: `now` is the frame's arrival.
        self.frame_at(k, me, k.now(), pkt);
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        let pkt = self.in_fabric.pop_front().expect("one timer per frame");
        let _ = k.transmit(me, 1, pkt);
    }
    fn wants_packet_batches(&self) -> bool {
        self.batches
    }
    fn batch_window(&self) -> Option<SimDuration> {
        self.relay_after
    }
    fn on_packet_batch(
        &mut self,
        k: &mut Kernel,
        me: ComponentId,
        _: usize,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        {
            let mut seen = self.seen.borrow_mut();
            match batch.len() {
                1 if k.now() > batch[0].0 => seen.late_singletons += 1,
                1 => seen.singletons += 1,
                _ => seen.multi_batches += 1,
            }
        }
        for (t, pkt) in batch.drain(..) {
            self.frame_at(k, me, t, pkt);
        }
    }
}

#[derive(Debug, Clone)]
struct DispatchCase {
    bursts: u32,
    burst_len: u32,
    frame_len: usize,
    gap_ns: u64,
    /// The forwarder's fabric delay and batch window.
    relay_ns: u64,
    /// Propagation of both links.
    prop_ns: u64,
}

/// source → forwarder → sink; returns what forwarder and sink saw and
/// the kernel's event count.
fn run_dispatch(case: &DispatchCase, batches: bool) -> (Seen, Seen, u64) {
    let tap = |relay_after| {
        let seen = Rc::new(RefCell::new(Seen::default()));
        let tap = Tap {
            batches,
            relay_after,
            in_fabric: Default::default(),
            seen: seen.clone(),
        };
        (Box::new(tap), seen)
    };
    let mut b = SimBuilder::new();
    let src = b.add_component(
        "src",
        Box::new(BurstSource {
            bursts: case.bursts,
            burst_len: case.burst_len,
            frame_len: case.frame_len,
            gap: SimDuration::from_ns(case.gap_ns),
            emitted: 0,
        }),
        1,
    );
    let (fwd, fwd_seen) = tap(Some(SimDuration::from_ns(case.relay_ns)));
    let (sink, sink_seen) = tap(None);
    let fwd = b.add_component("fwd", fwd, 2);
    let sink = b.add_component("sink", sink, 1);
    let spec = LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(case.prop_ns));
    b.connect(src, 0, fwd, 0, spec);
    b.connect(fwd, 1, sink, 0, spec);
    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(50));
    let events = sim.kernel().events_dispatched();
    let (fwd, sink) = (fwd_seen.borrow().clone(), sink_seen.borrow().clone());
    (fwd, sink, events)
}

/// Run the batch-capable pair against its scalar-only twin; returns
/// what the batch-capable forwarder and sink saw.
fn assert_dispatch_parity(case: &DispatchCase) -> (Seen, Seen) {
    let (fwd_ref, sink_ref, events_ref) = run_dispatch(case, false);
    let (fwd, sink, events) = run_dispatch(case, true);
    let frames = (case.bursts * case.burst_len) as usize;
    assert_eq!(fwd_ref.log.len(), frames, "harness lost frames: {case:?}");
    assert_eq!(fwd.log, fwd_ref.log, "forwarder diverged: {case:?}");
    assert_eq!(sink.log, sink_ref.log, "sink diverged: {case:?}");
    assert_eq!(events, events_ref, "event count diverged: {case:?}");
    assert_eq!(
        (fwd.late_singletons, sink.late_singletons),
        (0, 0),
        "a batch of one handled after its member's instant: {case:?}"
    );
    (fwd, sink)
}

proptest! {
    #[test]
    fn batch_capable_receivers_match_scalar_twins(
        bursts in 1u32..10,
        burst_len in 1u32..40,
        frame_len in (0usize..3).prop_map(|i| [64usize, 128, 1518][i]),
        gap_ns in (0usize..5).prop_map(|i| [100u64, 150, 900, 5_000, 60_000][i]),
        relay_ns in (0usize..4).prop_map(|i| [20u64, 100, 900, 4_000][i]),
        prop_ns in (0usize..3).prop_map(|i| [1u64, 10, 200][i]),
    ) {
        assert_dispatch_parity(&DispatchCase { bursts, burst_len, frame_len, gap_ns, relay_ns, prop_ns });
    }
}

/// Single frames 150 ns apart through a 100 ns fabric: every arrival at
/// the forwarder is a lone `Deliver`, and inside its window the frame
/// relayed before it finishes leaving the forwarder's MAC. That
/// completion stays with the port, so each one-member batch is handled
/// with `now` at its member's arrival.
#[test]
fn a_batch_of_one_is_handled_at_its_members_instant() {
    let (fwd, sink) = assert_dispatch_parity(&DispatchCase {
        bursts: 200,
        burst_len: 1,
        frame_len: 64,
        gap_ns: 150,
        relay_ns: 100,
        prop_ns: 10,
    });
    assert_eq!(fwd.singletons, 200);
    assert_eq!(fwd.multi_batches, 0);
    assert_eq!(
        sink.singletons, 200,
        "the next relay timer always intervenes"
    );
}

/// Bursts of 32 through a fabric faster than the frame spacing: the
/// forwarder's own release timers fall between members, so the burst is
/// drained one requeued tail at a time and every member is a run of one.
#[test]
fn burst_tails_are_drained_member_by_member() {
    let (fwd, sink) = assert_dispatch_parity(&DispatchCase {
        bursts: 8,
        burst_len: 32,
        frame_len: 128,
        gap_ns: 60_000,
        relay_ns: 100,
        prop_ns: 10,
    });
    assert_eq!(fwd.singletons, 256);
    assert_eq!(fwd.multi_batches, 0);
    assert_eq!(sink.log.len(), 256);
}

/// The same bursts through a slow fabric: members do coalesce, so the
/// batch machinery still runs where it pays, beside runs of one at the
/// window edges.
#[test]
fn real_batches_still_form_inside_the_window() {
    let (fwd, sink) = assert_dispatch_parity(&DispatchCase {
        bursts: 8,
        burst_len: 32,
        frame_len: 128,
        gap_ns: 60_000,
        relay_ns: 900,
        prop_ns: 10,
    });
    assert!(fwd.multi_batches >= 8, "{fwd:?}");
    assert!(fwd.singletons > 0, "{fwd:?}");
    assert_eq!(sink.log.len(), 256);
}
