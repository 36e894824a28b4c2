//! Where queued events travel: FIFO lanes for what a source schedules
//! in order, the fall-back heap for what it does not.
//!
//! Two runs read [`Kernel::queue_counts`], both with traffic in both
//! directions. A reordering, jittering, duplicating [`FaultyLink`] arms
//! release timers that go backwards in time in more interleaved streams
//! than it has timer lanes, so some of them must fall back — and the
//! arrival log must be the one a kernel with a single priority queue
//! produced (the digest, the event count and the mid-run pending count
//! were recorded before the lanes existed). Across three fault-free
//! hops every source schedules in order and nothing may fall back.

use osnt_netsim::{
    Component, ComponentId, FaultConfig, FaultyLink, Kernel, LinkSpec, Sim, SimBuilder,
};
use osnt_packet::hash::crc32_update;
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const FRAMES: u64 = 3_000;
/// Departure spacing: 64 B at 99 % of 10 GbE line rate, so a 200 ns
/// jitter window holds three frames each way.
const GAP: SimDuration = SimDuration::from_ns(68);

/// `(frames, digest)` over every arrival, in dispatch order: which end
/// it reached, when, and its sequence number.
type ArrivalLog = Rc<RefCell<(u64, u32)>>;

/// One end of the chain, a generator and a recording sink in small: a
/// self-re-arming departure timer sends one sequence-numbered 64 B
/// frame per firing, and every arrival is folded into the shared log.
struct Endpoint {
    /// Frames still to send.
    left: u64,
    log: ArrivalLog,
}

impl Component for Endpoint {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        if self.left > 0 {
            k.schedule_timer(me, SimDuration::ZERO, 0);
        }
    }
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, _: usize, p: Packet) {
        let mut log = self.log.borrow_mut();
        let d = crc32_update(log.1, &(me.index() as u64).to_le_bytes());
        let d = crc32_update(d, &k.now().as_ps().to_le_bytes());
        *log = (log.0 + 1, crc32_update(d, &p.data()[..8]));
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _: u64) {
        let mut p = Packet::zeroed(64);
        p.data_mut()[..8].copy_from_slice(&self.left.to_be_bytes());
        assert!(k.transmit(me, 0, p).is_transmitted());
        self.left -= 1;
        if self.left > 0 {
            k.schedule_timer(me, GAP, 0);
        }
    }
}

/// Endpoint `a` ↔ one `FaultyLink` per entry of `hops` ↔ endpoint `z`.
/// Each end sends [`FRAMES`] frames.
fn chain(hops: Vec<FaultConfig>) -> (Sim, ArrivalLog) {
    let log = ArrivalLog::default();
    let end = || {
        let log = log.clone();
        Box::new(Endpoint { left: FRAMES, log })
    };
    let mut b = SimBuilder::new();
    let mut prev = (b.add_component("a", end(), 1), 0);
    for (i, config) in hops.into_iter().enumerate() {
        let (link, _) = FaultyLink::new(config).expect("valid config");
        let l = b.add_component(&format!("link{i}"), Box::new(link), 2);
        b.connect(prev.0, prev.1, l, 0, LinkSpec::ten_gig());
        prev = (l, 1);
    }
    let z = b.add_component("z", end(), 1);
    b.connect(prev.0, prev.1, z, 0, LinkSpec::ten_gig());
    (b.build(), log)
}

#[test]
fn reordered_releases_fall_back_to_the_wheel_at_the_wheel_only_digest() {
    let faulty = vec![FaultConfig {
        reorder_probability: 0.2,
        reorder_hold: SimDuration::from_us(3),
        duplicate_probability: 0.05,
        jitter: SimDuration::from_ns(200),
        seed: 23,
        ..FaultConfig::default()
    }];
    let (mut sim, log) = chain(faulty);

    // Mid-run, frames are in flight on all four wires and held in the link:
    // lane entries, heap entries and unretired completions all count.
    sim.run_until(SimTime::from_us(100));
    assert_eq!(sim.kernel().pending_events(), 267);
    let mid = sim.kernel().queue_counts();
    assert!(mid.lane_pushes > 0 && mid.wheel_pushes > 0, "{mid:?}");

    sim.run_to_quiescence(100_000);
    assert_eq!(sim.kernel().pending_events(), 0, "drained");
    assert_eq!(*log.borrow(), (6_311, 0xeece_8049), "arrival log");
    assert_eq!(sim.kernel().events_dispatched(), 36_933);

    // Every queued event was pushed exactly once, on one side or the
    // other; a held-back release is behind its lanes' backs.
    let counts = sim.kernel().queue_counts();
    assert!(counts.wheel_pushes > 0, "{counts:?}");
    assert!(counts.lane_pushes > counts.wheel_pushes, "{counts:?}");
}

#[test]
fn three_fault_free_hops_never_touch_the_wheel() {
    // Two-way: a fault-free link releases with zero delay, so a release
    // can be keyed below the delivery that was just popped.
    let (mut sim, log) = chain(vec![FaultConfig::default(); 2]);
    sim.run_until(SimTime::from_us(100));
    assert!(sim.kernel().pending_events() > 0, "frames in flight");
    sim.run_to_quiescence(100_000);
    assert_eq!(sim.kernel().pending_events(), 0, "drained");
    assert_eq!(log.borrow().0, 2 * FRAMES);

    // Per frame: the departure timer, two release timers and three
    // deliveries. Completions are never queued.
    let counts = sim.kernel().queue_counts();
    assert_eq!((counts.lane_pushes, counts.wheel_pushes), (12 * FRAMES, 0));
}
