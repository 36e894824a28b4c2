//! Regression: two frames that depart **different shards inside the
//! same lookahead window** and arrive at one component at the **same
//! instant** must be delivered in a deterministic order — ascending
//! timestamp, then ascending source component id (the shard-invariant
//! tiebreak; with one component per source shard this is exactly
//! timestamp-then-shard-id). The failure mode this pins down: a naive
//! parallel kernel delivers same-instant cross-shard arrivals in ring
//! drain order, which depends on thread scheduling.

use osnt_netsim::{Component, ComponentId, Kernel, LinkSpec, ShardPlan, SimBuilder};
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Fires one frame at a fixed instant.
struct OneShot {
    at: SimTime,
    frame_len: usize,
}

impl Component for OneShot {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        k.schedule_timer_at(me, self.at, 0);
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        let _ = k.transmit(me, 0, Packet::zeroed(self.frame_len));
    }
}

/// Records (arrival ps, rx port) in delivery order.
struct OrderSink {
    log: Rc<RefCell<Vec<(u64, usize)>>>,
}

impl Component for OrderSink {
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, port: usize, _: Packet) {
        self.log.borrow_mut().push((k.now().as_ps(), port));
    }
}

/// Identical sources A and B on different shards, both wired (same
/// spec, same frame size, same departure instant) to a sink on a third
/// shard: their frames arrive at exactly the same picosecond.
type ArrivalLog = Rc<RefCell<Vec<(u64, usize)>>>;

fn build_tie(n_shards: usize) -> (osnt_netsim::ShardedSim, ArrivalLog) {
    let mut b = SimBuilder::new();
    let at = SimTime::from_ns(500);
    let a = b.add_component("src-a", Box::new(OneShot { at, frame_len: 64 }), 1);
    let c = b.add_component("src-b", Box::new(OneShot { at, frame_len: 64 }), 1);
    let log = Rc::new(RefCell::new(Vec::new()));
    let sink = b.add_component("sink", Box::new(OrderSink { log: log.clone() }), 2);
    // 10 ns propagation on both: lookahead = 10 ns, and both frames
    // depart inside one window (they depart at the same instant).
    b.connect(a, 0, sink, 0, LinkSpec::ten_gig());
    b.connect(c, 0, sink, 1, LinkSpec::ten_gig());
    let mut plan = ShardPlan::new(3, n_shards);
    plan.assign(a, 0);
    plan.assign(c, 1 % n_shards);
    plan.assign(sink, 2 % n_shards);
    (b.build_sharded(plan), log)
}

#[test]
fn same_instant_cross_shard_arrivals_order_by_source_id() {
    // Single-threaded reference.
    let reference = {
        let (mut sim, log) = build_tie(1);
        sim.run_until(SimTime::from_us(10));
        let r = log.borrow().clone();
        r
    };
    assert_eq!(reference.len(), 2);
    assert_eq!(
        reference[0].0, reference[1].0,
        "test premise: both frames arrive at the same instant"
    );
    // Deterministic tiebreak: source A (lower component id / shard 0)
    // delivered to port 0 first, then B to port 1.
    assert_eq!(reference[0].1, 0);
    assert_eq!(reference[1].1, 1);

    // Every parallel cut replays the identical delivery sequence, no
    // matter which worker's ring drains first. Repeat each shape a few
    // times so a scheduling-dependent bug cannot hide behind one lucky
    // interleaving.
    for shards in [2, 3] {
        for _ in 0..10 {
            let (mut sim, log) = build_tie(shards);
            sim.run_until(SimTime::from_us(10));
            assert_eq!(
                *log.borrow(),
                reference,
                "tie order diverged at {shards} shards"
            );
        }
    }
}

/// Same scenario but with the departure instants one serialisation
/// slot apart: ordering must follow timestamps first, source id only
/// on exact ties.
#[test]
fn timestamp_order_dominates_source_id() {
    let build = |n_shards: usize| {
        let mut b = SimBuilder::new();
        // Higher-id source departs *earlier* — its frame must still
        // arrive first.
        let a = b.add_component(
            "late-src",
            Box::new(OneShot {
                at: SimTime::from_ns(1000),
                frame_len: 64,
            }),
            1,
        );
        let c = b.add_component(
            "early-src",
            Box::new(OneShot {
                at: SimTime::from_ns(100),
                frame_len: 64,
            }),
            1,
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = b.add_component("sink", Box::new(OrderSink { log: log.clone() }), 2);
        b.connect(a, 0, sink, 0, LinkSpec::ten_gig());
        b.connect(c, 0, sink, 1, LinkSpec::ten_gig());
        let mut plan = ShardPlan::new(3, n_shards);
        plan.assign(a, 0);
        plan.assign(c, 1 % n_shards);
        plan.assign(sink, 2 % n_shards);
        (b.build_sharded(plan), log)
    };
    let reference = {
        let (mut sim, log) = build(1);
        sim.run_until(SimTime::from_us(10));
        let r = log.borrow().clone();
        r
    };
    assert_eq!(reference.len(), 2);
    assert_eq!(reference[0].1, 1, "earlier departure delivered first");
    assert!(reference[0].0 < reference[1].0);
    for shards in [2, 3] {
        let (mut sim, log) = build(shards);
        sim.run_until(SimTime::from_us(10));
        assert_eq!(*log.borrow(), reference);
    }
}

/// Lookahead is derived from the *minimum* cross-shard propagation
/// delay when links differ.
#[test]
fn lookahead_is_min_cross_shard_propagation() {
    let mut b = SimBuilder::new();
    let a = b.add_component(
        "a",
        Box::new(OneShot {
            at: SimTime::ZERO,
            frame_len: 64,
        }),
        1,
    );
    let log = Rc::new(RefCell::new(Vec::new()));
    let sink = b.add_component("s", Box::new(OrderSink { log: log.clone() }), 2);
    let c = b.add_component(
        "c",
        Box::new(OneShot {
            at: SimTime::ZERO,
            frame_len: 64,
        }),
        1,
    );
    b.connect_asym(
        a,
        0,
        sink,
        0,
        LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(40)),
        LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(25)),
    );
    b.connect(
        c,
        0,
        sink,
        1,
        LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(7)),
    );
    let mut plan = ShardPlan::new(3, 2);
    plan.assign(a, 0);
    plan.assign(c, 0);
    plan.assign(sink, 1);
    let sim = b.build_sharded(plan);
    for (from, to) in [(0, 1), (1, 0)] {
        assert_eq!(
            sim.lookahead_between(from, to),
            Some(SimDuration::from_ns(7))
        );
    }
}
