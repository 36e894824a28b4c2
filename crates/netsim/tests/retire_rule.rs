//! The MAC's retire rule against an independent model.
//!
//! A port's completions are not queue events: the port retires them
//! when it is next asked about its buffer, and must retire exactly the
//! ones ordered before the event being dispatched — by `(time, key)`,
//! not by time alone. Here one buffer-capped port is offered frames by
//! two feeders, one with a component id below the port owner's and one
//! above, so an offer landing exactly on a pending completion's instant
//! finds it still pending (feeder below: the offer is ordered first) or
//! already retired (feeder above). After every offer the kernel's
//! verdict, `tx_queue_bytes` and `PortCounters` are compared with a
//! brute-force model that recomputes the buffer from scratch.

use osnt_netsim::{Component, ComponentId, Kernel, LinkSpec, SimBuilder, TxResult};
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One grid step: 8 bytes at 10 Gb/s. Frame lengths are 8k bytes, so
/// every visible wire time (frame + 8 B preamble), every gap and the
/// propagation delay are whole steps and instants collide often.
const STEP_PS: u64 = 6_400;

fn wire() -> LinkSpec {
    LinkSpec::ten_gig().with_propagation(SimDuration::from_ps(STEP_PS))
}

/// Sends its script: `(gap before the send in steps, frame length)`.
struct Feeder {
    script: Vec<(u64, usize)>,
    next: usize,
}

impl Feeder {
    fn arm(&self, k: &mut Kernel, me: ComponentId) {
        if let Some(&(gap, _)) = self.script.get(self.next) {
            k.schedule_timer(me, SimDuration::from_ps(gap * STEP_PS), 0);
        }
    }
}

impl Component for Feeder {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        self.arm(k, me);
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _: u64) {
        let (_, len) = self.script[self.next];
        self.next += 1;
        assert!(k.transmit(me, 0, Packet::zeroed(len)).is_transmitted());
        self.arm(k, me);
    }
}

/// What the model and the kernel disagreed on, and how often offers hit
/// a pending completion's instant from each side.
#[derive(Debug, Default)]
struct Report {
    offers: u64,
    mismatches: Vec<String>,
    ties_from_below: u64,
    ties_from_above: u64,
}

/// The port owner: forwards every arrival out of capped port 0 and
/// checks the kernel against its own books.
struct Owner {
    cap: usize,
    /// Input port the lower-id feeder is wired to.
    below_port: usize,
    /// `(tx_end, bytes)` of every frame the MAC ever accepted.
    accepted: Vec<(SimTime, usize)>,
    drops: u64,
    report: Rc<RefCell<Report>>,
}

impl Owner {
    /// Bytes in the buffer as an offer from `from_below` at `now` must
    /// find them: accepted frames whose completion `(tx_end, owner key)`
    /// is not before `(now, feeder key)`. Keys order by source id first,
    /// so at equal instants the lower feeder's offer precedes the
    /// completion and the higher feeder's follows it.
    fn occupancy(&self, now: SimTime, from_below: bool) -> usize {
        self.accepted
            .iter()
            .filter(|&&(tx_end, _)| tx_end > now || (tx_end == now && from_below))
            .map(|&(_, bytes)| bytes)
            .sum()
    }
}

impl Component for Owner {
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, pkt: Packet) {
        let now = k.now();
        let from_below = port == self.below_port;
        let len = pkt.frame_len();
        let before = self.occupancy(now, from_below);
        let mut report = self.report.borrow_mut();
        report.offers += 1;
        if self.accepted.iter().any(|&(tx_end, _)| tx_end == now) {
            if from_below {
                report.ties_from_below += 1;
            } else {
                report.ties_from_above += 1;
            }
        }
        let mut check = |what: &str, got: u64, want: u64| {
            if got != want {
                report.mismatches.push(format!(
                    "{what}: kernel {got}, model {want} (offer of {len} B at {now}, from_below {from_below})"
                ));
            }
        };
        check(
            "queue before",
            k.tx_queue_bytes(me, 0) as u64,
            before as u64,
        );

        let fits = before + len <= self.cap;
        match k.transmit(me, 0, pkt) {
            TxResult::Transmitted { delivery, .. } => {
                check("accepted", 1, fits as u64);
                self.accepted.push((delivery - wire().propagation, len));
            }
            TxResult::Dropped => {
                check("dropped", 1, !fits as u64);
                self.drops += 1;
            }
            TxResult::NotConnected => unreachable!("port 0 is wired"),
        }
        let after = self.occupancy(now, from_below);
        check("queue after", k.tx_queue_bytes(me, 0) as u64, after as u64);
        let c = k.counters(me, 0);
        check("tx_frames", c.tx_frames, self.accepted.len() as u64);
        let bytes: usize = self.accepted.iter().map(|&(_, b)| b).sum();
        check("tx_bytes", c.tx_bytes, bytes as u64);
        check("tx_drops", c.tx_drops, self.drops);
    }
}

struct Sink;
impl Component for Sink {
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
}

/// below (id 0) → owner (id 1) ← above (id 2); owner port 0 → sink.
fn run(cap: usize, below: Vec<(u64, usize)>, above: Vec<(u64, usize)>) -> Report {
    let report = Rc::new(RefCell::new(Report::default()));
    let frames = (below.len() + above.len()) as u64;
    let mut b = SimBuilder::new();
    let feeder = |script| Box::new(Feeder { script, next: 0 });
    let lo = b.add_component("below", feeder(below), 1);
    let owner = b.add_component(
        "owner",
        Box::new(Owner {
            cap,
            below_port: 1,
            accepted: Vec::new(),
            drops: 0,
            report: report.clone(),
        }),
        3,
    );
    let hi = b.add_component("above", feeder(above), 1);
    let sink = b.add_component("sink", Box::new(Sink), 1);
    assert!(lo < owner && owner < hi);
    b.connect(lo, 0, owner, 1, wire());
    b.connect(hi, 0, owner, 2, wire());
    b.connect(owner, 0, sink, 0, wire());
    let mut sim = b.build();
    sim.kernel_mut().set_tx_buffer(owner, 0, Some(cap));
    let events = sim.run_to_quiescence(100_000);

    let k = sim.kernel();
    let forwarded = k.counters(owner, 0).tx_frames;
    // A timer, a completion and a delivery per offered frame; a
    // completion and a delivery more per forwarded one.
    assert_eq!(events, 3 * frames + 2 * forwarded);
    assert_eq!(k.pending_events(), 0);
    assert_eq!(k.tx_queue_bytes(owner, 0), 0, "drained");
    assert_eq!(k.counters(sink, 0).rx_frames, forwarded);
    drop(sim);
    Rc::try_unwrap(report).expect("sim dropped").into_inner()
}

fn script() -> impl Strategy<Value = Vec<(u64, usize)>> {
    // Gaps of 0..40 steps (a 64 B frame holds the wire for 10.5) and
    // frames of 64..256 B in 8 B steps.
    proptest::collection::vec((0u64..40, (8usize..33).prop_map(|w| w * 8)), 1..40)
}

proptest! {
    #[test]
    fn every_offer_finds_the_buffer_the_model_computes(
        cap in (0usize..4).prop_map(|i| [64usize, 200, 512, 1_000][i]),
        below in script(),
        above in script(),
    ) {
        let report = run(cap, below, above);
        prop_assert!(report.mismatches.is_empty(), "{:#?}", report.mismatches);
    }
}

/// The two exact ties, built by hand. A 64 B frame is on the wire for
/// 9 steps; the buffer holds one. The second frame is sent 9 steps after
/// the first, so it is offered at the very instant the first completes.
#[test]
fn an_offer_on_a_completions_instant_sees_it_from_its_side_of_the_key_order() {
    // Below first, above second: the completion (owner's key) precedes
    // the offer (above's key) — retired, room again, accepted.
    let report = run(64, vec![(0, 64)], vec![(9, 64)]);
    assert_eq!(report.mismatches, Vec::<String>::new());
    assert_eq!((report.ties_from_below, report.ties_from_above), (0, 1));

    // Above first, below second: the offer precedes the completion —
    // the buffer is still full, tail-drop.
    let report = run(64, vec![(9, 64)], vec![(0, 64)]);
    assert_eq!(report.mismatches, Vec::<String>::new());
    assert_eq!((report.ties_from_below, report.ties_from_above), (1, 0));
}

/// The random scripts do land on completions from both sides (so the
/// property above exercises the key half of the rule, not only the time
/// half).
#[test]
fn random_scripts_hit_ties_from_both_sides() {
    let runner = TestRunner::for_test("random_scripts_hit_ties_from_both_sides");
    let (mut below, mut above, mut offers) = (0, 0, 0);
    for case in 0..64 {
        let mut rng = runner.rng_for(case);
        let (lo, hi) = (script().generate(&mut rng), script().generate(&mut rng));
        let report = run(200, lo, hi);
        assert_eq!(report.mismatches, Vec::<String>::new());
        below += report.ties_from_below;
        above += report.ties_from_above;
        offers += report.offers;
    }
    assert!(
        below >= 10 && above >= 10,
        "{below}+{above} ties in {offers} offers"
    );
}
