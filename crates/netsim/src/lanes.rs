//! The kernel's event queue: FIFO lanes typed by what they carry, merged
//! with a fall-back heap that takes everything else.
//!
//! Almost nothing a simulation schedules needs a priority queue. A wire
//! delivers in the order its MAC sent; a generator's departure timer, a
//! switch's CPU-done timer and a link's release timer each move forward
//! in time. So every source gets a few plain `VecDeque`s, and an entry
//! that is ordered after a lane's back is appended to it and never
//! sorted or sifted. The order *is* checked, on every push, against the
//! lane's back; an entry that fits none of its source's lanes goes to
//! the fall-back, a binary heap over all such entries (a reordering
//! link's held-back releases, the tail of a split burst; see
//! `crate::wheel` for the type and its name).
//!
//! A lane belongs to one source and holds one kind of payload, so whom
//! an entry goes to is the lane's, not the entry's:
//! - a source's [`TIMER_LANES`] timer lanes hold `(ps, key, tag)`, and
//!   fire at the source;
//! - each output port has a frame lane — `(ps, key)` positions and
//!   [`Packet`]s in two deques side by side — and a burst lane; both
//!   deliver to the far end of the port's wire
//!   ([`LaneQueue::connect`]).
//!
//! No lane holds an enum, and nothing the event path pushes, pops or
//! returns is wider than two machine words, so an entry is built where it
//! is stored and travels in registers (DESIGN.md §5b, "What an event
//! costs"). Only the fall-back stores an [`EventKind`], which names its
//! destination.
//!
//! Taking an event is two steps. [`LaneQueue::next_due`] finds the head:
//! each lane is sorted, so the earliest lane entry is among the lane
//! fronts, and a small binary heap holds one `(time, key, lane)` per
//! non-empty lane; the head is the smaller of that heap's top and the
//! fall-back's — exactly ascending `(time, key)`, the order a single
//! priority queue over all entries would produce. It notes where the
//! head waits, and the caller dispatches on [`LaneQueue::due`] and takes
//! the payload with the matching `take_*`. Where an entry waits is
//! unobservable; the proptest below holds the merge to a reference heap.
//!
//! Scheduling, which happens inside component handlers, never touches
//! the heap of fronts: a push that wakes an empty lane notes the lane's
//! new front on a list, and the dispatch loop enters the noted fronts
//! when it next looks at the head. (Pushing onto the heap where the lane
//! wakes is less code and about 4 % faster on a dense data path, but the
//! benchmark's traced run then fails its span check; EXPERIMENTS.md
//! "PR 23".)

use crate::burst::PacketBurst;
use crate::component::ComponentId;
use crate::event::EventKind;
use crate::stats::QueueCounts;
use crate::wheel::TimerWheel;
use osnt_packet::Packet;
use osnt_time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Timer lanes per source, tried first to last. A component's timers
/// are several in-order streams interleaved — the OpenFlow switch arms
/// forward, CPU-done, hardware-commit and barrier-reply timers, and
/// parks a 100 ms expiry scan at the back of whichever lane took it —
/// and each stream needs a lane of its own to stay out of the fall-back
/// heap. Measured on the benchmark's four workloads (EXPERIMENTS.md
/// "PR 23"): with four lanes none of them pushes a timer to the
/// fall-back; with three `p2_consistency` falls back on 10 % of its
/// pushes; with two `p2_churn` falls back on 29 %.
const TIMER_LANES: usize = 4;

/// A position in the total event order, `(time in ps, key)`.
type Pos = (u64, u64);

/// The front of a non-empty lane: `(ps, key, lane id)`.
type Front = (u64, u64, usize);

// A lane id is the lane's index among the lanes of its kind, shifted
// left by two, with the kind in the low two bits.
const TIMER: usize = 0;
const FRAME: usize = 1;
const BURST: usize = 2;
/// What `due` holds when the fall-back has the head.
const FALLBACK: usize = 3;
const KIND: usize = 3;

/// Where the head [`LaneQueue::next_due`] found waits, and so which
/// `take_*` takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    /// [`LaneQueue::take_timer`].
    Timer,
    /// [`LaneQueue::take_frame`], to [`LaneQueue::to`].
    Frame,
    /// [`LaneQueue::take_burst`], to [`LaneQueue::to`].
    Burst,
    /// [`LaneQueue::take_fallback`].
    Fallback,
}

/// The two lanes of one output port, each in strictly ascending
/// `(ps, key)`.
struct PortLanes {
    /// The frame lane's positions ...
    at: VecDeque<Pos>,
    /// ... and its frames, one per position.
    frames: VecDeque<Packet>,
    /// The burst lane, each burst at its first member's position.
    bursts: VecDeque<Box<PacketBurst>>,
    /// The far end of the port's wire, `(component, input port)`; the
    /// source and port `usize::MAX` until the port is connected.
    peer: (ComponentId, usize),
}

impl PortLanes {
    fn new(peer: (ComponentId, usize)) -> Self {
        PortLanes {
            at: VecDeque::new(),
            frames: VecDeque::new(),
            bursts: VecDeque::new(),
            peer,
        }
    }
}

/// The position a burst is queued at: its first member's.
fn burst_pos(burst: &PacketBurst) -> Pos {
    (burst.first_time().as_ps(), burst.first_key())
}

/// Whether an entry at `pos` may go behind `back` in lane `lane`: only
/// if it is ordered after it. An empty lane takes anything, and its new
/// front is noted in `woken`.
#[inline]
fn fits(back: Option<Pos>, pos: Pos, lane: usize, woken: &mut Vec<Front>) -> bool {
    match back {
        Some(back) => back < pos,
        None => {
            woken.push((pos.0, pos.1, lane));
            true
        }
    }
}

/// See the module documentation.
pub(crate) struct LaneQueue {
    /// Entries that were in order for no lane of their source.
    fallback: TimerWheel<EventKind>,
    /// [`TIMER_LANES`] per source, in source order, each `(ps, key, tag)`
    /// in strictly ascending `(ps, key)`: lane `i` fires at source
    /// `i / TIMER_LANES`.
    timers: Vec<VecDeque<(u64, u64, u64)>>,
    /// One per output port, in source order.
    ports: Vec<PortLanes>,
    /// Index of each source's first port in `ports`.
    first_port: Vec<usize>,
    /// The front of every non-empty lane but the `woken` ones, smallest
    /// on top.
    heads: BinaryHeap<Reverse<Front>>,
    /// Lanes that went from empty to non-empty since the last look at
    /// the head: not in `heads` yet.
    woken: Vec<Front>,
    /// Where the head waits, as [`LaneQueue::next_due`] last found it: a
    /// lane id, or [`FALLBACK`].
    due: usize,
    /// The key of that head.
    due_key: u64,
    /// Entries in lanes.
    in_lanes: usize,
    counts: QueueCounts,
}

impl LaneQueue {
    pub(crate) fn new() -> Self {
        LaneQueue {
            fallback: TimerWheel::new(),
            timers: Vec::new(),
            ports: Vec::new(),
            first_port: Vec::new(),
            heads: BinaryHeap::new(),
            woken: Vec::new(),
            due: FALLBACK,
            due_key: 0,
            in_lanes: 0,
            counts: QueueCounts::default(),
        }
    }

    /// Lanes for the next source (sources are numbered in the order
    /// they are added), which has `n_ports` output ports.
    pub(crate) fn add_source(&mut self, n_ports: usize) {
        let src = ComponentId(self.first_port.len());
        self.first_port.push(self.ports.len());
        self.timers
            .resize_with(self.timers.len() + TIMER_LANES, VecDeque::new);
        self.ports
            .extend((0..n_ports).map(|_| PortLanes::new((src, usize::MAX))));
    }

    /// Point the lanes of (`src`, `port`) at the far end of its wire.
    pub(crate) fn connect(&mut self, src: usize, port: usize, peer: (ComponentId, usize)) {
        self.ports[self.first_port[src] + port].peer = peer;
    }

    /// One more entry went into a lane.
    #[inline]
    fn entered(&mut self) {
        self.in_lanes += 1;
        self.counts.lane_pushes += 1;
    }

    /// Schedule timer `tag` of `src`: onto the first of its timer lanes
    /// the entry is in order for, otherwise onto the fall-back heap.
    #[inline]
    pub(crate) fn push_timer(&mut self, src: usize, time: SimTime, key: u64, tag: u64) {
        let pos = (time.as_ps(), key);
        let first = src * TIMER_LANES;
        for i in first..first + TIMER_LANES {
            let lane = &mut self.timers[i];
            let back = lane.back().map(|&(ps, key, _)| (ps, key));
            if fits(back, pos, i << 2 | TIMER, &mut self.woken) {
                lane.push_back((pos.0, pos.1, tag));
                self.entered();
                return;
            }
        }
        let target = ComponentId(src);
        self.push_unordered(time, key, EventKind::Timer { target, tag });
    }

    /// Schedule the delivery of `packet` over the wire out of (`src`,
    /// `port`): onto that port's frame lane when in order, otherwise
    /// onto the fall-back heap.
    #[inline]
    pub(crate) fn push_frame(
        &mut self,
        src: usize,
        port: usize,
        time: SimTime,
        key: u64,
        packet: Packet,
    ) {
        let pos = (time.as_ps(), key);
        let i = self.first_port[src] + port;
        let lanes = &mut self.ports[i];
        let back = lanes.at.back().copied();
        if fits(back, pos, i << 2 | FRAME, &mut self.woken) {
            lanes.at.push_back(pos);
            lanes.frames.push_back(packet);
            self.entered();
        } else {
            let (dst, port) = lanes.peer;
            self.push_unordered(time, key, EventKind::Deliver { dst, port, packet });
        }
    }

    /// Schedule the delivery of `burst` over the wire out of (`src`,
    /// `port`), at its first member's position: onto that port's burst
    /// lane when in order, otherwise onto the fall-back heap.
    pub(crate) fn push_burst(&mut self, src: usize, port: usize, burst: Box<PacketBurst>) {
        let pos = burst_pos(&burst);
        let i = self.first_port[src] + port;
        let lanes = &mut self.ports[i];
        let back = lanes.bursts.back().map(|b| burst_pos(b));
        if fits(back, pos, i << 2 | BURST, &mut self.woken) {
            lanes.bursts.push_back(burst);
            self.entered();
        } else {
            let (dst, port) = lanes.peer;
            let time = SimTime::from_ps(pos.0);
            self.push_unordered(time, pos.1, EventKind::DeliverBurst { dst, port, burst });
        }
    }

    /// Schedule on the fall-back heap, for an entry with no claim to be
    /// in order behind anything (the tail of a split burst).
    pub(crate) fn push_unordered(&mut self, time: SimTime, key: u64, item: EventKind) {
        self.counts.wheel_pushes += 1;
        self.fallback.push(time, key, item);
    }

    /// The time of the earliest pending entry if it is due at or before
    /// `limit`, without removing it. Notes its key
    /// ([`LaneQueue::due_key`]) and where it waits, for
    /// [`LaneQueue::due`] and the `take_*` that follows; anything pushed
    /// in between needs a new look.
    #[inline]
    pub(crate) fn next_due(&mut self, limit: SimTime) -> Option<SimTime> {
        while let Some(front) = self.woken.pop() {
            self.heads.push(Reverse(front));
        }
        let lanes = self.heads.peek().map(|&Reverse(front)| front);
        let (ps, key, due) = match (lanes, self.fallback.peek()) {
            (Some((ps, key, _)), Some((t, k))) if (t.as_ps(), k) < (ps, key) => {
                (t.as_ps(), k, FALLBACK)
            }
            (None, Some((t, k))) => (t.as_ps(), k, FALLBACK),
            (lanes, _) => lanes?,
        };
        if ps > limit.as_ps() {
            return None;
        }
        self.due = due;
        self.due_key = key;
        Some(SimTime::from_ps(ps))
    }

    /// The key of the head [`LaneQueue::next_due`] found.
    #[inline]
    pub(crate) fn due_key(&self) -> u64 {
        self.due_key
    }

    /// What the head found by [`LaneQueue::next_due`] is.
    #[inline]
    pub(crate) fn due(&self) -> Due {
        match self.due & KIND {
            TIMER => Due::Timer,
            FRAME => Due::Frame,
            BURST => Due::Burst,
            _ => Due::Fallback,
        }
    }

    /// Where the due frame or burst goes: its lane's wire's far end.
    #[inline]
    pub(crate) fn to(&self) -> (ComponentId, usize) {
        debug_assert!(matches!(self.due(), Due::Frame | Due::Burst));
        self.ports[self.due >> 2].peer
    }

    /// Where the due event goes when it is a delivery, wherever it
    /// waits; `None` for a timer.
    pub(crate) fn due_to(&self) -> Option<(ComponentId, usize)> {
        match self.due() {
            Due::Timer => None,
            Due::Frame | Due::Burst => Some(self.to()),
            Due::Fallback => match self.fallback.peek_item()?.2 {
                EventKind::Deliver { dst, port, .. }
                | EventKind::DeliverBurst { dst, port, .. } => Some((*dst, *port)),
                EventKind::Timer { .. } => None,
            },
        }
    }

    /// The due lane gave up its front: re-seat it in `heads` at its next
    /// front, in one sift, or drop it when it ran empty.
    #[inline]
    fn advance(&mut self, next: Option<Pos>) {
        let mut top = self.heads.peek_mut().expect("the due lane's front");
        debug_assert_eq!(top.0 .2, self.due, "a take without next_due");
        match next {
            Some((ps, key)) => top.0 = (ps, key, self.due),
            None => {
                PeekMut::pop(top);
            }
        }
        self.in_lanes -= 1;
    }

    /// Take the due timer: the component it fires at, and its tag.
    #[inline]
    pub(crate) fn take_timer(&mut self) -> (ComponentId, u64) {
        let i = self.due >> 2;
        let lane = &mut self.timers[i];
        let (_, _, tag) = lane.pop_front().expect("the due lane holds the head");
        let next = lane.front().map(|&(ps, key, _)| (ps, key));
        self.advance(next);
        (ComponentId(i / TIMER_LANES), tag)
    }

    /// Take the due frame.
    #[inline]
    pub(crate) fn take_frame(&mut self) -> Packet {
        let lanes = &mut self.ports[self.due >> 2];
        lanes.at.pop_front();
        let packet = lanes
            .frames
            .pop_front()
            .expect("the due lane holds the head");
        let next = lanes.at.front().copied();
        self.advance(next);
        packet
    }

    /// Take the due burst.
    pub(crate) fn take_burst(&mut self) -> Box<PacketBurst> {
        let lanes = &mut self.ports[self.due >> 2];
        let burst = lanes
            .bursts
            .pop_front()
            .expect("the due lane holds the head");
        let next = lanes.bursts.front().map(|b| burst_pos(b));
        self.advance(next);
        burst
    }

    /// Take the due fall-back entry.
    pub(crate) fn take_fallback(&mut self) -> EventKind {
        debug_assert_eq!(self.due, FALLBACK);
        self.fallback.pop().expect("the fall-back holds the head").2
    }

    /// Number of pending entries, lanes and fall-back together.
    pub(crate) fn len(&self) -> usize {
        self.in_lanes + self.fallback.len()
    }

    /// Pushes so far, by where they went.
    pub(crate) fn counts(&self) -> QueueCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// An entry as it leaves the queue, wherever it waited: a timer's
    /// target and tag, or a delivery's destination and payload (a
    /// frame's bytes; a burst's first key and its members' bytes).
    #[derive(Debug, PartialEq, Eq)]
    enum Taken {
        Timer(ComponentId, u64),
        Frame((ComponentId, usize), Vec<u8>),
        Burst((ComponentId, usize), u64, Vec<Vec<u8>>),
    }

    impl Taken {
        /// Where a delivery goes; `None` for a timer.
        fn to(&self) -> Option<(ComponentId, usize)> {
            match self {
                Taken::Timer(..) => None,
                Taken::Frame(to, _) | Taken::Burst(to, ..) => Some(*to),
            }
        }
    }

    fn burst_taken(to: (ComponentId, usize), burst: PacketBurst) -> Taken {
        let key = burst.first_key();
        let members = burst.into_iter().map(|(_, p)| p.into_vec());
        Taken::Burst(to, key, members.collect())
    }

    /// Take the head [`LaneQueue::next_due`] found, the way the dispatch
    /// loop does.
    fn take(q: &mut LaneQueue) -> Taken {
        match q.due() {
            Due::Timer => {
                let (target, tag) = q.take_timer();
                Taken::Timer(target, tag)
            }
            Due::Frame => {
                let to = q.to();
                Taken::Frame(to, q.take_frame().into_vec())
            }
            Due::Burst => {
                let to = q.to();
                burst_taken(to, *q.take_burst())
            }
            Due::Fallback => match q.take_fallback() {
                EventKind::Timer { target, tag } => Taken::Timer(target, tag),
                EventKind::Deliver { dst, port, packet } => {
                    Taken::Frame((dst, port), packet.into_vec())
                }
                EventKind::DeliverBurst { dst, port, burst } => burst_taken((dst, port), *burst),
            },
        }
    }

    /// A frame that names its key in its bytes.
    fn frame(key: u64) -> Packet {
        Packet::from_vec(key.to_le_bytes().to_vec())
    }

    /// A burst of `n` frames from `ps` on, 1 ns apart, keyed from `key`.
    fn burst(ps: u64, key: u64, n: u64) -> Box<PacketBurst> {
        let members = (0..n)
            .map(|i| (SimTime::from_ps(ps + i * 1_000), frame(key + i)))
            .collect();
        Box::new(PacketBurst::new(key, members))
    }

    /// The reference: a heap on `(ps, key)` and what each key must
    /// come out as.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<Pos>>,
        taken: HashMap<u64, Taken>,
    }

    impl Reference {
        fn push(&mut self, pos: Pos, taken: Taken) {
            self.heap.push(Reverse(pos));
            self.taken.insert(pos.1, taken);
        }

        fn head(&self) -> Option<Pos> {
            self.heap.peek().map(|r| r.0)
        }
    }

    /// The head as the queue sees it, with no limit.
    fn head(q: &mut LaneQueue) -> Option<Pos> {
        let t = q.next_due(SimTime::MAX)?;
        Some((t.as_ps(), q.due_key()))
    }

    /// Try a limit just short of the head, then take it at the limit:
    /// its position, where it goes and what it carries must be the
    /// reference's.
    fn check_take(q: &mut LaneQueue, reference: &mut Reference) -> Result<Pos, TestCaseError> {
        let Reverse(want) = reference.heap.pop().expect("caller checked");
        let expect = reference.taken.remove(&want.1).expect("pushed");
        if want.0 > 0 {
            prop_assert!(q.next_due(SimTime::from_ps(want.0 - 1)).is_none());
        }
        let t = q
            .next_due(SimTime::from_ps(want.0))
            .expect("due at the limit");
        prop_assert_eq!((t.as_ps(), q.due_key()), want);
        prop_assert_eq!(q.due_to(), expect.to());
        prop_assert_eq!(take(q), expect);
        Ok(want)
    }

    /// Port `port` of source `src` is wired to this `(component, port)`:
    /// never the source itself.
    fn peer(src: usize, port: usize) -> (ComponentId, usize) {
        (ComponentId(100 + 2 * src + port), 7 - port)
    }

    proptest! {
        /// Random interleaved pushes and takes over 1–6 sources of 2
        /// ports each — timers, frames, bursts and fall-back entries —
        /// against a `BinaryHeap` on `(ps, key)`; after every step the
        /// queue's head is the reference's, and every take hands out the
        /// entry's own destination and payload. Per-source times are
        /// mostly increasing (what lanes are for), with regressions back
        /// towards `now`, ties on `now` (also under a key below the one
        /// just taken, as a zero-delay release on a two-way link is),
        /// parks 100 ms ahead of a µs-scale stream, times anywhere in 28
        /// simulated hours, and pushes that bypass the lanes like a
        /// requeued burst tail. Then `bulk` more of those on a few
        /// instants, so the fall-back alone holds hundreds of
        /// same-instant ties, and everything is drained.
        #[test]
        fn merge_matches_a_reference_heap(
            sources in 1usize..=6,
            ops in proptest::collection::vec(
                (any::<u8>(), 0usize..6, 0u8..7, 0u8..11, any::<u64>()),
                1..600,
            ),
            bulk in proptest::collection::vec(0u64..50, 0..400),
        ) {
            let mut q = LaneQueue::new();
            for src in 0..sources {
                q.add_source(2);
                for port in 0..2 {
                    q.connect(src, port, peer(src, port));
                }
            }
            let mut reference = Reference::default();
            // The time of the last take: like the kernel, the schedule
            // never pushes before it.
            let mut now = 0u64;
            // Each source's latest scheduled time and next sequence
            // number (keys are unique and increase per source, as the
            // kernel's do).
            let mut last = vec![0u64; sources];
            let mut seq = vec![0u64; sources];
            let mut pushed = 0;
            for (kind, source, route, shape, raw) in ops {
                if kind % 5 >= 3 {
                    if reference.heap.is_empty() {
                        prop_assert!(q.next_due(SimTime::MAX).is_none());
                    } else {
                        now = check_take(&mut q, &mut reference)?.0;
                    }
                } else {
                    let source = source % sources;
                    let ahead = last[source].max(now);
                    let key = ((source as u64) << 40) | seq[source];
                    let ps = match shape {
                        // In order: a µs-scale stream.
                        0..=5 => ahead + raw % 2_000_000,
                        // A regression: anywhere from `now` on.
                        6 => now + raw % (ahead - now + 1),
                        // A tie on `now`.
                        7 => now,
                        // A tie on the source's last time.
                        8 => ahead,
                        // A far-future park the stream then runs behind.
                        9 => ahead + 100_000_000_000,
                        // Anywhere up to 10^17 ps.
                        _ => ahead.max(raw % 100_000_000_000_000_000),
                    };
                    if shape < 9 {
                        last[source] = ps;
                    }
                    let time = SimTime::from_ps(ps);
                    let port = usize::from(route & 1);
                    let members = 1 + raw % 3;
                    seq[source] += 1;
                    pushed += 1;
                    let taken = match route {
                        0..=2 => {
                            q.push_timer(source, time, key, raw);
                            Taken::Timer(ComponentId(source), raw)
                        }
                        3..=4 => {
                            q.push_frame(source, port, time, key, frame(key));
                            Taken::Frame(peer(source, port), key.to_le_bytes().to_vec())
                        }
                        _ => {
                            // A burst's members own the keys after its
                            // first.
                            seq[source] += members - 1;
                            let b = burst(ps, key, members);
                            let bytes = (key..key + members).map(|k| k.to_le_bytes().to_vec());
                            let taken = Taken::Burst(peer(source, port), key, bytes.collect());
                            if route == 5 {
                                q.push_burst(source, port, b);
                            } else {
                                // A requeued burst tail.
                                let (dst, port) = peer(source, port);
                                q.push_unordered(time, key, EventKind::DeliverBurst { dst, port, burst: b });
                            }
                            taken
                        }
                    };
                    reference.push((ps, key), taken);
                }
                prop_assert_eq!(head(&mut q), reference.head());
                prop_assert_eq!(q.len(), reference.heap.len());
                let counts = q.counts();
                prop_assert_eq!(counts.lane_pushes + counts.wheel_pushes, pushed);
            }
            for (i, ns) in bulk.into_iter().enumerate() {
                let (ps, key) = (now + ns * 1_000, (7 << 40) | i as u64);
                let target = ComponentId(i % sources);
                let tag = ns;
                q.push_unordered(SimTime::from_ps(ps), key, EventKind::Timer { target, tag });
                reference.push((ps, key), Taken::Timer(target, tag));
            }
            while !reference.heap.is_empty() {
                check_take(&mut q, &mut reference)?;
                prop_assert_eq!(head(&mut q), reference.head());
                prop_assert_eq!(q.len(), reference.heap.len());
            }
            prop_assert!(q.next_due(SimTime::MAX).is_none());
        }
    }

    #[test]
    fn in_order_pushes_stay_in_lanes_and_regressions_reach_the_wheel() {
        let at = SimTime::from_ns;
        let mut q = LaneQueue::new();
        q.add_source(1);
        q.connect(0, 0, (ComponentId(1), 2));
        // Two interleaved in-order timer streams and a park: three lanes.
        for (i, ns) in [10, 1_000, 100_000_000, 20, 1_010, 30, 1_020]
            .into_iter()
            .enumerate()
        {
            q.push_timer(0, at(ns), i as u64, ns);
        }
        // A frame lane is one lane: the second delivery is behind the
        // first. A burst has a lane of its own beside it.
        q.push_frame(0, 0, at(500), 7, frame(500));
        q.push_frame(0, 0, at(400), 8, frame(400));
        q.push_burst(0, 0, burst(at(450).as_ps(), 9, 2));
        let counts = q.counts();
        assert_eq!((counts.lane_pushes, counts.wheel_pushes), (9, 1));
        assert_eq!(q.len(), 10);

        let order: Vec<u64> = std::iter::from_fn(|| {
            q.next_due(SimTime::MAX)?;
            Some(match take(&mut q) {
                Taken::Timer(target, ns) => {
                    assert_eq!(target, ComponentId(0));
                    ns
                }
                Taken::Frame(to, bytes) => {
                    assert_eq!(to, (ComponentId(1), 2));
                    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
                }
                Taken::Burst(to, key, members) => {
                    assert_eq!((to, key, members.len()), ((ComponentId(1), 2), 9, 2));
                    450
                }
            })
        })
        .collect();
        assert_eq!(
            order,
            [10, 20, 30, 400, 450, 500, 1_000, 1_010, 1_020, 100_000_000]
        );
        assert_eq!(q.len(), 0);
    }
}
