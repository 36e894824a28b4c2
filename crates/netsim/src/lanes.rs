//! The kernel's event queue: FIFO lanes for what arrives in order,
//! merged with a fall-back heap that takes everything else.
//!
//! Almost nothing a simulation schedules needs a priority queue. A wire
//! delivers in the order its MAC sent; a generator's departure timer, a
//! switch's CPU-done timer and a link's release timer each move forward
//! in time. So every source gets a few plain `VecDeque`s — one lane per
//! output port for its deliveries, [`TIMER_LANES`] for its timers — and
//! an entry that is ordered after a lane's back is appended to it and
//! never sorted or sifted. The order *is* checked, on every push,
//! against the lane's back; an entry that fits none of its source's
//! lanes goes to the fall-back, a binary heap over all such entries
//! (a reordering link's held-back releases, the tail of a split burst;
//! see `crate::wheel` for the type and its name).
//!
//! Popping merges: each lane is sorted, so the earliest lane entry is
//! among the lane fronts, and a small binary heap holds one
//! `(time, key, lane)` per non-empty lane. The queue's head is the
//! smaller of that heap's top and the fall-back's — exactly ascending
//! `(time, key)`, the order a single priority queue over all entries
//! would produce. Where an entry waits is therefore unobservable; the
//! proptest below holds the merge to a reference heap.
//!
//! Scheduling, which happens inside component handlers, never touches
//! the heap of fronts: a push that wakes an empty lane notes the lane's
//! new front on a list, and the dispatch loop enters the noted fronts
//! when it next looks at the head. (Pushing onto the heap where the lane
//! wakes is less code and about 4 % faster on a dense data path, but the
//! benchmark's traced run then fails its span check; EXPERIMENTS.md
//! "PR 23".)

use crate::stats::QueueCounts;
use crate::wheel::TimerWheel;
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

/// One lane: `(ps, key, item)` in strictly ascending `(ps, key)`.
type Lane<T> = VecDeque<(u64, u64, T)>;

/// The front of a non-empty lane: `(ps, key, lane)`.
type Front = (u64, u64, usize);

/// See the module documentation.
pub(crate) struct LaneQueue<T> {
    /// Entries that were in order for no lane of their source.
    fallback: TimerWheel<T>,
    lanes: Vec<Lane<T>>,
    /// Index of each source's first lane: its timer lanes, then one lane
    /// per output port.
    first_lane: Vec<usize>,
    /// The front of every non-empty lane but the `woken` ones, smallest
    /// on top.
    heads: BinaryHeap<Reverse<Front>>,
    /// Lanes that went from empty to non-empty since the last look at
    /// the head: not in `heads` yet.
    woken: Vec<Front>,
    /// Entries in `lanes`.
    in_lanes: usize,
    counts: QueueCounts,
}

impl<T> LaneQueue<T> {
    pub(crate) fn new() -> Self {
        LaneQueue {
            fallback: TimerWheel::new(),
            lanes: Vec::new(),
            first_lane: Vec::new(),
            heads: BinaryHeap::new(),
            woken: Vec::new(),
            in_lanes: 0,
            counts: QueueCounts::default(),
        }
    }

    /// Lanes for the next source (sources are numbered in the order
    /// they are added), which has `n_ports` output ports.
    pub(crate) fn add_source(&mut self, n_ports: usize) {
        self.first_lane.push(self.lanes.len());
        self.lanes
            .resize_with(self.lanes.len() + TIMER_LANES + n_ports, VecDeque::new);
    }

    /// An empty queue with this one's lane layout.
    pub(crate) fn empty_like(&self) -> Self {
        let mut q = LaneQueue::new();
        q.lanes.resize_with(self.lanes.len(), VecDeque::new);
        q.first_lane = self.first_lane.clone();
        q
    }

    /// Schedule a timer of `src`: onto the first of its timer lanes the
    /// entry is in order for, otherwise onto the fall-back heap.
    #[inline]
    pub(crate) fn push_timer(&mut self, src: usize, time: SimTime, key: u64, item: T) {
        let first = self.first_lane[src];
        self.push_first_fit(first..first + TIMER_LANES, time, key, item);
    }

    /// Schedule a delivery over the wire out of (`src`, `port`): onto
    /// that port's lane when in order, otherwise onto the fall-back heap.
    #[inline]
    pub(crate) fn push_wire(&mut self, src: usize, port: usize, time: SimTime, key: u64, item: T) {
        let lane = self.first_lane[src] + TIMER_LANES + port;
        self.push_first_fit(lane..lane + 1, time, key, item);
    }

    /// Schedule on the fall-back heap, for an entry with no claim to be
    /// in order behind anything (the tail of a split burst).
    pub(crate) fn push_unordered(&mut self, time: SimTime, key: u64, item: T) {
        self.counts.wheel_pushes += 1;
        self.fallback.push(time, key, item);
    }

    #[inline]
    fn push_first_fit(&mut self, lanes: std::ops::Range<usize>, time: SimTime, key: u64, item: T) {
        let ps = time.as_ps();
        for lane in lanes {
            let entries = &mut self.lanes[lane];
            match entries.back() {
                // A front that does not change needs no heap traffic.
                Some(&(back_ps, back_key, _)) if (back_ps, back_key) < (ps, key) => {}
                Some(_) => continue,
                None => self.woken.push((ps, key, lane)),
            }
            entries.push_back((ps, key, item));
            self.in_lanes += 1;
            self.counts.lane_pushes += 1;
            return;
        }
        self.push_unordered(time, key, item);
    }

    /// The earliest lane entry, as `(position, lane)`.
    #[inline]
    fn lane_head(&mut self) -> Option<(Pos, usize)> {
        while let Some(front) = self.woken.pop() {
            self.heads.push(Reverse(front));
        }
        self.heads
            .peek()
            .map(|&Reverse((ps, key, lane))| ((ps, key), lane))
    }

    /// The earliest fall-back entry.
    #[inline]
    fn fallback_head(&self) -> Option<Pos> {
        self.fallback.peek().map(|(t, key)| (t.as_ps(), key))
    }

    /// The lane holding the queue's head and that head's time, or `None`
    /// when the fall-back holds it (or the queue is empty).
    #[inline]
    fn head_lane(&mut self) -> Option<(u64, usize)> {
        let (pos, lane) = self.lane_head()?;
        match self.fallback_head() {
            Some(w) if w < pos => None,
            _ => Some((pos.0, lane)),
        }
    }

    /// Take the front of `lane`, which the top of `heads` stands for.
    fn pop_lane(&mut self, lane: usize) -> (SimTime, u64, T) {
        let entries = &mut self.lanes[lane];
        let (ps, key, item) = entries
            .pop_front()
            .expect("a head entry per non-empty lane");
        let mut top = self.heads.peek_mut().expect("the lane's head entry");
        debug_assert_eq!(top.0, (ps, key, lane));
        match entries.front() {
            // Re-seats the lane in one sift when `top` drops.
            Some(&(next_ps, next_key, _)) => top.0 = (next_ps, next_key, lane),
            None => {
                PeekMut::pop(top);
            }
        }
        self.in_lanes -= 1;
        (SimTime::from_ps(ps), key, item)
    }

    /// Earliest pending `(time, key)`, without removing it.
    pub(crate) fn peek(&mut self) -> Option<(SimTime, u64)> {
        let lanes = self.lane_head().map(|(pos, _)| pos);
        let head = match (lanes, self.fallback_head()) {
            (Some(l), Some(w)) => l.min(w),
            (l, w) => l.or(w)?,
        };
        Some((SimTime::from_ps(head.0), head.1))
    }

    /// Like [`LaneQueue::peek`], with a borrow of the earliest item.
    pub(crate) fn peek_item(&mut self) -> Option<(SimTime, u64, &T)> {
        match self.head_lane() {
            Some((_, lane)) => {
                let (ps, key, item) = self.lanes[lane].front().expect("head of a non-empty lane");
                Some((SimTime::from_ps(*ps), *key, item))
            }
            None => self.fallback.peek_item(),
        }
    }

    /// Remove and return the earliest pending item.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Remove and return the earliest pending item if it fires at or
    /// before `limit`.
    pub(crate) fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, T)> {
        match self.head_lane() {
            Some((ps, lane)) => (ps <= limit.as_ps()).then(|| self.pop_lane(lane)),
            None => self.fallback.pop_at_or_before(limit),
        }
    }

    /// Number of pending items, lanes and fall-back together.
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

    type Reference = BinaryHeap<Reverse<(u64, u64)>>;

    /// Peek, peek the item, try a limit just short of the head, then
    /// pop: every view of the queue's head must be the reference's.
    fn check_pop(q: &mut LaneQueue<u64>, reference: &mut Reference) -> Result<Pos, TestCaseError> {
        let Reverse(want) = reference.pop().expect("caller checked");
        let peeked = q.peek().expect("queue tracks the heap");
        prop_assert_eq!((peeked.0.as_ps(), peeked.1), want);
        let (t, key, item) = q.peek_item().expect("queue tracks the heap");
        prop_assert_eq!((t.as_ps(), key, *item), (want.0, want.1, want.1));
        if want.0 > 0 {
            let short = SimTime::from_ps(want.0 - 1);
            prop_assert!(q.pop_at_or_before(short).is_none());
        }
        let (t, key, item) = q
            .pop_at_or_before(SimTime::from_ps(want.0))
            .expect("due at the limit");
        prop_assert_eq!((t.as_ps(), key, item), (want.0, want.1, want.1));
        Ok(want)
    }

    proptest! {
        /// Random interleaved pushes and pops over 1–6 sources of 2
        /// ports each, against a `BinaryHeap` on `(ps, key)`. Per-source
        /// times are mostly increasing (what lanes are for), with
        /// regressions back towards `now`, ties on `now` (also under a
        /// key below the one just popped, as a zero-delay release on a
        /// two-way link is), parks 100 ms ahead of a µs-scale stream,
        /// times anywhere in 28 simulated hours, and pushes that bypass
        /// the lanes like a requeued burst tail. Then `bulk` more of
        /// those on a few instants, so the fall-back alone holds
        /// hundreds of same-instant ties, and everything is drained.
        #[test]
        fn merge_matches_a_reference_heap(
            sources in 1usize..=6,
            ops in proptest::collection::vec(
                (any::<u8>(), 0usize..6, 0u8..6, 0u8..11, any::<u64>()),
                1..600,
            ),
            bulk in proptest::collection::vec(0u64..50, 0..400),
        ) {
            let mut q = LaneQueue::new();
            for _ in 0..sources {
                q.add_source(2);
            }
            let mut reference = Reference::new();
            // The time of the last pop: like the kernel, the schedule
            // never pushes before it.
            let mut now = 0u64;
            // Each source's latest scheduled time and next sequence
            // number (keys are unique and increase per source, as the
            // kernel's do).
            let mut last = vec![0u64; sources];
            let mut seq = vec![0u64; sources];
            for (kind, source, route, shape, raw) in ops {
                if kind % 5 >= 3 {
                    if reference.is_empty() {
                        prop_assert!(q.pop().is_none());
                    } else {
                        now = check_pop(&mut q, &mut reference)?.0;
                    }
                } else {
                    let source = source % sources;
                    let ahead = last[source].max(now);
                    let key = ((source as u64) << 40) | seq[source];
                    seq[source] += 1;
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
                    match route {
                        0..=2 => q.push_timer(source, time, key, key),
                        3..=4 => q.push_wire(source, usize::from(route - 3), time, key, key),
                        // A requeued burst tail.
                        _ => q.push_unordered(time, key, key),
                    }
                    reference.push(Reverse((ps, key)));
                }
                prop_assert_eq!(q.len(), reference.len());
                let counts = q.counts();
                let pushed: u64 = seq.iter().sum();
                prop_assert_eq!(counts.lane_pushes + counts.wheel_pushes, pushed);
            }
            for (i, ns) in bulk.into_iter().enumerate() {
                let (ps, key) = (now + ns * 1_000, (7 << 40) | i as u64);
                q.push_unordered(SimTime::from_ps(ps), key, key);
                reference.push(Reverse((ps, key)));
            }
            while !reference.is_empty() {
                check_pop(&mut q, &mut reference)?;
                prop_assert_eq!(q.len(), reference.len());
            }
            prop_assert!(q.pop().is_none());
        }
    }

    #[test]
    fn in_order_pushes_stay_in_lanes_and_regressions_reach_the_wheel() {
        let at = SimTime::from_ns;
        let mut q = LaneQueue::new();
        q.add_source(1);
        // Two interleaved in-order timer streams and a park: three lanes.
        for (i, ns) in [10, 1_000, 100_000_000, 20, 1_010, 30, 1_020]
            .into_iter()
            .enumerate()
        {
            q.push_timer(0, at(ns), i as u64, ns);
        }
        // A wire is one lane: the second delivery is behind the first.
        q.push_wire(0, 0, at(500), 7, 500);
        q.push_wire(0, 0, at(400), 8, 400);
        let counts = q.counts();
        assert_eq!((counts.lane_pushes, counts.wheel_pushes), (8, 1));
        assert_eq!(q.len(), 9);

        let shape = q.empty_like();
        assert_eq!((shape.len(), shape.lanes.len()), (0, q.lanes.len()));
        assert_eq!(shape.counts(), QueueCounts::default());

        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.2).collect();
        assert_eq!(
            order,
            [10, 20, 30, 400, 500, 1_000, 1_010, 1_020, 100_000_000]
        );
        assert_eq!(q.len(), 0);
    }
}
