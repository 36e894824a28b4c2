//! Hierarchical timer wheel: the kernel queue's fall-back for events
//! that are out of order for every FIFO lane of their source.
//!
//! The kernel's queue (`crate::lanes`) keeps what a source schedules in
//! order — nearly everything — in plain FIFO lanes, and merges them with
//! this wheel, which takes the rest: a reordering link's held-back
//! releases, the tail of a burst split at dispatch. A frame therefore
//! normally costs the wheel nothing; what does land here is a general
//! `(time, seq)` priority queue's job. A `BinaryHeap` pays `O(log n)`
//! compares *and* sift traffic per operation over every pending event;
//! a hierarchical timer wheel exploits the DES access pattern — time
//! only moves forward, and events land near the cursor — to make push
//! and pop amortised `O(1)` for dense traffic. Sparse traffic is its
//! weak side (an event tens of µs ahead lands on level 1–2 and is
//! cascaded down slot by slot before it can pop), which is what the
//! lanes in front of it are for.
//!
//! # Shape
//!
//! Four levels of 256 slots each over pico-second event times, with the
//! finest slot covering `2^13` ps = 8.192 ns (of the order of one
//! minimum-frame wire slot at 10 Gb/s):
//!
//! | level | slot width | level span |
//! |-------|------------|------------|
//! | 0     | 8.192 ns   | ~2.1 µs    |
//! | 1     | ~2.1 µs    | ~537 µs    |
//! | 2     | ~537 µs    | ~137 ms    |
//! | 3     | ~137 ms    | ~35 s      |
//!
//! Events beyond the top level's horizon go to a small overflow
//! min-heap and migrate onto the wheel when the horizon advances —
//! so arbitrarily far-future timers still work, they just pay the heap
//! price their rarity deserves.
//!
//! Slots are tracked by *absolute* slot number (`time >> shift(level)`),
//! with per-level occupancy bitmaps so finding the next busy slot scans
//! words, not slots. The slot at the cursor is drained into a sorted
//! *batch* and consumed back-to-front; same-slot pushes during dispatch
//! (zero-delay timers, intra-slot chains) are insertion-sorted into the
//! batch.
//!
//! # Determinism
//!
//! [`TimerWheel`] dispatches in exactly ascending `(time, seq)` order —
//! byte-for-byte the order a `BinaryHeap` produces, including
//! same-instant ties (callers supply a unique `seq` per push). `tests/wheel_order.rs`
//! holds a property test pinning the equivalence against a reference
//! heap under randomized interleaved push/pop schedules.
//!
//! Callers must never push an event earlier than the last popped one
//! (the kernel's "no scheduling in the past" invariant); the wheel
//! debug-asserts this.

use osnt_time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the finest slot width in picoseconds (8.192 ns).
const BASE_SHIFT: u32 = 13;
/// log2 of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels; beyond level `LEVELS-1` events overflow to a heap.
const LEVELS: usize = 4;
/// Bitmap words per level (256 slots / 64 bits).
const BM_WORDS: usize = SLOTS / 64;

/// Absolute-slot shift for `level`.
#[inline]
const fn shift(level: usize) -> u32 {
    BASE_SHIFT + SLOT_BITS * level as u32
}

struct Entry<T> {
    ps: u64,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.ps, self.seq)
    }
}

/// Overflow-heap entry: min-heap via reversed `Ord` on `(ps, seq)`.
struct Overflow<T>(Entry<T>);

impl<T> PartialEq for Overflow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for Overflow<T> {}
impl<T> PartialOrd for Overflow<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Overflow<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

struct Level<T> {
    slots: Vec<Vec<Entry<T>>>,
    /// One bit per slot: set iff the slot vec is non-empty.
    bitmap: [u64; BM_WORDS],
    /// Entries resident in this level (lets the refill walk skip empty
    /// levels without touching their bitmaps).
    count: usize,
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            bitmap: [0; BM_WORDS],
            count: 0,
        }
    }

    #[inline]
    fn put(&mut self, abs_slot: u64, e: Entry<T>) {
        let idx = (abs_slot & SLOT_MASK) as usize;
        self.slots[idx].push(e);
        self.bitmap[idx >> 6] |= 1 << (idx & 63);
        self.count += 1;
    }

    /// Move a slot's contents into `into` (which must be empty) by
    /// swapping the vecs, so allocations circulate between the slots and
    /// the caller's buffer instead of being freed and re-made per slot.
    #[inline]
    fn take_into(&mut self, abs_slot: u64, into: &mut Vec<Entry<T>>) {
        debug_assert!(into.is_empty());
        let idx = (abs_slot & SLOT_MASK) as usize;
        self.bitmap[idx >> 6] &= !(1 << (idx & 63));
        std::mem::swap(into, &mut self.slots[idx]);
        self.count -= into.len();
    }

    /// Next occupied absolute slot in `[from, end)`, scanning the
    /// occupancy bitmap a word at a time. The window is clamped to one
    /// revolution — a wider window would alias ring slots anyway, and
    /// stale (over-wide) windows only occur while the level is empty.
    fn find_occupied(&self, from: u64, end: u64) -> Option<u64> {
        let end = end.min(from + SLOTS as u64);
        let mut a = from;
        while a < end {
            let idx = (a & SLOT_MASK) as usize;
            let word = self.bitmap[idx >> 6] >> (idx & 63);
            if word != 0 {
                let cand = a + word.trailing_zeros() as u64;
                return if cand < end { Some(cand) } else { None };
            }
            a += 64 - (idx as u64 & 63);
        }
        None
    }
}

/// A hierarchical timer wheel ordering items by `(time, seq)`.
///
/// Drop-in replacement for a `BinaryHeap` min-ordered on `(time, seq)`:
/// [`TimerWheel::push`] / [`TimerWheel::pop`] / [`TimerWheel::peek`]
/// observe exactly the same total order, with amortised `O(1)` cost for
/// the near-cursor events that dominate a line-rate simulation.
///
/// `seq` values must be unique (the kernel uses a monotone counter);
/// items must not be pushed with a `(time, seq)` key smaller than the
/// last key popped.
pub struct TimerWheel<T> {
    /// Cached minimum: occupied only when its key is ≤ every other
    /// pending key. A push into an empty wheel lands here, so the
    /// pop → dispatch → push ping-pong of a lone periodic timer (and the
    /// head event of shallow queues) bypasses the rings entirely.
    front: Option<Entry<T>>,
    levels: Vec<Level<T>>,
    /// Per-level cursor: absolute slot numbers below this have been
    /// drained (or expanded) out of the level.
    next: [u64; LEVELS],
    /// Exclusive end (absolute top-level slot) of the wheel horizon;
    /// events at or past it live in `overflow`.
    top_end: u64,
    /// The drained cursor slot, sorted descending by `(ps, seq)` so the
    /// minimum pops from the back.
    batch: Vec<Entry<T>>,
    /// Absolute level-0 slot the batch was drained from. Pushes into
    /// this (or an earlier) quantum are insertion-sorted into the batch.
    batch_slot: u64,
    overflow: BinaryHeap<Overflow<T>>,
    /// Reusable buffer for slot expansion (keeps its capacity across
    /// cascades; a drained slot never round-trips the allocator).
    scratch: Vec<Entry<T>>,
    len: usize,
    #[cfg(debug_assertions)]
    last_popped: (u64, u64),
}

impl<T> TimerWheel<T> {
    /// An empty wheel anchored at time zero.
    pub fn new() -> Self {
        TimerWheel {
            front: None,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            next: [0; LEVELS],
            top_end: SLOTS as u64,
            batch: Vec::new(),
            batch_slot: 0,
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            len: 0,
            #[cfg(debug_assertions)]
            last_popped: (0, 0),
        }
    }

    /// Number of pending items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` at `time` with tiebreak `seq`.
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let ps = time.as_ps();
        #[cfg(debug_assertions)]
        debug_assert!(
            (ps, seq) > self.last_popped || self.last_popped == (0, 0),
            "push of ({ps}, {seq}) at or before last pop {:?}",
            self.last_popped
        );
        let mut e = Entry { ps, seq, item };
        self.len += 1;
        if self.len == 1 {
            self.front = Some(e);
            return;
        }
        if let Some(f) = self.front.as_mut() {
            // Keep `front` the global minimum; the displaced entry goes
            // into the wheel body instead.
            if e.key() < f.key() {
                std::mem::swap(f, &mut e);
            }
        }
        // Current (or past) quantum: merge into the sorted batch so the
        // dispatch order stays exact.
        if e.ps >> BASE_SHIFT <= self.batch_slot {
            let pos = self.batch.partition_point(|b| b.key() > e.key());
            self.batch.insert(pos, e);
            return;
        }
        let ps = e.ps;
        for l in 0..LEVELS {
            let a = ps >> shift(l);
            let end = if l == LEVELS - 1 {
                self.top_end
            } else {
                self.next[l + 1] << SLOT_BITS
            };
            if a < end {
                debug_assert!(a >= self.next[l], "slot below cursor at level {l}");
                self.levels[l].put(a, e);
                return;
            }
        }
        self.overflow.push(Overflow(e));
    }

    /// Earliest pending `(time, seq)`, without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        if let Some(f) = &self.front {
            return Some((SimTime::from_ps(f.ps), f.seq));
        }
        self.refill();
        self.batch.last().map(|e| (SimTime::from_ps(e.ps), e.seq))
    }

    /// Like [`TimerWheel::peek`], but also exposes a borrow of the
    /// earliest item so a caller can decide whether to pop it (the
    /// arrival-coalescing loop inspects the event kind without
    /// committing to dispatch).
    pub fn peek_item(&mut self) -> Option<(SimTime, u64, &T)> {
        if self.front.is_none() {
            self.refill();
            return self
                .batch
                .last()
                .map(|e| (SimTime::from_ps(e.ps), e.seq, &e.item));
        }
        let f = self.front.as_ref().expect("checked above");
        Some((SimTime::from_ps(f.ps), f.seq, &f.item))
    }

    /// Remove and return the earliest pending item.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let e = match self.front.take() {
            Some(f) => f,
            None => {
                self.refill();
                self.batch.pop()?
            }
        };
        self.finish_pop(e)
    }

    /// Remove and return the earliest pending item only if it fires at
    /// or before `limit` — one call where the dispatch loop would
    /// otherwise peek then pop.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, T)> {
        let lim = limit.as_ps();
        if let Some(f) = &self.front {
            if f.ps > lim {
                return None;
            }
            let e = self.front.take().expect("checked");
            return self.finish_pop(e);
        }
        self.refill();
        if self.batch.last()?.ps > lim {
            return None;
        }
        let e = self.batch.pop().expect("checked");
        self.finish_pop(e)
    }

    #[inline]
    fn finish_pop(&mut self, e: Entry<T>) -> Option<(SimTime, u64, T)> {
        self.len -= 1;
        #[cfg(debug_assertions)]
        {
            debug_assert!(e.key() > self.last_popped || self.last_popped == (0, 0));
            self.last_popped = e.key();
        }
        Some((SimTime::from_ps(e.ps), e.seq, e.item))
    }

    /// Ensure the batch holds the earliest pending quantum (no-op when
    /// the batch is non-empty or the wheel is drained). Walks the
    /// levels coarse-to-fine, expanding one parent slot per pass until
    /// a level-0 slot drains into the batch.
    fn refill(&mut self) {
        // `front` (when occupied) is the minimum — peek/pop serve it
        // before ever needing the batch.
        if !self.batch.is_empty() || self.front.is_some() || self.len == 0 {
            return;
        }
        loop {
            // Finest level first: drain the next busy slot to the batch.
            // Empty levels are skipped on their resident count without
            // touching bitmaps.
            if self.levels[0].count > 0 {
                let end0 = self.next[1] << SLOT_BITS;
                if let Some(s) = self.levels[0].find_occupied(self.next[0], end0) {
                    self.levels[0].take_into(s, &mut self.batch);
                    // Sparse streams (one event per slot — e.g. per-frame
                    // Deliver chains) skip the sort call entirely.
                    if self.batch.len() > 1 {
                        self.batch
                            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    }
                    self.batch_slot = s;
                    self.next[0] = s + 1;
                    return;
                }
            }
            // Expand the next busy slot of the shallowest non-empty
            // coarser level down one level.
            let mut cascaded = false;
            for l in 1..LEVELS {
                if self.levels[l].count == 0 {
                    continue;
                }
                let end = if l == LEVELS - 1 {
                    self.top_end
                } else {
                    self.next[l + 1] << SLOT_BITS
                };
                if let Some(s) = self.levels[l].find_occupied(self.next[l], end) {
                    self.next[l] = s + 1;
                    self.next[l - 1] = s << SLOT_BITS;
                    let (children, parents) = self.levels.split_at_mut(l);
                    parents[0].take_into(s, &mut self.scratch);
                    let sh = shift(l - 1);
                    for e in self.scratch.drain(..) {
                        children[l - 1].put(e.ps >> sh, e);
                    }
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel empty, overflow isn't: re-anchor the horizon at the
            // earliest overflow event and migrate what now fits.
            let min_top = {
                let m = self.overflow.peek().expect("len > 0 with empty wheel");
                m.0.ps >> shift(LEVELS - 1)
            };
            self.next[LEVELS - 1] = min_top;
            self.top_end = min_top + SLOTS as u64;
            while let Some(m) = self.overflow.peek() {
                if m.0.ps >> shift(LEVELS - 1) >= self.top_end {
                    break;
                }
                let e = self.overflow.pop().expect("peeked").0;
                self.levels[LEVELS - 1].put(e.ps >> shift(LEVELS - 1), e);
            }
        }
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len)
            .field("batch", &self.batch.len())
            .field("overflow", &self.overflow.len())
            .field("next", &self.next)
            .field("top_end", &self.top_end)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = w.pop() {
            out.push((t.as_ps(), s, v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_ps(30), 0, 0);
        w.push(SimTime::from_ps(10), 1, 1);
        w.push(SimTime::from_ps(10), 2, 2);
        w.push(SimTime::from_ps(20), 3, 3);
        let order: Vec<u64> = drain(&mut w).iter().map(|e| e.1).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert!(w.is_empty());
    }

    #[test]
    fn spans_every_level_and_overflow() {
        // One event per decade of time: exercises L0..L3 and overflow.
        let times: Vec<u64> = (0..18).map(|i| 10u64.pow(i)).collect();
        let mut w = TimerWheel::new();
        for (i, &t) in times.iter().enumerate().rev() {
            w.push(SimTime::from_ps(t), i as u64, i as u32);
        }
        let popped: Vec<u64> = drain(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn same_quantum_push_during_dispatch_stays_ordered() {
        let mut w = TimerWheel::new();
        // Two events in one 8.192ns quantum.
        w.push(SimTime::from_ps(1000), 0, 0);
        w.push(SimTime::from_ps(3000), 1, 1);
        let (t, _, v) = w.pop().unwrap();
        assert_eq!((t.as_ps(), v), (1000, 0));
        // Dispatch handler schedules a zero-delay event between the two.
        w.push(SimTime::from_ps(2000), 2, 2);
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop().unwrap().2, 1);
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Deterministic LCG-driven schedule; the proptest version lives
        // in tests/wheel_order.rs, this is the cheap smoke variant.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = TimerWheel::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..10_000 {
            if rng() % 3 != 0 || w.is_empty() {
                // Mix of near, far, tie-on-now offsets.
                let off = match rng() % 4 {
                    0 => rng() % 100,
                    1 => rng() % 100_000,
                    2 => rng() % 10_000_000_000,
                    _ => 0,
                };
                let t = now + off;
                w.push(SimTime::from_ps(t), seq, seq as u32);
                reference.push(std::cmp::Reverse((t, seq)));
                seq += 1;
            } else {
                let (t, s, _) = w.pop().unwrap();
                let std::cmp::Reverse((rt, rs)) = reference.pop().unwrap();
                assert_eq!((t.as_ps(), s), (rt, rs));
                now = t.as_ps();
            }
        }
        while let Some((t, s, _)) = w.pop() {
            let std::cmp::Reverse((rt, rs)) = reference.pop().unwrap();
            assert_eq!((t.as_ps(), s), (rt, rs));
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        for i in 0..100 {
            w.push(SimTime::from_ps(i * 1_000_000), i, ());
        }
        assert_eq!(w.len(), 100);
        for _ in 0..40 {
            w.pop();
        }
        assert_eq!(w.len(), 60);
        assert_eq!(w.peek().map(|(t, _)| t.as_ps()), Some(40_000_000));
        assert_eq!(w.len(), 60, "peek must not consume");
    }
}
