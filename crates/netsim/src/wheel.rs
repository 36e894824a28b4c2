//! The kernel queue's fall-back: a binary min-heap on `(time, seq)` for
//! events that are out of order for every FIFO lane of their source.
//!
//! The kernel's queue (`crate::lanes`) keeps what a source schedules in
//! order — nearly everything — in plain FIFO lanes and merges them with
//! this heap, which takes the rest: a reordering link's held-back
//! releases, the tail of a burst split at dispatch. That traffic is
//! shallow — the benchmark's demo workloads never push here, its burst
//! workload holds at most two entries, no run in the workspace more
//! than 140 (EXPERIMENTS.md "PR 24") — so `std`'s `BinaryHeap` is all
//! the structure it needs. Items pop in exactly ascending `(time, seq)`
//! order; callers supply a unique `seq` per push, and a push may carry
//! any key, also one below the last key popped.
//!
//! The type is named for the hierarchical timer wheel it used to be:
//! the benchmark's `netsim.wheel.ns_per_push_pop_1e{3,5}` probes build a
//! `TimerWheel` through `new`, `push` and `pop`, so the name and those
//! three signatures change only together with the probes.

use osnt_time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry, ordered by `(ps, seq)` *reversed*: `BinaryHeap` is a
/// max-heap, so the smallest key sits on top.
struct Entry<T> {
    ps: u64,
    seq: u64,
    item: T,
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.ps, other.seq).cmp(&(self.ps, self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}

/// A priority queue popping items in ascending `(time, seq)` order; see
/// the module documentation for the name.
pub struct TimerWheel<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> TimerWheel<T> {
    /// An empty queue.
    pub fn new() -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of pending items.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `item` at `time` with tiebreak `seq`.
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let ps = time.as_ps();
        self.heap.push(Entry { ps, seq, item });
    }

    /// Earliest pending `(time, seq)`, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (SimTime::from_ps(e.ps), e.seq))
    }

    /// Like [`TimerWheel::peek`], with a borrow of the earliest item, so
    /// a caller can look at it before deciding to pop.
    pub fn peek_item(&self) -> Option<(SimTime, u64, &T)> {
        self.heap
            .peek()
            .map(|e| (SimTime::from_ps(e.ps), e.seq, &e.item))
    }

    /// Remove and return the earliest pending item.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap
            .pop()
            .map(|e| (SimTime::from_ps(e.ps), e.seq, e.item))
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
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(ps, seq)` of everything pending, in pop order.
    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|(t, s, _)| (t.as_ps(), s))).collect()
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
    fn spans_every_decade_of_time() {
        // One event per decade, 1 ps to 10^17 ps (28 simulated hours),
        // pushed latest first.
        let times: Vec<u64> = (0..18).map(|i| 10u64.pow(i)).collect();
        let mut w = TimerWheel::new();
        for (i, &t) in times.iter().enumerate().rev() {
            w.push(SimTime::from_ps(t), i as u64, i as u32);
        }
        let popped: Vec<u64> = drain(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(popped, times);
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
