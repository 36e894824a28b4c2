//! Burst vectors: the batched unit of work of the fast datapath.
//!
//! [`crate::Kernel::transmit_batch`] and [`crate::Kernel::transmit_burst`]
//! coalesce a back-to-back run of frames into one [`PacketBurst`] that
//! travels the event queue as a *single* entry, instead of one
//! `Deliver` event per frame. The burst carries
//! each member's exact arrival instant, and the event key of member `i`
//! is `first_key + i` — the same per-source sequence keys the scalar
//! path would have allocated — so the partition-independent total event
//! order is preserved: the dispatch loop splits a burst lazily (re-
//! queuing the un-consumed tail under its own member key) whenever a
//! foreign event, a timer, or the run limit lands between two members.

use osnt_packet::Packet;
use osnt_time::SimTime;

/// A vector of frames sharing one wire-timing base: consecutive frames
/// transmitted back-to-back out of one port, each paired with the
/// instant its last bit arrives at the peer. Members are in strictly
/// ascending arrival order, and member `i` owns event key
/// `first_key + i` in the kernel's total order.
#[derive(Debug)]
pub struct PacketBurst {
    /// Event key of the first member still in the burst.
    first_key: u64,
    /// Held as the vector's consuming iterator, which is the vector
    /// plus a head index: the dispatch loop drains a burst member by
    /// member from the front, and `next` moves one out without shifting
    /// the tail.
    members: std::vec::IntoIter<(SimTime, Packet)>,
}

impl PacketBurst {
    /// A burst of `members` (in strictly ascending arrival order; the
    /// kernel's MAC arithmetic guarantees it) whose first member carries
    /// `first_key`.
    pub(crate) fn new(first_key: u64, members: Vec<(SimTime, Packet)>) -> Self {
        debug_assert!(
            members.windows(2).all(|w| w[0].0 < w[1].0),
            "burst members must have strictly ascending arrival times"
        );
        PacketBurst {
            first_key,
            members: members.into_iter(),
        }
    }

    /// Number of frames in the burst.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the burst holds no frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.len() == 0
    }

    /// Event key of the first (current) member.
    #[inline]
    pub(crate) fn first_key(&self) -> u64 {
        self.first_key
    }

    /// Arrival instant of the first member. Panics on an empty burst.
    #[inline]
    pub fn first_time(&self) -> SimTime {
        self.as_slice()[0].0
    }

    /// The members as a slice of `(arrival instant, frame)` pairs.
    #[inline]
    pub fn as_slice(&self) -> &[(SimTime, Packet)] {
        self.members.as_slice()
    }

    /// Remove and return the first member (advancing `first_key`). O(1).
    pub(crate) fn next(&mut self) -> Option<(SimTime, Packet)> {
        let member = self.members.next()?;
        self.first_key += 1;
        Some(member)
    }

    /// Split off the tail starting at member index `at`, leaving
    /// `0..at` in `self`. The returned burst keeps its members' event
    /// keys (`first_key + at` onward). Returns `None` when `at` is past
    /// the end.
    pub(crate) fn split_off(&mut self, at: usize) -> Option<PacketBurst> {
        if at >= self.members.len() {
            return None;
        }
        // The tail keeps the storage; the (short, window-boundary) head
        // moves out of it into a vector of its own.
        let mut tail = std::mem::take(&mut self.members);
        self.members = tail.by_ref().take(at).collect::<Vec<_>>().into_iter();
        Some(PacketBurst {
            first_key: self.first_key + at as u64,
            members: tail,
        })
    }

    /// Split off every member arriving strictly after `limit` (for
    /// dispatch-window boundaries). Returns `None` when all members are
    /// at or before `limit`.
    pub(crate) fn split_after(&mut self, limit: SimTime) -> Option<PacketBurst> {
        let at = self.as_slice().partition_point(|(t, _)| *t <= limit);
        self.split_off(at)
    }
}

impl IntoIterator for PacketBurst {
    type Item = (SimTime, Packet);
    type IntoIter = std::vec::IntoIter<(SimTime, Packet)>;
    fn into_iter(self) -> Self::IntoIter {
        self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(times: &[u64]) -> PacketBurst {
        let members = times
            .iter()
            .map(|&t| (SimTime::from_ps(t), Packet::zeroed(64)))
            .collect();
        PacketBurst::new(100, members)
    }

    #[test]
    fn keys_track_pops_and_splits() {
        let mut b = burst(&[10, 20, 30, 40]);
        assert_eq!(b.first_key(), 100);
        assert_eq!(b.first_time().as_ps(), 10);
        let (t, _) = b.next().unwrap();
        assert_eq!(t.as_ps(), 10);
        assert_eq!(b.first_key(), 101);
        let tail = b.split_off(1).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(tail.first_key(), 102);
        assert_eq!(tail.first_time().as_ps(), 30);

        // A spilled burst drained member by member, as the dispatch
        // loop drains one at a batch sink: every pop leaves `as_slice()`,
        // the key and the length in step, and a split after the pops
        // still cuts at the right member.
        let times: Vec<u64> = (1..=128).map(|i| i * 10).collect();
        let mut b = burst(&times);
        for popped in 0..100u64 {
            assert_eq!(b.len() as u64, 128 - popped);
            assert_eq!(b.first_key(), 100 + popped);
            assert_eq!(b.as_slice()[0].0.as_ps(), (popped + 1) * 10);
            assert_eq!(b.as_slice()[b.len() - 1].0.as_ps(), 1280);
            let (t, _) = b.next().unwrap();
            assert_eq!(t.as_ps(), (popped + 1) * 10);
        }
        let tail = b.split_after(SimTime::from_ps(1100)).unwrap();
        assert_eq!((b.len(), b.first_key()), (10, 200));
        assert_eq!(
            (b.first_time().as_ps(), b.as_slice()[9].0.as_ps()),
            (1010, 1100)
        );
        assert_eq!((tail.len(), tail.first_key()), (18, 210));
        assert_eq!(tail.first_time().as_ps(), 1110);
        let tail2 = b.split_off(4).unwrap();
        assert_eq!((b.len(), tail2.len(), tail2.first_key()), (4, 6, 204));
        assert_eq!(
            b.into_iter().map(|(t, _)| t.as_ps()).collect::<Vec<_>>(),
            [1010, 1020, 1030, 1040]
        );
        assert_eq!(tail.into_iter().count(), 18);
    }

    #[test]
    fn split_after_partitions_on_the_limit() {
        let mut b = burst(&[10, 20, 30]);
        assert!(b.split_after(SimTime::from_ps(30)).is_none());
        let tail = b.split_after(SimTime::from_ps(15)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.first_key(), 101);
        assert_eq!(tail.first_time().as_ps(), 20);
    }

    /// Every member leaves a burst exactly once, under its own key,
    /// whichever way the burst is drained, and a burst dropped half
    /// drained releases the rest: once all is done, the frame every
    /// member was cloned from is no longer shared.
    #[test]
    fn every_member_is_handed_on_exactly_once() {
        fn pop(b: &mut PacketBurst, seen: &mut Vec<(u64, SimTime)>) {
            let key = b.first_key();
            let (t, packet) = b.next().expect("a member left");
            assert!(packet.is_shared());
            seen.push((key, t));
        }
        // Member `k` (keys 100..140) arrives at 10·(k − 99) ps.
        let at = |key: u64| SimTime::from_ps(10 * (key - 99));
        let original = Packet::zeroed(64);
        let mut seen = Vec::new();
        {
            let members = (100..140).map(|k| (at(k), original.clone())).collect();
            let mut b = PacketBurst::new(100, members);
            for _ in 0..3 {
                pop(&mut b, &mut seen);
            }
            let mut tail = b.split_off(5).expect("members past 5");
            assert_eq!((b.len(), tail.first_key()), (5, 108));
            let key = b.first_key();
            seen.extend((key..).zip(b.into_iter().map(|(t, _)| t)));

            let mut tail2 = tail.split_after(at(119)).expect("members past 119");
            assert_eq!((tail.len(), tail2.first_key()), (12, 120));
            pop(&mut tail, &mut seen);
            pop(&mut tail, &mut seen);
            // Dropped half drained: its members are accounted as they
            // stand, and the drop must release every one of them.
            let key = tail.first_key();
            seen.extend((key..).zip(tail.as_slice().iter().map(|&(t, _)| t)));
            drop(tail);

            let mut tail3 = tail2.split_off(0).expect("the whole burst");
            assert!(tail2.is_empty() && tail3.split_off(20).is_none());
            while !tail3.is_empty() {
                pop(&mut tail3, &mut seen);
            }
            assert!(tail3.next().is_none());
        }
        seen.sort();
        let expected: Vec<_> = (100..140).map(|k| (k, at(k))).collect();
        assert_eq!(seen, expected);
        assert!(!original.is_shared());
    }
}
