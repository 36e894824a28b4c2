//! What the kernel queue's fall-back heap holds. Ordering lives in
//! `crate::lanes`: events dispatch in ascending `(time, key)` where the
//! key encodes `(source component, per-source sequence)` — see
//! [`crate::kernel::event_key`]. Simultaneous events fire in source
//! component id order, then in the order the source scheduled them: a
//! total order computable from the event alone, identical whether the
//! simulation runs on one thread or across shards, and whichever lane or
//! heap an event waited in.
//!
//! Nearly every event waits in a lane typed by its payload — a timer
//! lane's `(ps, key, tag)`, a frame lane's `(ps, key)` beside its
//! `Packet`, a burst lane's boxed burst — and the lane says whom it goes
//! to. An [`EventKind`] exists only for what is out of order for its
//! lanes, and for a split burst's tail, in the fall-back heap, so it
//! carries its destination itself.
//!
//! A frame leaving a MAC is *not* a queue entry: each output port keeps
//! its own completions in a FIFO and retires them at the same
//! `(time, key)` position an event would have had (see
//! `kernel::OutPort`). They draw keys from the same per-source sequence
//! and are counted as dispatched events.

use crate::burst::PacketBurst;
use crate::component::ComponentId;
use osnt_packet::Packet;

/// A fall-back entry: what happens when it fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A frame finishes arriving at `dst`'s input `port`.
    Deliver {
        dst: ComponentId,
        port: usize,
        packet: Packet,
    },
    /// A back-to-back run of frames arrives at `dst`'s input `port` as
    /// one queue entry. Scheduled at the first member's arrival instant
    /// under the first member's event key; member `i` owns key
    /// `first_key + i`, so splitting the burst at any point restores
    /// the exact scalar total order.
    DeliverBurst {
        dst: ComponentId,
        port: usize,
        burst: Box<PacketBurst>,
    },
    /// A component timer fires.
    Timer { target: ComponentId, tag: u64 },
}
