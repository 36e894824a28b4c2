//! The simulation kernel: virtual time, the event queue, the MAC/link
//! timing model and per-port accounting.

use crate::burst::PacketBurst;
use crate::component::ComponentId;
use crate::event::EventKind;
use crate::lanes::{Due, LaneQueue};
use crate::link::LinkSpec;
use crate::stats::{PortCounters, QueueCounts};
use osnt_packet::{Packet, IFG_LEN};
use osnt_time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Outcome of [`Kernel::transmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxResult {
    /// The frame was accepted by the MAC.
    Transmitted {
        /// Instant the first bit goes on the wire (now, or when the MAC
        /// finishes earlier frames).
        tx_start: SimTime,
        /// Instant the last bit arrives at the peer.
        delivery: SimTime,
    },
    /// The output buffer was full; the frame was tail-dropped.
    Dropped,
    /// The port has no link attached; the frame went nowhere.
    NotConnected,
}

impl TxResult {
    /// True when the frame made it onto the wire.
    pub fn is_transmitted(&self) -> bool {
        matches!(self, TxResult::Transmitted { .. })
    }
}

/// Outcome of [`Kernel::transmit_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTx {
    /// Frames accepted onto the wire.
    pub accepted: u64,
    /// Frame bytes accepted (conventional length, summed).
    pub accepted_bytes: u64,
    /// Frames tail-dropped at the output buffer.
    pub dropped: u64,
    /// Wire start instant of the first accepted frame.
    pub first_tx_start: Option<SimTime>,
    /// Wire start instant of the last accepted frame.
    pub last_tx_start: Option<SimTime>,
    /// Arrival instant of the last accepted frame's final bit.
    pub last_delivery: Option<SimTime>,
    /// True when the port has no link: nothing was sent.
    pub not_connected: bool,
}

impl BatchTx {
    /// Account one accepted frame.
    fn accept(&mut self, frame_len: usize, tx_start: SimTime, delivery: SimTime) {
        self.accepted += 1;
        self.accepted_bytes += frame_len as u64;
        self.first_tx_start.get_or_insert(tx_start);
        self.last_tx_start = Some(tx_start);
        self.last_delivery = Some(delivery);
    }
}

/// A position in the total event order: `(time, event key)`.
type OrderPos = (SimTime, u64);

/// One accepted frame (or one batch/burst run of them) still being
/// clocked out: at `(tx_end, key)` in the total event order its `bytes`
/// leave the output buffer. The key is drawn from the sender's event
/// sequence like any event's, so a completion has one exact place among
/// the queue's events without being one of them.
#[derive(Debug, Clone, Copy)]
struct Completion {
    tx_end: SimTime,
    key: u64,
    bytes: usize,
}

impl Completion {
    /// Ordered before `here`: a queue would have popped it by now.
    #[inline]
    fn before(&self, here: OrderPos) -> bool {
        (self.tx_end, self.key) < here
    }
}

/// One output port: its MAC and its counters.
///
/// Aligned to a cache line, so that each port covers exactly two lines
/// wherever the allocator puts it (a heap block is only 16-byte
/// aligned). At the same 128 bytes unaligned, the benchmark's
/// `p2_churn` read 5–7 % below this layout in every measured run on two
/// hosts (EXPERIMENTS.md, "OutPort layout", which also lists what the
/// alignment costs the other workloads).
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct OutPort {
    /// Whole picoseconds one byte takes on the link out of this port
    /// ([`LinkSpec::ps_per_byte`], worked out once at connect time), so
    /// the MAC times a frame with a multiply; 0 while the port is not
    /// connected. The link's far end is the lane queue's to know
    /// ([`LaneQueue::connect`]).
    ps_per_byte: u64,
    /// The link's one-way propagation delay.
    propagation: SimDuration,
    /// Instant the MAC becomes free to start another frame (includes the
    /// inter-frame gap of the previous frame).
    busy_until: SimTime,
    /// Frame bytes accepted and not yet retired: the bytes of
    /// `completions`.
    queued_bytes: usize,
    /// Completions not yet retired, oldest first. One MAC finishes its
    /// frames in the order it took them, so `tx_end` is strictly
    /// increasing and the FIFO is sorted in event order. Nothing reads a
    /// completion until this port is next asked about its buffer, so it
    /// is retired then (see [`OutPort::retire_while`]) instead of
    /// travelling through the event queue.
    completions: VecDeque<Completion>,
    /// Output buffer capacity in frame bytes (`None` = unbounded; tester
    /// ports pace themselves, switch ports set a real limit).
    buffer_bytes: Option<usize>,
    counters: PortCounters,
}

const _: () = assert!(std::mem::size_of::<OutPort>() == 128, "two cache lines");

/// The wire slot the MAC reserved for one frame.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// First bit goes on the wire.
    tx_start: SimTime,
    /// Last visible bit has left the MAC (the frame's completion
    /// instant).
    tx_end: SimTime,
    /// Last bit arrives at the peer.
    delivery: SimTime,
}

impl OutPort {
    fn new() -> Self {
        OutPort {
            ps_per_byte: 0,
            propagation: SimDuration::ZERO,
            busy_until: SimTime::ZERO,
            queued_bytes: 0,
            completions: VecDeque::new(),
            buffer_bytes: None,
            counters: PortCounters::default(),
        }
    }

    /// True once [`Kernel::connect_simplex`] gave this port a link.
    #[inline]
    fn connected(&self) -> bool {
        self.ps_per_byte != 0
    }

    /// Retire completions off the front for as long as `due` says so:
    /// their bytes leave the buffer. Returns how many — each is one
    /// dispatched event to the caller's tally.
    #[inline]
    fn retire_while(&mut self, due: impl Fn(&Completion) -> bool) -> u64 {
        let mut retired = 0;
        while let Some(c) = self.completions.front() {
            if !due(c) {
                break;
            }
            debug_assert!(self.queued_bytes >= c.bytes);
            self.queued_bytes -= c.bytes;
            self.completions.pop_front();
            retired += 1;
        }
        retired
    }

    /// Retire what is ordered before `here`, the event being
    /// dispatched — exactly the completions a queue would have popped
    /// by now. Every transmit entry point does this before it reserves,
    /// on capped and uncapped ports alike: it is what bounds the FIFO by
    /// the frames in flight.
    #[inline]
    fn retire_before(&mut self, here: OrderPos) -> u64 {
        self.retire_while(|c| c.before(here))
    }

    /// The MAC, for one frame offered at `earliest`: tail-drop it
    /// (`None`) when the output buffer is full, otherwise reserve its
    /// wire slot — it starts when the port is free, is visible on the
    /// wire for preamble + frame, and holds the port for the
    /// inter-frame gap after that. Every transmit entry point goes
    /// through here, so this is the one copy of the arithmetic: a
    /// wire length times the port's whole picoseconds per byte, which
    /// is exactly `bytes · 8·10¹² / bandwidth_bps`.
    #[inline]
    fn reserve(&mut self, earliest: SimTime, frame_len: usize, wire_len: usize) -> Option<Slot> {
        if let Some(cap) = self.buffer_bytes {
            if self.queued_bytes + frame_len > cap {
                self.counters.tx_drops += 1;
                return None;
            }
        }
        let byte_time = |bytes: usize| SimDuration::from_ps(bytes as u64 * self.ps_per_byte);
        let tx_start = earliest.max(self.busy_until);
        let tx_end = tx_start + byte_time(wire_len - IFG_LEN);
        self.busy_until = tx_start + byte_time(wire_len);
        self.queued_bytes += frame_len;
        self.counters.tx_frames += 1;
        self.counters.tx_bytes += frame_len as u64;
        Some(Slot {
            tx_start,
            tx_end,
            delivery: tx_end + self.propagation,
        })
    }
}

/// Bits of the event key reserved for the per-source sequence counter.
/// The remaining high bits hold the source component id, so keys order
/// by `(source component, per-source seq)` — see [`event_key`].
pub(crate) const SRC_SEQ_BITS: u32 = 40;

/// Largest component id the key encoding supports (16M components).
pub(crate) const MAX_COMPONENTS: usize = 1 << (64 - SRC_SEQ_BITS);

/// The total event order is ascending `(time, event_key)`. The key packs
/// `(source component id, per-source sequence number)` so that ties at
/// one instant break by source component id, then by the order the
/// source scheduled them. Crucially the key depends only on *which*
/// component scheduled the event and on that component's own scheduling
/// history — never on the global interleaving — so the order is
/// independent of which lane or heap holds the event.
#[inline]
pub(crate) fn event_key(src: ComponentId, ctr: u64) -> u64 {
    // 2^40 events per component outlasts any realistic run (a port at
    // 14.88 Mpps takes ~20 simulated hours to get there).
    debug_assert!(
        ctr < 1 << SRC_SEQ_BITS,
        "per-component event counter overflow"
    );
    ((src.0 as u64) << SRC_SEQ_BITS) | ctr
}

/// Draw `src`'s next event key.
#[inline]
fn next_key(comp_seq: &mut [u64], src: ComponentId) -> u64 {
    let ctr = comp_seq[src.0];
    comp_seq[src.0] = ctr + 1;
    event_key(src, ctr)
}

fn port_mut(ports: &mut [Vec<OutPort>], comp: ComponentId, port: usize) -> &mut OutPort {
    ports
        .get_mut(comp.0)
        .unwrap_or_else(|| panic!("unknown component id {}", comp.0))
        .get_mut(port)
        .unwrap_or_else(|| panic!("component {} has no port {port}", comp.0))
}

/// The simulation kernel. Components receive `&mut Kernel` in their event
/// handlers; harness code reaches it through [`crate::Sim::kernel`].
pub struct Kernel {
    pub(crate) now: SimTime,
    /// Key of the event being dispatched: with `now`, where the run
    /// stands in the total order (see [`Kernel::here`]).
    cur_key: u64,
    /// Per-component event sequence counters (the low bits of
    /// [`event_key`]). Indexed by component id; counts every event the
    /// component has scheduled.
    pub(crate) comp_seq: Vec<u64>,
    pub(crate) queue: LaneQueue,
    /// ports[component][port]
    pub(crate) ports: Vec<Vec<OutPort>>,
    pub(crate) events_dispatched: u64,
    /// Supervision heartbeat, limits and abort verdict — `None` on
    /// unsupervised runs, so the dispatch loop pays one branch.
    pub(crate) progress: Option<std::sync::Arc<osnt_time::ProgressProbe>>,
    /// Reusable arrival buffer for batch delivery (capacity persists
    /// across bursts; taken/restored around each `on_packet_batch`).
    pub(crate) batch_buf: Vec<(SimTime, Packet)>,
    /// Reusable member buffer of `transmit_run` (capacity persists
    /// across runs), so that a burst allocates its members once, at
    /// their exact count, instead of growing a vector frame by frame.
    run_buf: Vec<(SimTime, Packet)>,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            cur_key: 0,
            comp_seq: Vec::new(),
            queue: LaneQueue::new(),
            ports: Vec::new(),
            events_dispatched: 0,
            progress: None,
            batch_buf: Vec::new(),
            run_buf: Vec::new(),
        }
    }

    pub(crate) fn add_component_ports(&mut self, n_ports: usize) {
        assert!(
            self.ports.len() < MAX_COMPONENTS,
            "component id space exhausted"
        );
        self.ports
            .push((0..n_ports).map(|_| OutPort::new()).collect());
        self.comp_seq.push(0);
        self.queue.add_source(n_ports);
    }

    pub(crate) fn connect_simplex(
        &mut self,
        src: ComponentId,
        src_port: usize,
        dst: ComponentId,
        dst_port: usize,
        spec: LinkSpec,
    ) {
        let port = self.out_port_mut(src, src_port);
        assert!(
            !port.connected(),
            "port {src_port} of component {} already connected",
            src.0
        );
        port.ps_per_byte = spec.ps_per_byte();
        port.propagation = spec.propagation;
        self.queue.connect(src.0, src_port, (dst, dst_port));
    }

    fn out_port_mut(&mut self, comp: ComponentId, port: usize) -> &mut OutPort {
        port_mut(&mut self.ports, comp, port)
    }

    /// Where the run stands in the total event order: the `(time, key)`
    /// of the event being dispatched. Between runs every completion at
    /// or before `now` is already retired, so the key no longer matters.
    #[inline]
    fn here(&self) -> OrderPos {
        (self.now, self.cur_key)
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far (debugging / progress metric).
    /// Exact between runs; during one, MAC completions are counted when
    /// their port retires them, which can be after their instant.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Schedule a timer for `me` at `time`.
    fn push_timer(&mut self, time: SimTime, me: ComponentId, tag: u64) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let key = next_key(&mut self.comp_seq, me);
        self.queue.push_timer(me.0, time, key, tag);
    }

    /// How many events were queued so far, by where each waited: in a
    /// FIFO lane of its source or in the fall-back heap. Nothing reads
    /// these but reports and tests.
    pub fn queue_counts(&self) -> QueueCounts {
        self.queue.counts()
    }

    /// Arm a timer for `me` firing after `delay` with discriminator
    /// `tag`. A zero delay fires after the current handler returns, at
    /// the same simulated time.
    pub fn schedule_timer(&mut self, me: ComponentId, delay: SimDuration, tag: u64) {
        self.push_timer(self.now + delay, me, tag);
    }

    /// Arm a timer at an absolute instant (must not be in the past).
    pub fn schedule_timer_at(&mut self, me: ComponentId, at: SimTime, tag: u64) {
        assert!(
            at >= self.now,
            "schedule_timer_at: {at} is in the past (now {})",
            self.now
        );
        self.push_timer(at, me, tag);
    }

    /// The earliest instant a frame offered now on (`me`, `port`) would
    /// start transmission — `now`, or later if the MAC is still clocking
    /// out earlier frames. The TX timestamping unit sits exactly here,
    /// "just before the transmit 10GbE MAC".
    pub fn next_tx_start(&self, me: ComponentId, port: usize) -> SimTime {
        let p = &self.ports[me.0][port];
        self.now.max(p.busy_until)
    }

    /// Bytes currently buffered in (`me`, `port`)'s output MAC.
    pub fn tx_queue_bytes(&self, me: ComponentId, port: usize) -> usize {
        let p = &self.ports[me.0][port];
        let here = self.here();
        let finished: usize = p
            .completions
            .iter()
            .take_while(|c| c.before(here))
            .map(|c| c.bytes)
            .sum();
        p.queued_bytes - finished
    }

    /// Set (or clear) the output-buffer capacity of a port, in frame
    /// bytes. Frames offered while the buffer is full are tail-dropped.
    pub fn set_tx_buffer(&mut self, me: ComponentId, port: usize, bytes: Option<usize>) {
        self.out_port_mut(me, port).buffer_bytes = bytes;
    }

    /// Counter snapshot for (`comp`, `port`).
    pub fn counters(&self, comp: ComponentId, port: usize) -> PortCounters {
        self.ports[comp.0][port].counters
    }

    /// Transmit `packet` out of (`me`, `port`).
    ///
    /// Models a store-and-forward MAC: the frame starts when the port is
    /// free, occupies the wire for its serialisation time (including
    /// preamble and inter-frame gap) and is delivered to the peer when its
    /// last bit arrives.
    pub fn transmit(&mut self, me: ComponentId, port: usize, packet: Packet) -> TxResult {
        self.transmit_at(me, port, self.now, packet)
    }

    /// [`Kernel::transmit`] with an explicit earliest-start instant:
    /// the frame starts at `earliest` (which must not be in the past),
    /// or later if the MAC is still clocking out earlier frames.
    ///
    /// This is the per-member primitive of burst handlers
    /// ([`crate::Component::on_burst`]): during a burst the kernel
    /// clock reads the *burst-start* instant, so a forwarder passes
    /// each member's own arrival (or release) time here to get exactly
    /// the wire timing the scalar path would have produced.
    pub fn transmit_at(
        &mut self,
        me: ComponentId,
        port: usize,
        earliest: SimTime,
        packet: Packet,
    ) -> TxResult {
        assert!(
            earliest >= self.now,
            "transmit_at: earliest start {earliest} is in the past (now {})",
            self.now
        );
        let frame_len = packet.frame_len();
        let wire_len = packet.wire_len();
        let here = self.here();
        let Kernel {
            ports,
            comp_seq,
            queue,
            events_dispatched,
            ..
        } = self;
        let p = port_mut(ports, me, port);
        if !p.connected() {
            return TxResult::NotConnected;
        }
        *events_dispatched += p.retire_before(here);
        let Some(slot) = p.reserve(earliest, frame_len, wire_len) else {
            return TxResult::Dropped;
        };
        // The completion's key first, then the delivery's: the order
        // every other event's key rests on.
        p.completions.push_back(Completion {
            tx_end: slot.tx_end,
            key: next_key(comp_seq, me),
            bytes: frame_len,
        });
        let key = next_key(comp_seq, me);
        queue.push_frame(me.0, port, slot.delivery, key, packet);
        TxResult::Transmitted {
            tx_start: slot.tx_start,
            delivery: slot.delivery,
        }
    }

    /// Transmit a burst of frames back-to-back out of (`me`, `port`),
    /// coalescing the bookkeeping: one MAC reservation walk, one queue
    /// entry for the accepted frames and a single completion record for
    /// the whole batch (the peer observes identical arrival times as
    /// `count` separate [`Kernel::transmit`] calls).
    ///
    /// `frames` is a factory, not an iterator: it is handed the wire
    /// start instant the MAC has reserved for the next frame and returns
    /// the frame to put there (`None` ends the batch). Knowing the
    /// departure instant *before* the frame is enqueued is what lets the
    /// generator embed TX timestamps on the batched path — the stamp it
    /// writes is exactly the `tx_start` the per-frame path would have
    /// observed from [`Kernel::transmit`]. A frame the factory built for
    /// a slot may still be tail-dropped by the output buffer, exactly as
    /// in per-frame transmit (the per-frame path also stamps before it
    /// learns the drop verdict); the slot is then re-offered to the next
    /// frame.
    ///
    /// Each accepted frame's wire start time is appended to `tx_starts`
    /// when provided (the generator's departure log).
    ///
    /// The accepted frames leave as a single [`crate::PacketBurst`]
    /// event — one queue entry for the whole run, carrying
    /// per-member arrival instants and the same per-member event keys
    /// the per-frame path would have allocated, so the dispatch-side
    /// total order is unchanged (the dispatch loop splits the burst
    /// lazily when a timer or foreign event interleaves).
    ///
    /// Note the event stream is *not* byte-for-byte identical to
    /// per-frame transmits — the batch leaves one completion record, not
    /// one per frame, so sequence numbers differ and the batch's bytes
    /// leave the output buffer together when its last frame does. Paths
    /// that must preserve the legacy event stream (determinism pinning)
    /// keep calling `transmit` per frame.
    pub fn transmit_batch(
        &mut self,
        me: ComponentId,
        port: usize,
        frames: &mut dyn FnMut(SimTime) -> Option<Packet>,
        tx_starts: Option<&mut Vec<SimTime>>,
    ) -> BatchTx {
        let now = self.now;
        self.transmit_run(
            me,
            port,
            |mac_free| frames(now.max(mac_free)).map(|packet| (now, packet)),
            tx_starts,
        )
    }

    /// Transmit a burst of frames out of (`me`, `port`), each with its
    /// own earliest-start instant (the member-wise analogue of
    /// [`Kernel::transmit_at`], the burst-wise analogue of
    /// [`Kernel::transmit_batch`]).
    ///
    /// This is how burst-aware forwarders ([`crate::Component::on_burst`])
    /// keep a burst *one* queue entry across a hop: the accepted frames
    /// leave as a single [`crate::PacketBurst`] plus one completion
    /// record, and every member's wire timing is exactly what per-frame
    /// [`Kernel::transmit_at`] calls with the same `earliest` instants
    /// would have produced.
    ///
    /// Falls back to per-frame transmits (scalar event stream) on
    /// buffer-capped ports — one completion for the run would delay the
    /// queued-byte drain and change tail-drop verdicts.
    pub fn transmit_burst(
        &mut self,
        me: ComponentId,
        port: usize,
        frames: impl IntoIterator<Item = (SimTime, Packet)>,
    ) -> BatchTx {
        let mut frames = frames.into_iter();
        let p = &self.ports[me.0][port];
        // (An unconnected port goes to the run routine too, which
        // reports it.)
        if !p.connected() || p.buffer_bytes.is_none() {
            return self.transmit_run(me, port, |_| frames.next(), None);
        }
        let mut out = BatchTx::default();
        for (earliest, packet) in frames {
            let frame_len = packet.frame_len();
            match self.transmit_at(me, port, earliest, packet) {
                TxResult::Transmitted { tx_start, delivery } => {
                    out.accept(frame_len, tx_start, delivery)
                }
                TxResult::Dropped => out.dropped += 1,
                TxResult::NotConnected => unreachable!("wire checked above"),
            }
        }
        out
    }

    /// The shared body of [`Kernel::transmit_batch`] and
    /// [`Kernel::transmit_burst`]: walk the MAC over a run of frames and
    /// ship what it accepted as one queue entry plus one completion
    /// record.
    ///
    /// `next` is handed the instant the MAC becomes free and returns the
    /// next frame with its earliest start (`None` ends the run).
    fn transmit_run(
        &mut self,
        me: ComponentId,
        port: usize,
        mut next: impl FnMut(SimTime) -> Option<(SimTime, Packet)>,
        mut tx_starts: Option<&mut Vec<SimTime>>,
    ) -> BatchTx {
        let mut out = BatchTx::default();
        let now = self.now;
        let here = self.here();
        // The port and event-queue borrows are hoisted/split so
        // the loop body touches disjoint fields instead of re-resolving
        // the port per frame.
        let Kernel {
            ports,
            comp_seq,
            queue,
            events_dispatched,
            run_buf,
            ..
        } = self;
        let p = &mut ports[me.0][port];
        if !p.connected() {
            out.not_connected = true;
            return out;
        }
        // Once for the run: `here` does not move while it is built.
        *events_dispatched += p.retire_before(here);
        let mut last_tx_end = None;
        let mut first_key = None;
        while let Some((earliest, packet)) = next(p.busy_until) {
            assert!(
                earliest >= now,
                "transmit: earliest start {earliest} is in the past (now {now})"
            );
            let frame_len = packet.frame_len();
            let Some(slot) = p.reserve(earliest, frame_len, packet.wire_len()) else {
                out.dropped += 1;
                continue;
            };
            out.accept(frame_len, slot.tx_start, slot.delivery);
            last_tx_end = Some(slot.tx_end);
            if let Some(ts) = tx_starts.as_deref_mut() {
                ts.push(slot.tx_start);
            }
            let key = next_key(comp_seq, me);
            first_key.get_or_insert(key);
            run_buf.push((slot.delivery, packet));
        }
        if let Some(key) = first_key {
            // A one-frame "burst" ships as a plain frame: same key, same
            // arrival, no box on the far side.
            if run_buf.len() == 1 {
                let (time, packet) = run_buf.pop().expect("len checked");
                queue.push_frame(me.0, port, time, key, packet);
            } else {
                let mut members = Vec::with_capacity(run_buf.len());
                members.append(run_buf);
                queue.push_burst(me.0, port, Box::new(PacketBurst::new(key, members)));
            }
        }
        if let Some(tx_end) = last_tx_end {
            p.completions.push_back(Completion {
                tx_end,
                key: next_key(comp_seq, me),
                bytes: out.accepted_bytes as usize,
            });
        }
        out
    }

    /// Put a partially consumed burst back on the queue under its next
    /// member's own `(time, key)` — the lazy-split half of burst
    /// dispatch (the un-consumed tail re-enters the total order exactly
    /// where its members always were). It goes to the fall-back heap:
    /// the lane it came from may have moved on.
    pub(crate) fn requeue_burst(&mut self, dst: ComponentId, port: usize, burst: Box<PacketBurst>) {
        debug_assert!(!burst.is_empty(), "requeue of an empty burst");
        self.queue.push_unordered(
            burst.first_time(),
            burst.first_key(),
            EventKind::DeliverBurst { dst, port, burst },
        );
    }

    /// One step of lazy burst replay: dispatch `burst`'s next member at
    /// its own `(time, key)` slot — stamp `now`, count the event, note
    /// the arrival — unless it is due after `limit` or the queue head
    /// (a timer a handler just armed, a competing delivery) would
    /// scalar-dispatch first. `None` leaves the burst untouched;
    /// the caller re-queues whatever is left.
    pub(crate) fn pop_burst_member(
        &mut self,
        dst: ComponentId,
        port: usize,
        burst: &mut PacketBurst,
        limit: SimTime,
    ) -> Option<(SimTime, Packet)> {
        let &(t_next, _) = burst.as_slice().first()?;
        if t_next > limit {
            return None;
        }
        if let Some(t) = self.queue.next_due(t_next) {
            if (t, self.queue.due_key()) < (t_next, burst.first_key()) {
                return None;
            }
        }
        self.cur_key = burst.first_key();
        let (t, pkt) = burst.next()?;
        self.now = t;
        self.events_dispatched += 1;
        self.note_rx(dst, port, pkt.frame_len());
        Some((t, pkt))
    }

    pub(crate) fn note_rx(&mut self, dst: ComponentId, port: usize, frame_len: usize) {
        let p = self.out_port_mut(dst, port);
        p.counters.rx_frames += 1;
        p.counters.rx_bytes += frame_len as u64;
    }

    /// Extend a delivery batch: keep taking events at or before `limit`
    /// for as long as the head of the queue is another delivery to the
    /// same `(dst, port)`. Stops — leaving the queue untouched — at the
    /// first timer, foreign delivery, or event past `limit`.
    ///
    /// Every event is taken at its exact position in the total order
    /// and stamps `now`/`events_dispatched` just like
    /// [`Kernel::next_event`], so a run with coalescing dispatches the
    /// same events in the same order as one without — only the handler
    /// granularity changes.
    pub(crate) fn coalesce_arrivals(
        &mut self,
        dst: ComponentId,
        port: usize,
        limit: SimTime,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        while let Some(time) = self.queue.next_due(limit) {
            if self.queue.due_to() != Some((dst, port)) {
                return;
            }
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.cur_key = self.queue.due_key();
            self.events_dispatched += 1;
            let packet = match self.queue.due() {
                Due::Frame => self.queue.take_frame(),
                Due::Burst => {
                    let burst = self.queue.take_burst();
                    self.coalesce_burst(dst, port, limit, burst, batch);
                    continue;
                }
                Due::Fallback => match self.queue.take_fallback() {
                    EventKind::Deliver { packet, .. } => packet,
                    EventKind::DeliverBurst { burst, .. } => {
                        self.coalesce_burst(dst, port, limit, burst, batch);
                        continue;
                    }
                    EventKind::Timer { .. } => unreachable!("a timer is no delivery"),
                },
                Due::Timer => unreachable!("a timer is no delivery"),
            };
            self.note_rx(dst, port, packet.frame_len());
            batch.push((time, packet));
        }
    }

    /// The burst arm of [`Kernel::coalesce_arrivals`]: `burst` was just
    /// taken at member 0's position, which accounted for member 0 only.
    /// The remaining members replay lazily (see `pop_burst_member`), so
    /// the batch a coalescing run hands to the sink is byte-identical to
    /// the scalar event stream's.
    fn coalesce_burst(
        &mut self,
        dst: ComponentId,
        port: usize,
        limit: SimTime,
        mut burst: Box<PacketBurst>,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        let (t0, pkt0) = burst.next().expect("bursts are non-empty");
        debug_assert_eq!(t0, self.now, "burst scheduled at member 0's arrival");
        self.note_rx(dst, port, pkt0.frame_len());
        batch.push((t0, pkt0));
        while let Some(member) = self.pop_burst_member(dst, port, &mut burst, limit) {
            batch.push(member);
        }
        if !burst.is_empty() {
            self.requeue_burst(dst, port, burst);
        }
    }

    /// Find the next event if it fires at or before `limit`, and stand
    /// the clock on it: the caller takes it from `self.queue` by its
    /// [`Due`].
    #[inline]
    pub(crate) fn next_event(&mut self, limit: SimTime) -> Option<SimTime> {
        let time = self.queue.next_due(limit)?;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.cur_key = self.queue.due_key();
        self.events_dispatched += 1;
        Some(time)
    }

    /// The end-of-run sweep: retire, on every port, the completions due
    /// at or before `horizon` that no reservation came by to retire.
    /// The clock needs no say in it: a frame is delivered no earlier
    /// than it completes, so a run that got as far as a completion's
    /// instant either dispatched an event at or after it or is about to
    /// set the clock to its limit.
    pub(crate) fn retire_through(&mut self, horizon: SimTime) {
        for p in self.ports.iter_mut().flatten() {
            self.events_dispatched += p.retire_while(|c| c.tx_end <= horizon);
        }
    }

    /// True once the attached supervision probe asked the run to stop.
    pub(crate) fn abort_requested(&self) -> bool {
        self.progress.as_ref().is_some_and(|p| p.abort_requested())
    }

    pub(crate) fn advance_now(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Number of events still pending: queue entries (lanes and
    /// fall-back heap alike) plus MAC completions not yet retired.
    pub fn pending_events(&self) -> usize {
        let completions: usize = self
            .ports
            .iter()
            .flatten()
            .map(|p| p.completions.len())
            .sum();
        self.queue.len() + completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::engine::SimBuilder;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What the kernel told a `Probe` per send: (predicted start,
    /// result, now, queued bytes after).
    type ProbeLog = Rc<RefCell<Vec<(SimTime, TxResult, SimTime, usize)>>>;

    /// Transmits on command and records what the kernel told it.
    struct Probe {
        plan: Vec<(SimTime, usize)>, // (when, frame_len)
        results: ProbeLog,
    }
    impl Component for Probe {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            for (i, (t, _)) in self.plan.iter().enumerate() {
                k.schedule_timer_at(me, *t, i as u64);
            }
        }
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            let (_, len) = self.plan[tag as usize];
            let predicted = k.next_tx_start(me, 0);
            let r = k.transmit(me, 0, Packet::zeroed(len));
            let queued = k.tx_queue_bytes(me, 0);
            self.results
                .borrow_mut()
                .push((predicted, r, k.now(), queued));
        }
    }

    struct Sink;
    impl Component for Sink {
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    }

    fn run(plan: Vec<(SimTime, usize)>) -> Vec<(SimTime, TxResult, SimTime, usize)> {
        run_capped(plan, None)
    }

    fn run_capped(
        plan: Vec<(SimTime, usize)>,
        cap: Option<usize>,
    ) -> Vec<(SimTime, TxResult, SimTime, usize)> {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let p = b.add_component(
            "probe",
            Box::new(Probe {
                plan,
                results: results.clone(),
            }),
            1,
        );
        let s = b.add_component("sink", Box::new(Sink), 1);
        b.connect(p, 0, s, 0, crate::link::LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.kernel_mut().set_tx_buffer(p, 0, cap);
        sim.run_until(SimTime::from_ms(10));
        let out = results.borrow().clone();
        out
    }

    #[test]
    fn next_tx_start_predicts_transmit_exactly() {
        // Two immediate sends: the second starts when the first's wire
        // slot ends.
        let r = run(vec![
            (SimTime::ZERO, 64),
            (SimTime::ZERO, 64),
            (SimTime::from_us(100), 1518),
        ]);
        for (predicted, result, _, _) in &r {
            let TxResult::Transmitted { tx_start, .. } = result else {
                panic!("expected transmit");
            };
            assert_eq!(predicted, tx_start);
        }
        let TxResult::Transmitted { tx_start, .. } = r[1].1 else {
            panic!()
        };
        assert_eq!(tx_start.as_ps(), 67_200, "second frame waits one slot");
    }

    #[test]
    fn queued_bytes_rise_then_drain() {
        let r = run(vec![(SimTime::ZERO, 64), (SimTime::ZERO, 64)]);
        // Right after the second transmit both frames are still in the
        // MAC (first is mid-serialisation at t=0).
        assert_eq!(r[1].3, 128);
        // And after the run everything drained — verified via a fresh
        // sim since we can't peek here; covered by the fact that both
        // frames were delivered (counter test below).
    }

    #[test]
    fn counters_and_queue_drain() {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let p = b.add_component(
            "probe",
            Box::new(Probe {
                plan: vec![(SimTime::ZERO, 64), (SimTime::ZERO, 1518)],
                results: results.clone(),
            }),
            1,
        );
        let s = b.add_component("sink", Box::new(Sink), 1);
        b.connect(p, 0, s, 0, crate::link::LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(1));
        let k = sim.kernel();
        let probe_id = ComponentId(0);
        let sink_id = ComponentId(1);
        assert_eq!(k.counters(probe_id, 0).tx_frames, 2);
        assert_eq!(k.counters(probe_id, 0).tx_bytes, 64 + 1518);
        assert_eq!(k.counters(sink_id, 0).rx_frames, 2);
        assert_eq!(k.tx_queue_bytes(probe_id, 0), 0, "MAC drained");
    }

    /// Sends one batch of `n` frames at t=0 via `transmit_batch`, or
    /// via `transmit_burst` when `as_burst` is set.
    struct BatchProbe {
        n: u64,
        as_burst: bool,
        tx_starts: Rc<RefCell<Vec<SimTime>>>,
        result: Rc<RefCell<Option<BatchTx>>>,
    }
    impl Component for BatchProbe {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            k.schedule_timer_at(me, SimTime::ZERO, 0);
        }
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
            let mut starts = Vec::new();
            let template = Packet::zeroed(64);
            if self.as_burst {
                let now = k.now();
                let frames = (0..self.n).map(|_| (now, template.clone()));
                *self.result.borrow_mut() = Some(k.transmit_burst(me, 0, frames));
                return;
            }
            let (n, mut sent) = (self.n, 0u64);
            let mut frames = |_tx_start: SimTime| {
                (sent < n).then(|| {
                    sent += 1;
                    template.clone()
                })
            };
            let r = k.transmit_batch(me, 0, &mut frames, Some(&mut starts));
            *self.tx_starts.borrow_mut() = starts;
            *self.result.borrow_mut() = Some(r);
        }
    }

    #[test]
    fn transmit_batch_matches_per_frame_wire_timing() {
        // Per-frame reference: three back-to-back 64B transmits.
        let per_frame = run(vec![
            (SimTime::ZERO, 64),
            (SimTime::ZERO, 64),
            (SimTime::ZERO, 64),
        ]);
        let reference: Vec<SimTime> = per_frame
            .iter()
            .map(|(_, r, _, _)| match r {
                TxResult::Transmitted { tx_start, .. } => *tx_start,
                other => panic!("expected transmit, got {other:?}"),
            })
            .collect();

        let tx_starts = Rc::new(RefCell::new(Vec::new()));
        let result = Rc::new(RefCell::new(None));
        let mut b = SimBuilder::new();
        let p = b.add_component(
            "batch",
            Box::new(BatchProbe {
                n: 3,
                as_burst: false,
                tx_starts: tx_starts.clone(),
                result: result.clone(),
            }),
            1,
        );
        let s = b.add_component("sink", Box::new(Sink), 1);
        b.connect(p, 0, s, 0, crate::link::LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(1));

        assert_eq!(*tx_starts.borrow(), reference, "same wire slots");
        let r = result.borrow().expect("batch ran");
        assert_eq!(r.accepted, 3);
        assert_eq!(r.accepted_bytes, 3 * 64);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.first_tx_start, Some(SimTime::ZERO));
        assert_eq!(r.last_tx_start, reference.last().copied());
        let k = sim.kernel();
        assert_eq!(k.counters(p, 0).tx_frames, 3);
        assert_eq!(k.counters(s, 0).rx_frames, 3);
        assert_eq!(
            k.tx_queue_bytes(p, 0),
            0,
            "the batch's one completion drained the MAC"
        );
    }

    /// Five 64 B frames at t=0 through a port with room for two.
    fn capped_batch(as_burst: bool) -> (BatchTx, PortCounters, PortCounters) {
        let result = Rc::new(RefCell::new(None));
        let mut b = SimBuilder::new();
        let p = b.add_component(
            "batch",
            Box::new(BatchProbe {
                n: 5,
                as_burst,
                tx_starts: Rc::new(RefCell::new(Vec::new())),
                result: result.clone(),
            }),
            1,
        );
        let s = b.add_component("sink", Box::new(Sink), 1);
        b.connect(p, 0, s, 0, crate::link::LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.kernel_mut().set_tx_buffer(p, 0, Some(128));
        sim.run_until(SimTime::from_ms(1));
        let r = result.borrow().expect("batch ran");
        (r, sim.kernel().counters(p, 0), sim.kernel().counters(s, 0))
    }

    #[test]
    fn transmit_batch_respects_buffer_cap() {
        let (r, tx, rx) = capped_batch(false);
        assert_eq!(r.accepted, 2);
        assert_eq!(r.accepted_bytes, 2 * 64);
        assert_eq!(r.dropped, 3);
        assert_eq!(tx.tx_drops, 3);
        assert_eq!(rx.rx_frames, 2);
    }

    #[test]
    fn transmit_burst_on_a_capped_port_accounts_like_per_frame_transmits() {
        let per_frame = run_capped(vec![(SimTime::ZERO, 64); 5], Some(128));
        let accepted = per_frame
            .iter()
            .filter(|(_, r, _, _)| r.is_transmitted())
            .count() as u64;
        let (r, tx, rx) = capped_batch(true);
        assert_eq!(r.accepted, accepted);
        assert_eq!(
            r.accepted_bytes,
            accepted * 64,
            "bytes of the accepted members"
        );
        assert_eq!(r.dropped, per_frame.len() as u64 - accepted);
        assert_eq!(tx.tx_drops, r.dropped);
        assert_eq!(rx.rx_frames, accepted);
    }

    /// Two wired sinks with the clock at 1 µs, and a frame whose
    /// earliest start is 1 ns before that. A stale `earliest` would put
    /// a delivery in the past and reorder arrivals, so the guard holds
    /// in release builds too (where the benchmark and every experiment
    /// binary run).
    fn offer_a_stale_start(offer: impl FnOnce(&mut Kernel, ComponentId, SimTime, Packet)) {
        let mut b = SimBuilder::new();
        let a = b.add_component("a", Box::new(Sink), 1);
        let c = b.add_component("c", Box::new(Sink), 1);
        b.connect(a, 0, c, 0, crate::link::LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_us(1));
        let stale = SimTime::from_ns(999);
        offer(sim.kernel_mut(), a, stale, Packet::zeroed(64));
    }

    #[test]
    #[should_panic(expected = "is in the past")]
    fn transmit_at_refuses_a_start_before_now_in_every_build() {
        offer_a_stale_start(|k, a, stale, pkt| {
            let _ = k.transmit_at(a, 0, stale, pkt);
        });
    }

    #[test]
    #[should_panic(expected = "is in the past")]
    fn transmit_burst_refuses_a_start_before_now_in_every_build() {
        offer_a_stale_start(|k, a, stale, pkt| {
            let _ = k.transmit_burst(a, 0, [(stale, pkt)]);
        });
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut b = SimBuilder::new();
        let a = b.add_component("a", Box::new(Sink), 1);
        let c = b.add_component("c", Box::new(Sink), 1);
        let d = b.add_component("d", Box::new(Sink), 1);
        b.connect(a, 0, c, 0, crate::link::LinkSpec::ten_gig());
        b.connect(a, 0, d, 0, crate::link::LinkSpec::ten_gig());
    }

    /// Two one-port components wired together at `bandwidth_bps`.
    fn wired_at(bandwidth_bps: u64) -> crate::Sim {
        let mut b = SimBuilder::new();
        let a = b.add_component("a", Box::new(Sink), 1);
        let c = b.add_component("c", Box::new(Sink), 1);
        let spec = crate::link::LinkSpec {
            bandwidth_bps,
            ..crate::link::LinkSpec::ten_gig()
        };
        b.connect(a, 0, c, 0, spec);
        b.build()
    }

    #[test]
    fn reserve_times_every_wire_length_exactly() {
        for bandwidth_bps in [1_000_000_000u64, 10_000_000_000] {
            let mut sim = wired_at(bandwidth_bps);
            let p = &mut sim.kernel_mut().ports[0][0];
            let exact =
                |bytes: usize| (bytes as u128 * 8_000_000_000_000 / bandwidth_bps as u128) as u64;
            for wire_len in (24..=9_038).chain([65_555]) {
                let before = p.busy_until;
                let slot = p
                    .reserve(before, wire_len - osnt_packet::WIRE_OVERHEAD, wire_len)
                    .expect("uncapped port");
                assert_eq!(slot.tx_start, before);
                let visible = (slot.tx_end - slot.tx_start).as_ps();
                let total = (p.busy_until - slot.tx_start).as_ps();
                assert_eq!(
                    visible,
                    exact(wire_len - IFG_LEN),
                    "{bandwidth_bps} b/s, {wire_len} B"
                );
                assert_eq!(total, exact(wire_len), "{bandwidth_bps} b/s, {wire_len} B");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a 3000000000 b/s link has no whole-picosecond byte time")]
    fn connect_refuses_a_rate_without_a_whole_picosecond_byte() {
        wired_at(3_000_000_000);
    }

    #[test]
    #[should_panic(expected = "a 0 b/s link")]
    fn connect_refuses_a_zero_rate() {
        wired_at(0);
    }

    #[test]
    #[should_panic(expected = "has no port")]
    fn bad_port_panics() {
        let mut b = SimBuilder::new();
        let a = b.add_component("a", Box::new(Sink), 1);
        let c = b.add_component("c", Box::new(Sink), 1);
        b.connect(a, 5, c, 0, crate::link::LinkSpec::ten_gig());
    }
}
