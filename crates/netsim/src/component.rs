//! The component model: everything attached to the simulated network.

use crate::burst::PacketBurst;
use crate::kernel::Kernel;
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};

/// Identifies a component within one simulation. Handed out by
/// [`crate::SimBuilder::add_component`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) usize);

impl ComponentId {
    /// The raw index (stable for the life of the simulation).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A device attached to the simulated network: a tester port pipeline, a
/// switch, a host, a controller.
///
/// Handlers receive `&mut Kernel` for scheduling and transmission and must
/// not block; all waiting is expressed by scheduling timers. The
/// simulation is single-threaded, so handlers run to completion — the
/// cooperative-scheduling discipline of an async reactor, with the event
/// queue as the reactor.
pub trait Component {
    /// Called once when the simulation starts (time zero), before any
    /// other event. Use it to arm initial timers or send first frames.
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        let _ = (kernel, me);
    }

    /// A frame fully arrived on `port` (the instant its last bit was
    /// received — where OSNT hardware takes its RX timestamp).
    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet);

    /// A timer armed with [`Kernel::schedule_timer`] fired. `tag` is the
    /// caller-chosen discriminator.
    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        let _ = (kernel, me, tag);
    }

    /// Opt into burst delivery: when true, the dispatch loop hands
    /// consecutive same-port arrivals to [`Component::on_packet_batch`]
    /// in one call instead of one [`Component::on_packet`] each.
    ///
    /// Intended for pure *sinks*: the kernel pops the whole run of
    /// back-to-back `Deliver` events up front, so during the batch
    /// handler `Kernel::now()` reads the *batch-end* instant — per-frame
    /// arrival instants come with the batch. Components that transmit or
    /// schedule timers from their packet handler should not opt in
    /// without a [`Component::batch_window`] (their scheduling would see
    /// batch-end time rather than each frame's arrival time).
    ///
    /// No component in the workspace opts in: switch and monitor take
    /// every frame through [`Component::on_packet`]. The facility is
    /// kept under test by `crates/netsim/tests/burst_parity.rs`
    /// (a batch-capable forwarder and sink against scalar twins).
    fn wants_packet_batches(&self) -> bool {
        false
    }

    /// Per-port refinement of [`Component::wants_packet_batches`]:
    /// individual ports can opt out of batching while the rest batch —
    /// e.g. a control channel whose handler transmits immediate replies,
    /// which need per-frame `now`. Defaults to the component-wide
    /// answer.
    fn wants_packet_batches_on(&self, port: usize) -> bool {
        let _ = port;
        self.wants_packet_batches()
    }

    /// Bound how far past a batch's first arrival the dispatch loop may
    /// coalesce, making batching sound for components that *schedule*
    /// from their packet handler.
    ///
    /// A handler processing member `j` (arrival `t_j`) may schedule
    /// events no earlier than `t_j + D`, where `D` is the component's
    /// minimum side-effect delay (e.g. a switch fabric's lookup
    /// latency). If the coalescing window is capped at `t_0 + w` with
    /// `w <= D`, two things follow: every event the batch handler
    /// schedules lands at or after the batch-end `now` (no retroactive
    /// scheduling), and the scalar run would not have fired any of this
    /// handler's own events *inside* the window either — so the batch
    /// contains exactly the deliveries the scalar run would have
    /// processed back-to-back, and total order stays byte-identical.
    ///
    /// Return `Some(w)` with `w` no greater than the component's
    /// minimum side-effect delay. `None` (the default) means unbounded,
    /// which is only sound for components that schedule nothing from
    /// their packet handler (pure sinks).
    fn batch_window(&self) -> Option<SimDuration> {
        None
    }

    /// A burst of frames arrived on `port`; `batch` holds each frame
    /// with the instant its last bit was received, in arrival order.
    /// Only called when [`Component::wants_packet_batches`] is true.
    /// The default implementation replays the scalar path one frame at
    /// a time, so opting in without overriding this changes nothing.
    ///
    /// **A batch of one is a packet.** Behind a fabric that releases
    /// each frame on its own timer every batch has one member. It must
    /// behave as `on_packet` at that member's instant, so overrides
    /// route `batch.len() == 1` to their scalar code, not their block
    /// path.
    fn on_packet_batch(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        port: usize,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        for (_, packet) in batch.drain(..) {
            self.on_packet(kernel, me, port, packet);
        }
    }

    /// Opt into burst *forwarding*: when true, a [`crate::PacketBurst`]
    /// arriving on the wire is handed to [`Component::on_burst`] whole —
    /// one handler call, one queue entry in and (via
    /// [`Kernel::transmit_burst`]) one queue entry out — instead of
    /// being split back into per-member [`Component::on_packet`] calls.
    ///
    /// Intended for stateless-per-frame *forwarders*
    /// ([`crate::FaultyLink`] is the one in the workspace). The contract
    /// differs from the scalar path in one way: during [`Component::on_burst`],
    /// [`Kernel::now`] reads the **first** member's arrival instant for
    /// the whole call. Handlers must therefore derive timing from each
    /// member's own arrival time — re-transmit with
    /// [`Kernel::transmit_burst`] / [`Kernel::transmit_at`] and schedule
    /// with [`Kernel::schedule_timer_at`] — never from `now()` offsets.
    /// Components whose observable behaviour depends on the *global*
    /// event interleaving between two member arrivals (not just on the
    /// members themselves) must not opt in; the default scalar dispatch
    /// replays exact total order for them.
    fn wants_bursts(&self) -> bool {
        false
    }

    /// A burst of frames arrived on `port` (only called when
    /// [`Component::wants_bursts`] is true). Members carry their exact
    /// per-frame arrival instants in ascending order; `kernel.now()`
    /// stays at the first member's arrival for the whole call (see
    /// [`Component::wants_bursts`]). The default implementation replays
    /// the scalar path one member at a time.
    fn on_burst(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, burst: PacketBurst) {
        for (_, packet) in burst {
            self.on_packet(kernel, me, port, packet);
        }
    }

    /// Human-readable name for traces and panics.
    fn name(&self) -> &str {
        "component"
    }
}
