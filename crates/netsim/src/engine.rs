//! Simulation assembly and the run loop.

use crate::burst::PacketBurst;
use crate::component::{Component, ComponentId};
use crate::event::EventKind;
use crate::kernel::Kernel;
use crate::lanes::Due;
use crate::link::LinkSpec;
use osnt_packet::Packet;
use osnt_time::SimTime;

/// Declarative construction of a simulation: add components, wire ports,
/// then [`SimBuilder::build`].
pub struct SimBuilder {
    kernel: Kernel,
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
}

impl SimBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        SimBuilder {
            kernel: Kernel::new(),
            components: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Add a component with `n_ports` full-duplex ports; returns its id.
    pub fn add_component(
        &mut self,
        name: &str,
        component: Box<dyn Component>,
        n_ports: usize,
    ) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.kernel.add_component_ports(n_ports);
        self.components.push(Some(component));
        self.names.push(name.to_string());
        id
    }

    /// Wire `a`'s port `pa` to `b`'s port `pb` with a symmetric
    /// full-duplex link (the same spec in each simplex direction).
    pub fn connect(
        &mut self,
        a: ComponentId,
        pa: usize,
        b: ComponentId,
        pb: usize,
        spec: LinkSpec,
    ) {
        self.connect_asym(a, pa, b, pb, spec, spec);
    }

    /// Wire `a`'s port `pa` to `b`'s port `pb` with an asymmetric
    /// full-duplex link: `spec_ab` governs the `a → b` direction,
    /// `spec_ba` the `b → a` direction (e.g. a 10G downstream / 1G
    /// upstream pair, or unequal cable runs).
    pub fn connect_asym(
        &mut self,
        a: ComponentId,
        pa: usize,
        b: ComponentId,
        pb: usize,
        spec_ab: LinkSpec,
        spec_ba: LinkSpec,
    ) {
        self.kernel.connect_simplex(a, pa, b, pb, spec_ab);
        self.kernel.connect_simplex(b, pb, a, pa, spec_ba);
    }

    /// Finish construction.
    pub fn build(self) -> Sim {
        Sim {
            kernel: self.kernel,
            components: self.components,
            names: self.names,
            started: false,
        }
    }
}

/// How far past a batch's first arrival (`first`) the dispatch loop may
/// coalesce for `c`: components that schedule from their handler bound
/// the window ([`Component::batch_window`]) so nothing they arm can land
/// before batch-end `now`.
fn batch_limit(c: &dyn Component, first: SimTime, limit: SimTime) -> SimTime {
    match c.batch_window() {
        Some(w) => limit.min(first + w),
        None => limit,
    }
}

/// Hand `first` — already taken and accounted, `now` at its arrival —
/// to a batch-capable receiver together with whatever coalesces behind
/// it before `lim`.
fn deliver_run(
    kernel: &mut Kernel,
    c: &mut dyn Component,
    dst: ComponentId,
    port: usize,
    lim: SimTime,
    first: (SimTime, Packet),
) {
    let mut batch = std::mem::take(&mut kernel.batch_buf);
    batch.push(first);
    kernel.coalesce_arrivals(dst, port, lim, &mut batch);
    c.on_packet_batch(kernel, dst, port, &mut batch);
    batch.clear();
    kernel.batch_buf = batch;
}

/// Take `id` out of `components` for one handler call; a dispatch to a
/// component whose handler is running is a bug.
fn take_component(
    components: &mut [Option<Box<dyn Component>>],
    id: ComponentId,
) -> Box<dyn Component> {
    components[id.index()]
        .take()
        .unwrap_or_else(|| panic!("re-entrant dispatch to {}", id.index()))
}

/// A timer of `target` fires.
fn fire_timer(
    kernel: &mut Kernel,
    components: &mut [Option<Box<dyn Component>>],
    target: ComponentId,
    tag: u64,
) {
    let mut c = take_component(components, target);
    c.on_timer(kernel, target, tag);
    components[target.index()] = Some(c);
}

/// `packet` arrives at `(dst, port)` at `time`, the instant it was
/// taken at.
fn deliver_frame(
    kernel: &mut Kernel,
    components: &mut [Option<Box<dyn Component>>],
    (dst, port): (ComponentId, usize),
    time: SimTime,
    packet: Packet,
    limit: SimTime,
) {
    kernel.note_rx(dst, port, packet.frame_len());
    let mut c = take_component(components, dst);
    // Batch delivery: when the receiver opts in, drain the run of
    // back-to-back arrivals to the same port in one handler call. Every
    // coalesced event is taken at its exact total-order position (see
    // `Kernel::coalesce_arrivals`), so event order, counters and
    // `events_dispatched` are identical to the scalar path — only the
    // handler granularity changes.
    if c.wants_packet_batches_on(port) {
        let lim = batch_limit(&*c, time, limit);
        deliver_run(kernel, &mut *c, dst, port, lim, (time, packet));
    } else {
        c.on_packet(kernel, dst, port, packet);
    }
    components[dst.index()] = Some(c);
}

/// `burst` arrives at `(dst, port)`, member 0 at `time`, the instant it
/// was taken at.
fn deliver_burst(
    kernel: &mut Kernel,
    components: &mut [Option<Box<dyn Component>>],
    (dst, port): (ComponentId, usize),
    time: SimTime,
    mut burst: Box<PacketBurst>,
    limit: SimTime,
) {
    let mut c = take_component(components, dst);
    if c.wants_bursts() {
        // Members past the window limit re-enter the queue under their
        // own keys; the rest go to the handler whole. `now` stays at
        // member 0's arrival for the duration of the call (see
        // `Component::wants_bursts` for the timing contract).
        if let Some(tail) = burst.split_after(limit) {
            kernel.requeue_burst(dst, port, Box::new(tail));
        }
        for (_, packet) in burst.members() {
            kernel.note_rx(dst, port, packet.frame_len());
        }
        kernel.events_dispatched += burst.len() as u64 - 1;
        c.on_burst(kernel, dst, port, *burst);
    } else if c.wants_packet_batches_on(port) {
        // Batch sinks: member 0 seeds the arrival batch and the tail
        // re-enters the queue, where `coalesce_arrivals` consumes it
        // member-at-a-time in exact total order.
        let lim = batch_limit(&*c, time, limit);
        let (t0, pkt0) = burst.pop_front().expect("bursts are non-empty");
        kernel.note_rx(dst, port, pkt0.frame_len());
        if !burst.is_empty() {
            kernel.requeue_burst(dst, port, burst);
        }
        deliver_run(kernel, &mut *c, dst, port, lim, (t0, pkt0));
    } else {
        // Exact scalar replay: each member dispatches at its own
        // `(time, key)` slot, yielding to the queue head whenever that
        // would scalar-dispatch first (see `Kernel::pop_burst_member`).
        // Byte-identical total order.
        let (_t0, pkt0) = burst.pop_front().expect("bursts are non-empty");
        kernel.note_rx(dst, port, pkt0.frame_len());
        c.on_packet(kernel, dst, port, pkt0);
        while let Some((_, pkt)) = kernel.pop_burst_member(dst, port, &mut burst, limit) {
            c.on_packet(kernel, dst, port, pkt);
        }
        if !burst.is_empty() {
            kernel.requeue_burst(dst, port, burst);
        }
    }
    components[dst.index()] = Some(c);
}

/// The shared run loop: take and run every event at or before `limit`,
/// retire the MAC completions due by then, and set the clock. The whole
/// of [`Sim::run_until`] and [`Sim::run_to_quiescence`].
///
/// The clock ends at `limit`, with two exceptions. `SimTime::MAX` is no
/// limit at all ([`Sim::run_to_quiescence`]): the clock then stays at
/// the last thing that happened, so the drained simulation can be given
/// more work. And an abort requested through the probe leaves it at the
/// last dispatched event.
///
/// `max_events` is the run's event budget (`u64::MAX` for none): the
/// loop panics once it has dispatched more, so a simulation that never
/// quiesces — a component re-arming a timer forever — fails instead of
/// hanging.
///
/// When a [`osnt_time::ProgressProbe`] is attached the loop publishes
/// its simulated-time high-water mark and honours the probe's
/// cooperative abort flag: a raised flag stops dispatch at the next
/// heartbeat, which is what lets a watchdog unwedge a livelocked
/// simulation — events that never advance virtual time still pass
/// through this check.
fn run_kernel_until(
    kernel: &mut Kernel,
    components: &mut [Option<Box<dyn Component>>],
    limit: SimTime,
    max_events: u64,
) -> u64 {
    // Heartbeat amortization: publishing through the shared probe costs
    // two lock-prefixed RMWs, which at multi-Mpps dispatch rates is a
    // measurable tax (the e11 bench gates it). Beating every 64th event
    // keeps the watchdog's wall-clock resolution microscopic while
    // making the common-case event free of shared-cacheline traffic.
    // The event budget is checked on the same stride, so it costs the
    // per-event path nothing.
    const HEARTBEAT_EVERY: u64 = 64;
    let check_budget = |n: u64| {
        assert!(
            n <= max_events,
            "simulation did not quiesce within {max_events} events"
        )
    };
    // This run's events are what the kernel's own tally grows by: queue
    // pops, burst members, and the completions ports retire along the
    // way — one count, kept where all three happen.
    let start = kernel.events_dispatched;
    // This run's events as of the last beat; the difference is what the
    // next beat publishes.
    let mut beat_mark = 0;
    while let Some(time) = kernel.next_event(limit) {
        let dispatched = kernel.events_dispatched - start;
        if dispatched - beat_mark >= HEARTBEAT_EVERY {
            check_budget(dispatched);
            let since_beat = dispatched - beat_mark;
            beat_mark = dispatched;
            if let Some(probe) = kernel.progress.as_ref() {
                probe.advance_time(time.as_ps());
                probe.tick_by(since_beat);
                if probe.abort_requested() {
                    break;
                }
            }
        }
        let queue = &mut kernel.queue;
        match queue.due() {
            Due::Timer => {
                let (target, tag) = queue.take_timer();
                fire_timer(kernel, components, target, tag);
            }
            Due::Frame => {
                let to = queue.to();
                let packet = queue.take_frame();
                deliver_frame(kernel, components, to, time, packet, limit);
            }
            Due::Burst => {
                let to = queue.to();
                let burst = queue.take_burst();
                deliver_burst(kernel, components, to, time, burst, limit);
            }
            Due::Fallback => match queue.take_fallback() {
                EventKind::Timer { target, tag } => fire_timer(kernel, components, target, tag),
                EventKind::Deliver { dst, port, packet } => {
                    deliver_frame(kernel, components, (dst, port), time, packet, limit)
                }
                EventKind::DeliverBurst { dst, port, burst } => {
                    deliver_burst(kernel, components, (dst, port), time, burst, limit)
                }
            },
        }
    }
    // Completions no reservation came by to retire are events of this
    // run too: they count towards the result, the beat and the budget.
    let aborted = kernel.abort_requested();
    kernel.retire_through(if aborted { kernel.now() } else { limit });
    let dispatched = kernel.events_dispatched - start;
    // Flush the residual beat so `last_progress` in abort reports (and
    // any final watchdog observation) reflects the true high-water mark
    // (`now` is the instant of the last thing that happened).
    if let Some(probe) = kernel.progress.as_ref() {
        if dispatched > beat_mark {
            probe.advance_time(kernel.now().as_ps());
            probe.tick_by(dispatched - beat_mark);
        }
    }
    check_budget(dispatched);
    if !aborted && limit != SimTime::MAX {
        kernel.advance_now(limit);
    }
    dispatched
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder::new()
    }
}

/// A runnable simulation.
pub struct Sim {
    kernel: Kernel,
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
    started: bool,
}

impl Sim {
    /// The kernel (time, counters, manual scheduling from harness code).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access for harness code between runs.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// A component's registered name.
    pub fn name_of(&self, id: ComponentId) -> &str {
        &self.names[id.index()]
    }

    /// Attach a supervision probe: the dispatch loop publishes its
    /// simulated-time high-water mark into it and stops early (without
    /// advancing the clock) once the probe's abort flag is raised.
    pub fn attach_progress(&mut self, probe: std::sync::Arc<osnt_time::ProgressProbe>) {
        self.kernel.progress = Some(probe);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.components.len() {
            let id = ComponentId(i);
            let mut c = self.components[i].take().expect("component in place");
            c.on_start(&mut self.kernel, id);
            self.components[i] = Some(c);
        }
    }

    /// Run every event scheduled at or before `limit`, then advance the
    /// clock to `limit`. Returns the number of events dispatched. An
    /// abort requested through the attached progress probe stops the
    /// run early, leaving the clock at the last dispatched event.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        self.start_if_needed();
        run_kernel_until(&mut self.kernel, &mut self.components, limit, u64::MAX)
    }

    /// Drain every pending event (the simulation must quiesce — a
    /// periodic timer would run forever, so a safety cap of `max_events`
    /// aborts with a panic if exceeded). The clock is left at the
    /// instant of the last thing that happened, so harness code can arm
    /// a timer or transmit and run again.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.start_if_needed();
        run_kernel_until(
            &mut self.kernel,
            &mut self.components,
            SimTime::MAX,
            max_events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TxResult;
    use osnt_packet::Packet;
    use osnt_time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sends `n` back-to-back frames of `frame_len` at start.
    struct Blaster {
        n: usize,
        frame_len: usize,
        results: Rc<RefCell<Vec<TxResult>>>,
    }
    impl Component for Blaster {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            for _ in 0..self.n {
                let r = k.transmit(me, 0, Packet::zeroed(self.frame_len));
                self.results.borrow_mut().push(r);
            }
        }
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    }

    /// Records arrival times.
    struct Sink {
        arrivals: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Component for Sink {
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
            self.arrivals.borrow_mut().push(k.now());
        }
    }

    type Shared<T> = Rc<RefCell<Vec<T>>>;

    fn two_node_sim(n: usize, frame_len: usize) -> (Sim, Shared<TxResult>, Shared<SimTime>) {
        let results = Rc::new(RefCell::new(Vec::new()));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let tx = b.add_component(
            "blaster",
            Box::new(Blaster {
                n,
                frame_len,
                results: results.clone(),
            }),
            1,
        );
        let rx = b.add_component(
            "sink",
            Box::new(Sink {
                arrivals: arrivals.clone(),
            }),
            1,
        );
        b.connect(tx, 0, rx, 0, LinkSpec::ten_gig());
        (b.build(), results, arrivals)
    }

    #[test]
    fn single_frame_timing_is_exact() {
        let (mut sim, results, arrivals) = two_node_sim(1, 64);
        sim.run_until(SimTime::from_us(10));
        let res = results.borrow();
        let TxResult::Transmitted { tx_start, delivery } = res[0] else {
            panic!("not transmitted");
        };
        assert_eq!(tx_start, SimTime::ZERO);
        // Visible wire time: (84 - 12) bytes × 800 ps = 57.6 ns, plus
        // 10 ns propagation = 67.6 ns.
        assert_eq!(delivery.as_ps(), 57_600 + 10_000);
        assert_eq!(arrivals.borrow()[0], delivery);
    }

    #[test]
    fn back_to_back_frames_are_spaced_at_line_rate() {
        let (mut sim, _results, arrivals) = two_node_sim(100, 64);
        sim.run_until(SimTime::from_ms(1));
        let a = arrivals.borrow();
        assert_eq!(a.len(), 100);
        // Spacing between consecutive 64B frames at 10G is exactly
        // 84 B × 800 ps = 67.2 ns.
        for w in a.windows(2) {
            assert_eq!((w[1] - w[0]).as_ps(), 67_200);
        }
    }

    #[test]
    fn mixed_sizes_preserve_fifo_and_spacing() {
        // 64B then 1518B then 64B: second frame arrives after the first
        // plus its own serialisation.
        let results = Rc::new(RefCell::new(Vec::new()));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        struct Mixed {
            results: Rc<RefCell<Vec<TxResult>>>,
        }
        impl Component for Mixed {
            fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
                for len in [64usize, 1518, 64] {
                    let r = k.transmit(me, 0, Packet::zeroed(len));
                    self.results.borrow_mut().push(r);
                }
            }
            fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        }
        let mut b = SimBuilder::new();
        let tx = b.add_component(
            "mixed",
            Box::new(Mixed {
                results: results.clone(),
            }),
            1,
        );
        let rx = b.add_component(
            "sink",
            Box::new(Sink {
                arrivals: arrivals.clone(),
            }),
            1,
        );
        b.connect(tx, 0, rx, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_us(100));
        let a = arrivals.borrow();
        assert_eq!(a.len(), 3);
        // Frame 2 starts at 67.2 ns (after frame 1 incl. IFG), takes
        // (1538-12)*800 ps visible, arrives +10 ns propagation.
        assert_eq!(a[1].as_ps(), 67_200 + 1_526 * 800 + 10_000);
        // Frame 3 starts after frame 2's full wire time.
        assert_eq!(a[2].as_ps(), 67_200 + 1_538 * 800 + 72 * 800 + 10_000);
    }

    #[test]
    fn unconnected_port_reports_not_connected() {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        b.add_component(
            "lonely",
            Box::new(Blaster {
                n: 1,
                frame_len: 64,
                results: results.clone(),
            }),
            1,
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_us(1));
        assert_eq!(results.borrow()[0], TxResult::NotConnected);
    }

    #[test]
    fn buffer_limit_drops_excess_frames() {
        let (mut sim, results, arrivals) = {
            let results = Rc::new(RefCell::new(Vec::new()));
            let arrivals = Rc::new(RefCell::new(Vec::new()));
            let mut b = SimBuilder::new();
            let tx = b.add_component(
                "blaster",
                Box::new(Blaster {
                    n: 10,
                    frame_len: 64,
                    results: results.clone(),
                }),
                1,
            );
            let rx = b.add_component(
                "sink",
                Box::new(Sink {
                    arrivals: arrivals.clone(),
                }),
                1,
            );
            b.connect(tx, 0, rx, 0, LinkSpec::ten_gig());
            let mut sim = b.build();
            // Room for 3 × 64B frames only.
            sim.kernel_mut().set_tx_buffer(tx, 0, Some(200));
            (sim, results, arrivals)
        };
        sim.run_until(SimTime::from_ms(1));
        let sent = results
            .borrow()
            .iter()
            .filter(|r| r.is_transmitted())
            .count();
        assert_eq!(sent, 3);
        assert_eq!(arrivals.borrow().len(), 3);
        let drops = results
            .borrow()
            .iter()
            .filter(|r| matches!(r, TxResult::Dropped))
            .count();
        assert_eq!(drops, 7);
    }

    #[test]
    fn counters_track_tx_rx() {
        let (mut sim, _r, _a) = two_node_sim(5, 128);
        sim.run_until(SimTime::from_ms(1));
        let tx = sim.kernel().counters(ComponentId(0), 0);
        let rx = sim.kernel().counters(ComponentId(1), 0);
        assert_eq!(tx.tx_frames, 5);
        assert_eq!(tx.tx_bytes, 5 * 128);
        assert_eq!(rx.rx_frames, 5);
        assert_eq!(rx.rx_bytes, 5 * 128);
        assert_eq!(tx.tx_drops, 0);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let (mut sim, _r, _a) = two_node_sim(0, 64);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.kernel().now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_to_quiescence_drains_everything() {
        let (mut sim, _r, arrivals) = two_node_sim(50, 64);
        let n = sim.run_to_quiescence(10_000);
        assert_eq!(n, 100); // 50 deliveries + 50 completions
        assert_eq!(arrivals.borrow().len(), 50);
        assert_eq!(sim.kernel().pending_events(), 0);
    }

    /// A drain leaves the clock where the run ended, not at the end of
    /// time: `now()` says when, and the simulation can be given more
    /// work.
    #[test]
    fn a_drained_simulation_keeps_its_clock_and_takes_more_work() {
        let (mut sim, _r, arrivals) = two_node_sim(3, 64);
        sim.run_to_quiescence(100);
        let last_arrival = *arrivals.borrow().last().expect("three arrivals");
        assert_eq!(sim.kernel().now(), last_arrival);

        let blaster = ComponentId(0);
        let k = sim.kernel_mut();
        k.schedule_timer(blaster, SimDuration::from_ns(10), 0);
        assert!(k.transmit(blaster, 0, Packet::zeroed(64)).is_transmitted());
        // The timer, the frame's completion and its delivery.
        assert_eq!(sim.run_to_quiescence(100), 3);
        assert_eq!(arrivals.borrow().len(), 4);
        assert_eq!(sim.kernel().now(), *arrivals.borrow().last().unwrap());
        assert_eq!(sim.kernel().pending_events(), 0);
    }

    /// Re-arms a 10 ns timer forever: a simulation that never quiesces.
    struct Metronome;
    impl Component for Metronome {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            k.schedule_timer(me, SimDuration::from_ns(10), 0);
        }
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _: u64) {
            k.schedule_timer(me, SimDuration::from_ns(10), 0);
        }
    }

    #[test]
    #[should_panic(expected = "did not quiesce within 1000 events")]
    fn run_to_quiescence_enforces_its_event_cap() {
        let mut b = SimBuilder::new();
        b.add_component("metronome", Box::new(Metronome), 0);
        b.build().run_to_quiescence(1_000);
    }

    /// Arrivals order by time, and at the same instant by source
    /// component id — never by the order the sources were scheduled.
    #[test]
    fn same_instant_arrivals_order_by_source_id() {
        struct OneShot(SimTime);
        impl Component for OneShot {
            fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
                k.schedule_timer_at(me, self.0, 0);
            }
            fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
            fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _: u64) {
                let _ = k.transmit(me, 0, Packet::zeroed(64));
            }
        }
        struct PortLog(Rc<RefCell<Vec<usize>>>);
        impl Component for PortLog {
            fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, port: usize, _: Packet) {
                self.0.borrow_mut().push(port);
            }
        }
        // Sources in id order depart at (500, 500, 100) ns into sink
        // ports (2, 1, 0): the early one first, then the tie by id.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let srcs = [500, 500, 100]
            .map(|ns| b.add_component("src", Box::new(OneShot(SimTime::from_ns(ns))), 1));
        let sink = b.add_component("sink", Box::new(PortLog(log.clone())), 3);
        for (src, port) in srcs.into_iter().zip([2, 1, 0]) {
            b.connect(src, 0, sink, port, LinkSpec::ten_gig());
        }
        b.build().run_until(SimTime::from_us(10));
        assert_eq!(*log.borrow(), [0, 2, 1]);
    }

    #[test]
    fn timers_fire_in_order_with_tags() {
        struct TimerBox {
            log: Rc<RefCell<Vec<(u64, SimTime)>>>,
        }
        impl Component for TimerBox {
            fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
                k.schedule_timer(me, SimDuration::from_ns(30), 3);
                k.schedule_timer(me, SimDuration::from_ns(10), 1);
                k.schedule_timer(me, SimDuration::from_ns(20), 2);
            }
            fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
            fn on_timer(&mut self, k: &mut Kernel, _: ComponentId, tag: u64) {
                self.log.borrow_mut().push((tag, k.now()));
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        b.add_component("timers", Box::new(TimerBox { log: log.clone() }), 0);
        let mut sim = b.build();
        sim.run_until(SimTime::from_us(1));
        let l = log.borrow();
        assert_eq!(
            *l,
            vec![
                (1, SimTime::from_ns(10)),
                (2, SimTime::from_ns(20)),
                (3, SimTime::from_ns(30)),
            ]
        );
    }

    #[test]
    fn determinism_same_build_same_trace() {
        let run = || {
            let (mut sim, _r, arrivals) = two_node_sim(25, 512);
            sim.run_until(SimTime::from_ms(1));
            let result = arrivals.borrow().clone();
            result
        };
        assert_eq!(run(), run());
    }
}
