//! Per-layer spans taken from outside the product: [`Spanned`] wraps a
//! component, forwards all ten [`Component`] methods and takes an
//! `Instant` pair around the five handlers.
//!
//! Handlers never nest (a handler only queues events; the kernel
//! dispatches them after it returns), so a layer's span is its self
//! time, *including* the `Kernel::transmit*` / `schedule_timer` work the
//! handler calls. What the spans leave of the run's wall time is the
//! kernel's own: wheel, dispatch, coalescing.
//!
//! Calls and frames are counted on every call. Time is taken on every
//! [`Layer::stride`]-th call of a layer and scaled by calls over timed
//! calls: an `Instant` pair costs ~60 ns on the reference host, and the
//! demo Part I load makes four handler calls per ~370 ns frame, so a
//! pair around each would nearly double the run it measures and charge
//! half of every clock read to the kernel's share.

use osnt_netsim::{Component, ComponentId, Kernel, PacketBurst};
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// The layers a handler span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Gen,
    Link,
    Switch,
    Mon,
    Controller,
}

impl Layer {
    /// One handler call in this many is timed. Data-plane layers make 10⁴–10⁶ near-identical calls per rep; 7 shares no
    /// factor with the periods they run in (lanes of 8, bursts of 32, a
    /// packet-then-timer pair). The control plane makes a few hundred
    /// calls of wildly different weight, so each one is timed.
    fn stride(self) -> u64 {
        match self {
            Layer::Controller => 1,
            _ => 7,
        }
    }
}

pub const LAYERS: [Layer; 5] = [
    Layer::Gen,
    Layer::Link,
    Layer::Switch,
    Layer::Mon,
    Layer::Controller,
];

/// What one layer's handlers did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Wall time inside the timed handler calls…
    pub timed_ns: u64,
    /// …and how many of the calls were timed.
    pub timed_calls: u64,
    /// Handler calls of any kind.
    pub calls: u64,
    /// Calls that delivered frames (`on_packet`, `on_packet_batch`,
    /// `on_burst`)…
    pub rx_calls: u64,
    /// …and the frames they delivered.
    pub frames: u64,
}

/// The span table of one run, shared by every wrapper in the topology.
/// Kept in memory; the caller reads it once the run is over.
#[derive(Debug, Default)]
pub struct Spans([Cell<Span>; LAYERS.len()]);

impl Spans {
    pub fn new() -> Rc<Spans> {
        Rc::new(Spans::default())
    }

    pub fn get(&self, layer: Layer) -> Span {
        self.0[layer as usize].get()
    }

    /// Handler time of every layer together.
    pub fn total_ns(&self) -> f64 {
        self.0.iter().map(|c| c.get().ns()).sum()
    }

    /// Before a handler call: the start instant if this call is timed.
    fn enter(&self, layer: Layer) -> Option<Instant> {
        let calls = self.0[layer as usize].get().calls;
        calls.is_multiple_of(layer.stride()).then(Instant::now)
    }

    /// After the handler call `enter` announced.
    fn leave(&self, layer: Layer, started: Option<Instant>, frames: Option<usize>) {
        let cell = &self.0[layer as usize];
        let mut s = cell.get();
        if let Some(t) = started {
            s.timed_ns += t.elapsed().as_nanos() as u64;
            s.timed_calls += 1;
        }
        s.calls += 1;
        if let Some(n) = frames {
            s.rx_calls += 1;
            s.frames += n as u64;
        }
        cell.set(s);
    }
}

impl Span {
    /// Wall time inside the layer's handlers: the timed calls' time,
    /// scaled to all calls.
    pub fn ns(&self) -> f64 {
        if self.timed_calls == 0 {
            return 0.0;
        }
        self.timed_ns as f64 * (self.calls as f64 / self.timed_calls as f64)
    }
}

/// A component with a span around each handler.
pub struct Spanned {
    inner: Box<dyn Component>,
    layer: Layer,
    spans: Rc<Spans>,
}

/// Box `component` for [`osnt_netsim::SimBuilder::add_component`]:
/// behind a [`Spanned`] when the run is traced, bare when it is not.
pub fn wrap(
    component: impl Component + 'static,
    layer: Layer,
    spans: Option<&Rc<Spans>>,
) -> Box<dyn Component> {
    match spans {
        Some(spans) => Box::new(Spanned {
            inner: Box::new(component),
            layer,
            spans: Rc::clone(spans),
        }),
        None => Box::new(component),
    }
}

impl Component for Spanned {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        let t = self.spans.enter(self.layer);
        self.inner.on_start(kernel, me);
        self.spans.leave(self.layer, t, None);
    }

    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet) {
        let t = self.spans.enter(self.layer);
        self.inner.on_packet(kernel, me, port, packet);
        self.spans.leave(self.layer, t, Some(1));
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        let t = self.spans.enter(self.layer);
        self.inner.on_timer(kernel, me, tag);
        self.spans.leave(self.layer, t, None);
    }

    fn wants_packet_batches(&self) -> bool {
        self.inner.wants_packet_batches()
    }

    fn wants_packet_batches_on(&self, port: usize) -> bool {
        self.inner.wants_packet_batches_on(port)
    }

    fn batch_window(&self) -> Option<SimDuration> {
        self.inner.batch_window()
    }

    fn on_packet_batch(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        port: usize,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        let n = batch.len();
        let t = self.spans.enter(self.layer);
        self.inner.on_packet_batch(kernel, me, port, batch);
        self.spans.leave(self.layer, t, Some(n));
    }

    fn wants_bursts(&self) -> bool {
        self.inner.wants_bursts()
    }

    fn on_burst(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, burst: PacketBurst) {
        let n = burst.len();
        let t = self.spans.enter(self.layer);
        self.inner.on_burst(kernel, me, port, burst);
        self.spans.leave(self.layer, t, Some(n));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One tester-card port, as `osnt_core::CardPort` wires it: the
/// generator owns start and timers, the monitor owns arrivals, and
/// nothing else is forwarded. `CardPort` takes no parts from outside,
/// so the traced rebuild of a public-API topology uses this mirror to
/// get a span around each half.
pub struct CardPortMirror {
    pub gen: Option<Box<dyn Component>>,
    pub mon: Box<dyn Component>,
}

impl Component for CardPortMirror {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        if let Some(g) = &mut self.gen {
            g.on_start(kernel, me);
        }
    }

    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet) {
        self.mon.on_packet(kernel, me, port, packet);
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        if let Some(g) = &mut self.gen {
            g.on_timer(kernel, me, tag);
        }
    }

    fn name(&self) -> &str {
        "osnt-card-port"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_netsim::{LinkSpec, SimBuilder};

    /// Sends `n` frames back to back, `batch` per timer event, as one
    /// kernel burst when `batch > 1`.
    struct Source {
        n: u64,
        batch: u64,
        sent: u64,
    }
    impl Component for Source {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            k.schedule_timer_at(me, SimTime::from_us(1), 0);
        }
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _: u64) {
            let take = self.batch.min(self.n - self.sent);
            let mut left = take;
            let base = self.sent;
            let mut frames = |_| {
                (left > 0).then(|| {
                    left -= 1;
                    let mut p = Packet::zeroed(64);
                    p.data_mut()[0] = (base + take - left) as u8;
                    p
                })
            };
            k.transmit_batch(me, 0, &mut frames, None);
            self.sent += take;
            if self.sent < self.n {
                k.schedule_timer_at(me, k.next_tx_start(me, 0), 0);
            }
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Protocol {
        Scalar,
        Batches,
        Bursts,
    }

    /// Records every arrival under one of the three delivery protocols.
    struct Sink {
        protocol: Protocol,
        log: Rc<Cell<(u64, u64)>>,
    }
    impl Sink {
        fn note(&self, at: SimTime, p: &Packet) {
            let (n, h) = self.log.get();
            let h = (h ^ at.as_ps() ^ u64::from(p.data()[0]))
                .wrapping_mul(0x100_0000_01b3)
                .rotate_left(7);
            self.log.set((n + 1, h));
        }
    }
    impl Component for Sink {
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, p: Packet) {
            self.note(k.now(), &p);
        }
        fn wants_packet_batches(&self) -> bool {
            self.protocol == Protocol::Batches
        }
        fn on_packet_batch(
            &mut self,
            _: &mut Kernel,
            _: ComponentId,
            _: usize,
            batch: &mut Vec<(SimTime, Packet)>,
        ) {
            for (at, p) in batch.drain(..) {
                self.note(at, &p);
            }
        }
        fn wants_bursts(&self) -> bool {
            self.protocol == Protocol::Bursts
        }
        fn on_burst(&mut self, _: &mut Kernel, _: ComponentId, _: usize, burst: PacketBurst) {
            for (at, p) in burst {
                self.note(at, &p);
            }
        }
    }

    /// (arrivals, arrival digest, events dispatched, sink span).
    fn run(protocol: Protocol, traced: bool) -> (u64, u64, u64, Span) {
        let spans = Spans::new();
        let on = traced.then_some(&spans);
        let log = Rc::new(Cell::new((0, 0)));
        let mut b = SimBuilder::new();
        let src = Source {
            n: 100,
            batch: 8,
            sent: 0,
        };
        let sink = Sink {
            protocol,
            log: Rc::clone(&log),
        };
        let s = b.add_component("src", wrap(src, Layer::Gen, on), 1);
        let d = b.add_component("sink", wrap(sink, Layer::Mon, on), 1);
        b.connect(s, 0, d, 0, LinkSpec::ten_gig());
        let events = b.build().run_until(SimTime::from_ms(1));
        let (n, h) = log.get();
        (n, h, events, spans.get(Layer::Mon))
    }

    #[test]
    fn spanned_run_equals_bare_run_under_every_delivery_protocol() {
        for protocol in [Protocol::Scalar, Protocol::Batches, Protocol::Bursts] {
            let (n, digest, events, idle) = run(protocol, false);
            let (tn, tdigest, tevents, span) = run(protocol, true);
            assert_eq!(n, 100);
            assert_eq!((tn, tdigest, tevents), (n, digest, events));
            assert_eq!(idle, Span::default(), "a bare run records nothing");
            assert_eq!(span.frames, 100);
            assert_eq!(
                span.calls,
                span.rx_calls + 1,
                "on_start, then arrivals only"
            );
            match protocol {
                Protocol::Scalar => assert_eq!(span.rx_calls, 100),
                // The opt-ins reach the kernel through the wrapper: the
                // frames arrive in fewer calls than frames.
                Protocol::Batches | Protocol::Bursts => assert!(span.rx_calls < 100),
            }
        }
    }
}
