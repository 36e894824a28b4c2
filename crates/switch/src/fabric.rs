//! The shared store-and-forward fabric pipeline.
//!
//! Both switch models forward the same way: a frame is fully received
//! (store), spends a fixed pipeline/lookup latency in the fabric, then is
//! offered to the output port's (bounded) MAC queue. The pipeline keeps
//! FIFO order because the latency is constant.

use osnt_netsim::{ComponentId, Kernel, TxResult};
use osnt_packet::Packet;
use osnt_time::SimDuration;
use std::collections::VecDeque;

/// Timer tag used by the pipeline. Components using it must route this
/// tag's timer events to [`ForwardingPipeline::on_timer`].
pub const TIMER_FORWARD: u64 = 0x0f0f_0001;

/// Pending frames inside the switching fabric.
#[derive(Debug, Default)]
pub struct ForwardingPipeline {
    pending: VecDeque<(usize, Packet)>,
    /// Frames forwarded to an output MAC.
    pub forwarded: u64,
    /// Frames lost at a full output queue.
    pub output_drops: u64,
}

impl ForwardingPipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        ForwardingPipeline::default()
    }

    /// Submit a frame for transmission out of `out_port` after `latency`.
    pub fn submit(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        latency: SimDuration,
        out_port: usize,
        packet: Packet,
    ) {
        self.pending.push_back((out_port, packet));
        kernel.schedule_timer(me, latency, TIMER_FORWARD);
    }

    /// Handle the pipeline timer: emit the oldest pending frame.
    pub fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId) {
        let (port, packet) = self
            .pending
            .pop_front()
            .expect("pipeline timer with no pending frame");
        match kernel.transmit(me, port, packet) {
            TxResult::Transmitted { .. } => self.forwarded += 1,
            TxResult::Dropped => self.output_drops += 1,
            TxResult::NotConnected => {
                // Forwarding out of an unwired port loses the frame, like
                // a link-down port.
                self.output_drops += 1;
            }
        }
    }

    /// Frames currently inside the fabric.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_netsim::{Component, LinkSpec, SimBuilder};
    use osnt_time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A 2-port repeater built on the pipeline: everything from port 0
    /// exits port 1 after 1 µs.
    struct Repeater {
        pipe: ForwardingPipeline,
    }
    impl Component for Repeater {
        fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, pkt: Packet) {
            if port == 0 {
                self.pipe.submit(k, me, SimDuration::from_us(1), 1, pkt);
            }
        }
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            assert_eq!(tag, TIMER_FORWARD);
            self.pipe.on_timer(k, me);
        }
    }

    struct Probe {
        sent_at: SimTime,
        got: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Component for Probe {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            k.schedule_timer_at(me, self.sent_at, 1);
        }
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
            let _ = k.transmit(me, 0, Packet::zeroed(64));
        }
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
            self.got.borrow_mut().push(k.now());
        }
    }

    struct Sink {
        got: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Component for Sink {
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
            self.got.borrow_mut().push(k.now());
        }
    }

    #[test]
    fn pipeline_adds_fixed_latency() {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let probe = b.add_component(
            "probe",
            Box::new(Probe {
                sent_at: SimTime::ZERO,
                got: Rc::new(RefCell::new(Vec::new())),
            }),
            1,
        );
        let rep = b.add_component(
            "repeater",
            Box::new(Repeater {
                pipe: ForwardingPipeline::new(),
            }),
            2,
        );
        let sink = b.add_component("sink", Box::new(Sink { got: got.clone() }), 1);
        b.connect(probe, 0, rep, 0, LinkSpec::ten_gig());
        b.connect(rep, 1, sink, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(1));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        // Wire to switch (57.6 + 10 ns) + 1 µs fabric + wire to sink.
        assert_eq!(got[0].as_ps(), 67_600 + 1_000_000 + 67_600);
    }
}
