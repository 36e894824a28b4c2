//! A legacy store-and-forward L2 learning switch — the device under test
//! of demo Part I.

use crate::cam::Cam;
use crate::fabric::{ForwardingPipeline, TIMER_FORWARD};
use osnt_netsim::{Component, ComponentId, Kernel};
use osnt_packet::ethernet::EthernetHeader;
use osnt_packet::Packet;
use osnt_time::SimDuration;

/// Forwarding architecture of the switch fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingMode {
    /// Receive the whole frame, then look up and forward. Latency grows
    /// with frame size (the frame is serialised twice end to end).
    StoreAndForward,
    /// Start forwarding once the header (first 64 bytes) has arrived.
    ///
    /// The simulator's kernel delivers complete frames, so cut-through
    /// is modelled by *crediting back* the tail of the reception time:
    /// the fabric delay becomes `lookup_latency − (frame_time −
    /// header_time)`, clamped at the lookup latency floor of 100 ns.
    /// This reproduces the architecture's observable signature — latency
    /// (nearly) independent of frame size — which is what the ablation
    /// measures.
    CutThrough,
}

/// Legacy switch parameters.
#[derive(Debug, Clone)]
pub struct LegacyConfig {
    /// Number of ports.
    pub n_ports: usize,
    /// Fixed fabric latency (header lookup + pipeline), applied to every
    /// frame after full reception. ~800 ns is typical of a
    /// store-and-forward ToR of the era.
    pub lookup_latency: SimDuration,
    /// Output queue capacity per port, bytes. Finite, so overload shows
    /// up first as queueing delay and then as loss — the shape demo
    /// Part I measures.
    pub output_buffer_bytes: usize,
    /// Store-and-forward (default) or cut-through fabric.
    pub forwarding_mode: ForwardingMode,
}

impl Default for LegacyConfig {
    fn default() -> Self {
        LegacyConfig {
            n_ports: 4,
            lookup_latency: SimDuration::from_ns(800),
            output_buffer_bytes: 512 * 1024,
            forwarding_mode: ForwardingMode::StoreAndForward,
        }
    }
}

impl LegacyConfig {
    /// A cut-through variant of the default configuration.
    pub fn cut_through() -> Self {
        LegacyConfig {
            forwarding_mode: ForwardingMode::CutThrough,
            ..LegacyConfig::default()
        }
    }
}

/// The switch component.
pub struct LegacySwitch {
    config: LegacyConfig,
    /// MAC learning table: station → port.
    cam: Cam,
    pipeline: ForwardingPipeline,
    /// Frames received.
    pub rx_frames: u64,
    /// Frames flooded (unknown destination or broadcast/multicast).
    pub flooded: u64,
}

impl LegacySwitch {
    /// A switch with the given configuration.
    pub fn new(config: LegacyConfig) -> Self {
        LegacySwitch {
            config,
            cam: Cam::default(),
            pipeline: ForwardingPipeline::new(),
            rx_frames: 0,
            flooded: 0,
        }
    }

    /// Frames lost at full output queues so far.
    pub fn output_drops(&self) -> u64 {
        self.pipeline.output_drops
    }

    /// The configured number of ports.
    pub fn n_ports(&self) -> usize {
        self.config.n_ports
    }

    /// Fabric delay for a frame of `frame_len` conventional bytes under
    /// the configured forwarding mode (10 GbE port timing).
    fn fabric_delay(&self, frame_len: usize) -> SimDuration {
        match self.config.forwarding_mode {
            ForwardingMode::StoreAndForward => self.config.lookup_latency,
            ForwardingMode::CutThrough => {
                // Credit back the reception tail beyond the 64-byte
                // header: (frame − 64) bytes × 800 ps at 10 Gb/s.
                let tail_ps = frame_len.saturating_sub(64) as u64 * 800;
                let floor = SimDuration::from_ns(100);
                let base = self.config.lookup_latency.as_ps();
                SimDuration::from_ps(base.saturating_sub(tail_ps).max(floor.as_ps()))
            }
        }
    }
}

impl Component for LegacySwitch {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        for p in 0..self.config.n_ports {
            kernel.set_tx_buffer(me, p, Some(self.config.output_buffer_bytes));
        }
    }

    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet) {
        self.rx_frames += 1;
        // The fabric reads the two MACs and nothing past them.
        let Ok(EthernetHeader { src, dst, .. }) = EthernetHeader::parse(packet.data()) else {
            return; // runt — drop silently like hardware
        };
        // Learn the source station.
        if src.is_unicast() {
            self.cam.learn(src, port);
        }
        // Forward: known unicast out its port, everything else flooded.
        let delay = self.fabric_delay(packet.frame_len());
        match self.cam.lookup(dst) {
            Some(out) if dst.is_unicast() => {
                if out != port {
                    self.pipeline.submit(kernel, me, delay, out, packet);
                }
                // dst on the ingress port: filter (drop).
            }
            _ => {
                self.flooded += 1;
                for out in 0..self.config.n_ports {
                    if out != port {
                        self.pipeline.submit(kernel, me, delay, out, packet.clone());
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        debug_assert_eq!(tag, TIMER_FORWARD);
        self.pipeline.on_timer(kernel, me);
    }

    fn name(&self) -> &str {
        "legacy-switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_netsim::{LinkSpec, SimBuilder};
    use osnt_packet::{MacAddr, PacketBuilder};
    use osnt_time::SimTime;
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    type HostLog = Rc<RefCell<Vec<(SimTime, Packet)>>>;

    /// Host that sends a scripted list of (time, frame) and records
    /// arrivals.
    struct Host {
        script: Vec<(SimTime, Packet)>,
        got: HostLog,
    }
    impl Host {
        fn new(script: Vec<(SimTime, Packet)>) -> (Self, HostLog) {
            let got = Rc::new(RefCell::new(Vec::new()));
            (
                Host {
                    script,
                    got: got.clone(),
                },
                got,
            )
        }
    }
    impl Component for Host {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            for (i, (t, _)) in self.script.iter().enumerate() {
                k.schedule_timer_at(me, *t, i as u64);
            }
        }
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            let pkt = self.script[tag as usize].1.clone();
            let _ = k.transmit(me, 0, pkt);
        }
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
            self.got.borrow_mut().push((k.now(), pkt));
        }
    }

    fn frame(src: u8, dst: u8) -> Packet {
        PacketBuilder::ethernet(MacAddr::local(src), MacAddr::local(dst))
            .ipv4(Ipv4Addr::new(10, 0, 0, src), Ipv4Addr::new(10, 0, 0, dst))
            .udp(1, 2)
            .build()
    }

    /// Three hosts on ports 0–2 of a legacy switch.
    fn three_host_net(scripts: [Vec<(SimTime, Packet)>; 3]) -> (osnt_netsim::Sim, [HostLog; 3]) {
        let mut b = SimBuilder::new();
        let sw = b.add_component(
            "switch",
            Box::new(LegacySwitch::new(LegacyConfig::default())),
            4,
        );
        let mut handles = Vec::new();
        let mut ids = Vec::new();
        for (i, script) in scripts.into_iter().enumerate() {
            let (host, got) = Host::new(script);
            let id = b.add_component(&format!("h{i}"), Box::new(host), 1);
            handles.push(got);
            ids.push(id);
        }
        for (i, id) in ids.iter().enumerate() {
            b.connect(*id, 0, sw, i, LinkSpec::ten_gig());
        }
        (b.build(), handles.try_into().unwrap())
    }

    #[test]
    fn unknown_destination_is_flooded_then_learned() {
        // h0 sends to h1 (unknown → flood to 1 and 2);
        // then h1 replies (h0 now learned → unicast only to 0).
        let (mut sim, got) = three_host_net([
            vec![(SimTime::ZERO, frame(1, 2))],
            vec![(SimTime::from_us(100), frame(2, 1))],
            vec![],
        ]);
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(got[1].borrow().len(), 1, "h1 gets the first frame");
        assert_eq!(got[2].borrow().len(), 1, "h2 sees the flooded copy");
        assert_eq!(got[0].borrow().len(), 1, "reply is unicast to h0");
        // If the reply had been flooded, h2 would have 2 frames.
        assert_eq!(got[2].borrow().len(), 1);
    }

    #[test]
    fn broadcast_goes_everywhere_except_ingress() {
        let bcast = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::BROADCAST)
            .ipv4(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(255, 255, 255, 255),
            )
            .udp(68, 67)
            .build();
        let (mut sim, got) = three_host_net([vec![(SimTime::ZERO, bcast)], vec![], vec![]]);
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(got[0].borrow().len(), 0);
        assert_eq!(got[1].borrow().len(), 1);
        assert_eq!(got[2].borrow().len(), 1);
    }

    #[test]
    fn store_and_forward_latency_is_size_dependent() {
        // One-way latency through the switch = serialisation in +
        // propagation + lookup + serialisation out + propagation. A
        // bigger frame pays serialisation twice.
        let run = |len: usize| {
            let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                .udp(1, 2)
                .pad_to_frame(len)
                .build();
            let (mut sim, got) = three_host_net([vec![(SimTime::ZERO, pkt)], vec![], vec![]]);
            sim.run_until(SimTime::from_ms(1));
            let times = got[1].borrow();
            times[0].0
        };
        let small = run(64);
        let large = run(1518);
        // Expected: 2 × (wire_len-12)×800ps + 2×10ns + 800ns.
        let expect = |len: u64| 2 * ((len + 8) * 800) + 20_000 + 800_000;
        assert_eq!(small.as_ps(), expect(64));
        assert_eq!(large.as_ps(), expect(1518));
        assert!(large > small);
    }

    #[test]
    fn cut_through_latency_is_frame_size_independent() {
        let run = |cfg: LegacyConfig, len: usize| {
            let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                .udp(1, 2)
                .pad_to_frame(len)
                .build();
            let mut b = SimBuilder::new();
            let sw = b.add_component("switch", Box::new(LegacySwitch::new(cfg)), 4);
            let (h0, _got0) = Host::new(vec![(SimTime::ZERO, pkt)]);
            let (h1, got1) = Host::new(vec![]);
            let a = b.add_component("h0", Box::new(h0), 1);
            let c = b.add_component("h1", Box::new(h1), 1);
            b.connect(a, 0, sw, 0, LinkSpec::ten_gig());
            b.connect(c, 0, sw, 1, LinkSpec::ten_gig());
            let mut sim = b.build();
            sim.run_until(SimTime::from_ms(1));
            let t = got1.borrow()[0].0;
            t.as_ps()
        };
        // Store-and-forward: latency grows with frame size.
        let sf_small = run(LegacyConfig::default(), 64);
        let sf_large = run(LegacyConfig::default(), 1518);
        assert!(
            sf_large > sf_small + 2_000_000,
            "S&F grows: {sf_small} -> {sf_large}"
        );
        // Cut-through: the fabric credit cancels one serialisation, so
        // end-to-end latency is (nearly) frame-size independent once the
        // floor is reached.
        let ct_small = run(LegacyConfig::cut_through(), 64);
        let ct_large = run(LegacyConfig::cut_through(), 1518);
        let spread = ct_large as i64 - ct_small as i64;
        // The credit cancels up to `lookup_latency − floor` (700 ns) of
        // the ingress serialisation, so the size dependence shrinks
        // toward the single remaining egress serialisation. With an
        // 800 ns lookup the observable spread is ~70% of S&F's; a true
        // cut-through (unbounded credit) would reach 50%.
        assert!(
            spread < (sf_large - sf_small) as i64 * 3 / 4,
            "cut-through spread {spread} should be well below S&F's {}",
            sf_large - sf_small
        );
        assert!(ct_large < sf_large, "cut-through beats S&F for big frames");
        assert!(ct_small < sf_small + 1_000, "small frames pay no penalty");
    }

    /// Lends a switch to the sim and keeps a handle to read it after.
    struct Lent(Rc<RefCell<LegacySwitch>>);
    impl Component for Lent {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            self.0.borrow_mut().on_start(k, me);
        }
        fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, pkt: Packet) {
            self.0.borrow_mut().on_packet(k, me, port, pkt);
        }
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            self.0.borrow_mut().on_timer(k, me, tag);
        }
    }

    #[test]
    fn odd_frames_are_switched_by_their_macs_alone() {
        let vlan = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .vlan(7)
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2)
            .build();
        let mut bad_checksum = frame(1, 2);
        bad_checksum.data_mut()[14 + 10] ^= 0xff;
        assert!(
            bad_checksum.parse().l3.is_none(),
            "the IPv4 header must not verify"
        );
        // The runt holds both MACs but not the EtherType after them.
        let runt = Packet::from_vec(frame(1, 2).data()[..13].to_vec());
        for (case, odd, switched) in [
            ("13-byte runt", runt, false),
            ("VLAN-tagged", vlan, true),
            ("bad IPv4 checksum", bad_checksum, true),
        ] {
            // h0 sends the odd frame from MAC 1 to the unknown MAC 2;
            // then h1 replies to MAC 1, which goes out port 0 alone only
            // if the odd frame taught the switch where MAC 1 is.
            let reply = frame(2, 1);
            let sw = Rc::new(RefCell::new(LegacySwitch::new(LegacyConfig::default())));
            let mut b = SimBuilder::new();
            let sw_id = b.add_component("switch", Box::new(Lent(sw.clone())), 4);
            let scripts = [
                vec![(SimTime::ZERO, odd.clone())],
                vec![(SimTime::from_us(100), reply.clone())],
                vec![],
            ];
            let mut got = Vec::new();
            for (i, script) in scripts.into_iter().enumerate() {
                let (host, log) = Host::new(script);
                let id = b.add_component(&format!("h{i}"), Box::new(host), 1);
                b.connect(id, 0, sw_id, i, LinkSpec::ten_gig());
                got.push(log);
            }
            b.build().run_until(SimTime::from_ms(1));
            let frames = |h: usize| -> Vec<Packet> {
                got[h].borrow().iter().map(|(_, p)| p.clone()).collect()
            };
            assert_eq!(sw.borrow().rx_frames, 2, "{case}: both frames counted");
            assert_eq!(frames(0), vec![reply.clone()], "{case}");
            if switched {
                assert_eq!(frames(1), vec![odd.clone()], "{case}: flooded to h1");
                assert_eq!(frames(2), vec![odd], "{case}: flooded to h2, reply unicast");
            } else {
                assert_eq!(frames(1), vec![], "{case}: not forwarded");
                assert_eq!(frames(2), vec![reply], "{case}: not learned, reply flooded");
            }
        }
    }

    #[test]
    fn filter_to_same_port_drops_frame() {
        // h0 sends to a station the switch has learned on port 0 itself:
        // first teach the switch that MAC 9 lives on port 0, then send
        // p0→MAC9: the frame must not be forwarded anywhere.
        let teach = frame(9, 1); // src MAC 9 enters on port 0
        let to_self = frame(1, 9);
        let (mut sim, got) = three_host_net([
            vec![(SimTime::ZERO, teach), (SimTime::from_us(10), to_self)],
            vec![],
            vec![],
        ]);
        sim.run_until(SimTime::from_ms(1));
        // The teach frame (dst MAC 1, unknown) floods to h1 and h2; the
        // to_self frame goes nowhere.
        assert_eq!(got[1].borrow().len(), 1);
        assert_eq!(got[2].borrow().len(), 1);
        assert_eq!(got[0].borrow().len(), 0);
    }
}
