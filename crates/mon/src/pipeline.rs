//! The monitor port: a [`Component`] implementing the OSNT capture
//! datapath — stamp at the MAC, filter, thin, DMA to the host.

use crate::capture::{CaptureBuffer, CapturedPacket};
use crate::filter::{FilterAction, FilterProgram, FilterTable};
use crate::host::{HostPath, HostPathConfig};
use crate::rxstamp::RxStamper;
use crate::stats::MonStats;
use crate::thin::{ThinConfig, Thinner};
use osnt_netsim::{Component, ComponentId, Kernel};
use osnt_packet::{FlowKey, Packet};
use osnt_time::HwClock;
use std::cell::RefCell;
use std::rc::Rc;

/// Monitor configuration (per port).
#[derive(Debug, Clone)]
pub struct MonConfig {
    /// Filter table (default: capture everything).
    pub filter: FilterTable,
    /// Thinning (default: disabled).
    pub thin: ThinConfig,
    /// Host DMA model (default: the 8 Gb/s loss-limited path).
    pub host: HostPathConfig,
    /// Bound on the in-memory [`CaptureBuffer`] (packets). When the
    /// buffer is full, further frames are *shed* — counted in
    /// [`MonStats::capture_shed`] and discarded before DMA admission —
    /// instead of growing the buffer without limit. `None` (the
    /// default) keeps the historical unbounded behaviour; chaos/overload
    /// campaigns set a bound so saturation degrades into accounted drops
    /// rather than OOM.
    pub capture_limit: Option<usize>,
}

impl Default for MonConfig {
    fn default() -> Self {
        MonConfig {
            filter: FilterTable::capture_all(),
            thin: ThinConfig::disabled(),
            host: HostPathConfig::default(),
            capture_limit: None,
        }
    }
}

impl MonConfig {
    /// Check the configuration. A degenerate host path (zero-size
    /// buffer, dead DMA) is *valid* — it degrades to counted drops, see
    /// [`crate::HostPath`] — but a snap length that cannot keep the
    /// Ethernet header would make every capture unparseable, which is
    /// never what a measurement wants.
    pub fn validate(&self) -> Result<(), osnt_error::OsntError> {
        if let Some(snap) = self.thin.snap_len {
            if snap < 14 {
                return Err(osnt_error::OsntError::config(
                    "monitor",
                    format!("snap_len {snap} cannot keep the 14-byte Ethernet header"),
                ));
            }
        }
        Ok(())
    }
}

/// A monitoring port of the OSNT card. Frames arriving on any of its
/// simulated ports are stamped, filtered, thinned, pushed through the
/// loss-limited host path and — if they survive — appended to the shared
/// [`CaptureBuffer`].
pub struct MonitorPort {
    stamper: RxStamper,
    filter: FilterTable,
    /// The filter table lowered to masked-word compares
    /// ([`FilterTable::compile`]); counters stay in `filter`.
    program: FilterProgram,
    thinner: Thinner,
    host: HostPath,
    buffer: Rc<RefCell<CaptureBuffer>>,
    stats: Rc<RefCell<MonStats>>,
    capture_limit: Option<usize>,
}

impl MonitorPort {
    /// Build a monitor port. Returns the component plus shared handles to
    /// the capture buffer and statistics.
    pub fn new(
        config: MonConfig,
        clock: Rc<RefCell<HwClock>>,
    ) -> (Self, Rc<RefCell<CaptureBuffer>>, Rc<RefCell<MonStats>>) {
        let buffer = CaptureBuffer::new_shared();
        let stats = Rc::new(RefCell::new(MonStats::default()));
        let program = config.filter.compile();
        (
            MonitorPort {
                stamper: RxStamper::new(clock),
                filter: config.filter,
                program,
                thinner: Thinner::new(config.thin),
                host: HostPath::new(config.host),
                buffer: buffer.clone(),
                stats: stats.clone(),
                capture_limit: config.capture_limit,
            },
            buffer,
            stats,
        )
    }

    /// Classify one frame through the compiled program. Same verdicts
    /// and hit counters as the rule interpreter
    /// ([`FilterTable::classify`], the oracle the compiled-rule property
    /// test compares against).
    #[inline]
    fn classify(
        filter: &mut FilterTable,
        program: &FilterProgram,
        packet: &Packet,
    ) -> FilterAction {
        // No rule to match (capture-all, drop-all): the verdict is the
        // default action and needs no key.
        if program.is_empty() {
            filter.default_hits += 1;
            return filter.default_action;
        }
        filter.classify_compiled(program, &FlowKey::of_bytes(packet.data()))
    }

    /// Read access to the filter table (hit counters).
    pub fn filter(&self) -> &FilterTable {
        &self.filter
    }
}

impl Component for MonitorPort {
    fn on_packet(&mut self, kernel: &mut Kernel, _me: ComponentId, port: usize, packet: Packet) {
        let now = kernel.now();
        // 1. Timestamp at the MAC — before anything else can add noise.
        let rx_stamp = self.stamper.stamp(now);
        {
            let mut s = self.stats.borrow_mut();
            s.rx_frames += 1;
            s.rx_bytes += packet.frame_len() as u64;
        }
        // 2. FCS check at the MAC: corrupted frames are counted, never
        // delivered (the fault-injection layer clears `fcs_ok`).
        if !packet.fcs_ok() {
            self.stats.borrow_mut().crc_fail += 1;
            return;
        }
        // 3. Wildcard filters (hardware: per-packet at line rate).
        let action = Self::classify(&mut self.filter, &self.program, &packet);
        if action == FilterAction::Drop {
            self.stats.borrow_mut().filtered_out += 1;
            return;
        }
        // 4. Thinning: cut + hash.
        let before_len = packet.len();
        let thinned = self.thinner.process(packet);
        if thinned.packet.len() < before_len {
            self.stats.borrow_mut().thinned += 1;
        }
        // 5. Capture-buffer backpressure: a full ring sheds the frame
        // *before* it consumes DMA budget, keeping memory bounded under
        // overload (the shed load is accounted, never silent).
        if let Some(limit) = self.capture_limit {
            if self.buffer.borrow().len() >= limit {
                self.stats.borrow_mut().capture_shed += 1;
                return;
            }
        }
        // 6. The loss-limited host path.
        let captured_bytes = thinned.packet.len();
        if !self.host.admit(now, captured_bytes) {
            self.stats.borrow_mut().host_drops += 1;
            return;
        }
        {
            let mut s = self.stats.borrow_mut();
            s.host_frames += 1;
            s.host_bytes += captured_bytes as u64 + self.host.config().per_packet_overhead;
        }
        self.buffer.borrow_mut().packets.push(CapturedPacket {
            rx_stamp,
            rx_true: now,
            packet: thinned.packet,
            orig_len: thinned.orig_len,
            hash: thinned.hash,
            port,
        });
    }

    fn name(&self) -> &str {
        "osnt-monitor-port"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_gen::workload::FixedTemplate;
    use osnt_gen::{GenConfig, GeneratorPort, Schedule};
    use osnt_netsim::{LinkSpec, SimBuilder};
    use osnt_packet::WildcardRule;
    use osnt_time::SimTime;

    fn gen_to_mon(
        gen_cfg: GenConfig,
        mon_cfg: MonConfig,
        frame_len: usize,
        run_ms: u64,
    ) -> (Rc<RefCell<CaptureBuffer>>, Rc<RefCell<MonStats>>) {
        let clock_tx = Rc::new(RefCell::new(HwClock::ideal()));
        let clock_rx = Rc::new(RefCell::new(HwClock::ideal()));
        let (gen, _gstats) = GeneratorPort::new(
            Box::new(FixedTemplate::new(FixedTemplate::udp_frame(frame_len))),
            gen_cfg,
            clock_tx,
        );
        let (mon, buffer, stats) = MonitorPort::new(mon_cfg, clock_rx);
        let mut b = SimBuilder::new();
        let g = b.add_component("gen", Box::new(gen), 1);
        let m = b.add_component("mon", Box::new(mon), 1);
        b.connect(g, 0, m, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(run_ms));
        (buffer, stats)
    }

    #[test]
    fn capture_all_records_every_frame() {
        let gen_cfg = GenConfig {
            count: Some(100),
            schedule: Schedule::ConstantPps(1_000_000.0),
            ..GenConfig::default()
        };
        let mon_cfg = MonConfig {
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        };
        let (buffer, stats) = gen_to_mon(gen_cfg, mon_cfg, 256, 10);
        assert_eq!(buffer.borrow().len(), 100);
        let s = *stats.borrow();
        assert_eq!(s.rx_frames, 100);
        assert_eq!(s.host_frames, 100);
        assert_eq!(s.host_drops, 0);
        assert_eq!(s.rx_bytes, 100 * 256);
    }

    #[test]
    fn rx_stamps_are_monotone_and_spaced_like_the_wire() {
        let gen_cfg = GenConfig {
            count: Some(50),
            schedule: Schedule::BackToBack,
            ..GenConfig::default()
        };
        let mon_cfg = MonConfig {
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        };
        let (buffer, _stats) = gen_to_mon(gen_cfg, mon_cfg, 64, 10);
        let buf = buffer.borrow();
        assert_eq!(buf.len(), 50);
        for w in buf.packets.windows(2) {
            let gap = w[1].rx_stamp.to_ps() as i128 - w[0].rx_stamp.to_ps() as i128;
            // True spacing is 67.2 ns; stamps are quantised to 6.25 ns so
            // the observed gap is 67.2 ± one tick.
            assert!((gap - 67_200).unsigned_abs() <= 6_250 + 233, "gap {gap} ps");
        }
    }

    #[test]
    fn filter_drops_are_counted_not_captured() {
        let mut filter = FilterTable::drop_by_default();
        filter.push(
            WildcardRule::any().with_dst_port(9001),
            FilterAction::Capture,
        );
        // The template targets port 9001, so everything passes; then flip
        // to a filter that misses.
        let gen_cfg = GenConfig {
            count: Some(10),
            schedule: Schedule::ConstantPps(10_000.0),
            ..GenConfig::default()
        };
        let mon_cfg = MonConfig {
            filter,
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        };
        let (buffer, stats) = gen_to_mon(gen_cfg.clone(), mon_cfg, 128, 10);
        assert_eq!(buffer.borrow().len(), 10);
        assert_eq!(stats.borrow().filtered_out, 0);

        let mut filter = FilterTable::drop_by_default();
        filter.push(WildcardRule::any().with_dst_port(1), FilterAction::Capture);
        let mon_cfg = MonConfig {
            filter,
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        };
        let (buffer, stats) = gen_to_mon(gen_cfg, mon_cfg, 128, 10);
        assert_eq!(buffer.borrow().len(), 0);
        assert_eq!(stats.borrow().filtered_out, 10);
    }

    #[test]
    fn thinning_cuts_and_hashes() {
        let gen_cfg = GenConfig {
            count: Some(5),
            schedule: Schedule::ConstantPps(10_000.0),
            ..GenConfig::default()
        };
        let mon_cfg = MonConfig {
            thin: ThinConfig::cut_with_hash(60),
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        };
        let (buffer, stats) = gen_to_mon(gen_cfg, mon_cfg, 1518, 10);
        let buf = buffer.borrow();
        assert_eq!(buf.len(), 5);
        for c in &buf.packets {
            assert_eq!(c.packet.len(), 60);
            assert_eq!(c.orig_len, 1514);
            assert!(c.hash.is_some());
        }
        assert_eq!(stats.borrow().thinned, 5);
    }

    #[test]
    fn line_rate_large_frames_overwhelm_default_host_path() {
        // 1518B at full line rate ≈ 9.87 Gb/s toward an 8 Gb/s DMA:
        // the hardware path counts everything, the host path loses some.
        let gen_cfg = GenConfig {
            schedule: Schedule::BackToBack,
            stop_at: Some(SimTime::from_ms(100)),
            ..GenConfig::default()
        };
        let mon_cfg = MonConfig::default();
        let (_buffer, stats) = gen_to_mon(gen_cfg, mon_cfg, 1518, 110);
        let s = *stats.borrow();
        assert!(s.rx_frames > 10_000);
        assert!(s.host_drops > 0, "default host path must be loss-limited");
        assert_eq!(s.rx_frames, s.host_frames + s.host_drops);
        // Delivery ratio ≈ 8 / 9.87.
        let ratio = s.host_delivery_ratio().unwrap();
        assert!((ratio - 8.0 / 9.87).abs() < 0.05, "delivery ratio {ratio}");
    }

    #[test]
    fn corrupt_frames_are_counted_not_captured() {
        use osnt_netsim::{Component, ComponentId, Kernel};
        /// Sends alternating clean/corrupt copies of one frame.
        struct CorruptingSource {
            n: usize,
        }
        impl Component for CorruptingSource {
            fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
                for i in 0..self.n {
                    k.schedule_timer(me, osnt_time::SimDuration::from_us(i as u64), i as u64);
                }
            }
            fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
                let mut p = FixedTemplate::udp_frame(128);
                if tag % 2 == 1 {
                    p.flip_bit(tag as usize * 131);
                }
                let _ = k.transmit(me, 0, p);
            }
            fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        }
        let clock = Rc::new(RefCell::new(HwClock::ideal()));
        let (mon, buffer, stats) = MonitorPort::new(
            MonConfig {
                host: HostPathConfig::unlimited(),
                ..MonConfig::default()
            },
            clock,
        );
        let mut b = SimBuilder::new();
        let src = b.add_component("src", Box::new(CorruptingSource { n: 10 }), 1);
        let m = b.add_component("mon", Box::new(mon), 1);
        b.connect(src, 0, m, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(1));
        let s = *stats.borrow();
        assert_eq!(s.rx_frames, 10, "the MAC sees every frame");
        assert_eq!(s.crc_fail, 5, "every corrupted copy fails the FCS check");
        assert_eq!(s.host_frames, 5);
        assert_eq!(buffer.borrow().len(), 5, "only clean frames are captured");
        for c in &buffer.borrow().packets {
            assert!(c.packet.fcs_ok());
        }
    }

    #[test]
    fn header_eating_snap_len_is_a_typed_config_error() {
        let bad = MonConfig {
            thin: ThinConfig::cut_with_hash(8),
            ..MonConfig::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(osnt_error::OsntError::Config { .. })
        ));
        assert!(MonConfig::default().validate().is_ok());
    }

    #[test]
    fn thinning_rescues_the_host_path() {
        let gen_cfg = GenConfig {
            schedule: Schedule::BackToBack,
            stop_at: Some(SimTime::from_ms(20)),
            ..GenConfig::default()
        };
        let mon_cfg = MonConfig {
            thin: ThinConfig::cut_with_hash(60),
            ..MonConfig::default()
        };
        let (_buffer, stats) = gen_to_mon(gen_cfg, mon_cfg, 1518, 25);
        let s = *stats.borrow();
        assert_eq!(s.host_drops, 0, "thinned capture must fit in DMA");
        assert_eq!(s.host_frames, s.rx_frames);
    }

    #[test]
    fn capture_limit_bounds_memory_and_accounts_shed_load() {
        let gen_cfg = GenConfig {
            count: Some(500),
            schedule: Schedule::BackToBack,
            ..GenConfig::default()
        };
        let mon_cfg = MonConfig {
            host: HostPathConfig::unlimited(),
            capture_limit: Some(64),
            ..MonConfig::default()
        };
        let (buffer, stats) = gen_to_mon(gen_cfg, mon_cfg, 256, 10);
        let s = *stats.borrow();
        assert_eq!(buffer.borrow().len(), 64, "buffer must stop at the bound");
        assert_eq!(s.rx_frames, 500);
        assert_eq!(s.host_frames, 64);
        assert_eq!(s.capture_shed, 436, "every refused frame is accounted");
        assert_eq!(
            s.rx_frames,
            s.crc_fail + s.filtered_out + s.host_drops + s.capture_shed + s.host_frames,
            "shed load must slot into the conservation ledger"
        );
    }
}
