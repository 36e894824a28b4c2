//! The generator port: a [`Component`] that synthesises (or replays)
//! traffic out of one simulated 10 GbE port.

use crate::replay::PcapReplay;
use crate::schedule::{Pacer, Schedule};
use crate::txstamp::{StampConfig, TimestampEmbedder};
use crate::workload::Workload;
use osnt_netsim::{Component, ComponentId, Kernel, TxResult};
use osnt_packet::Packet;
use osnt_time::{HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Generator configuration (per port).
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Departure pacing.
    pub schedule: Schedule,
    /// Stop after this many frames (`None` = unlimited).
    pub count: Option<u64>,
    /// No departures at or after this instant (`None` = run forever).
    pub stop_at: Option<SimTime>,
    /// First departure instant.
    pub start_at: SimTime,
    /// Embed a TX timestamp at this location.
    pub stamp: Option<StampConfig>,
    /// Record every departure instant in [`GenStats::departures`]
    /// (memory-heavy; enable for timing experiments only).
    pub record_departures: bool,
    /// Offer up to this many frames per timer event when the port runs
    /// pure back-to-back synthesis (the line-rate stress case). Wire
    /// timing is identical either way — batching only coalesces kernel
    /// bookkeeping — but a batch leaves one MAC completion record, not
    /// one per frame, so keep the default of `1` where the legacy
    /// per-frame event stream must be preserved byte for byte. Ignored (per-frame path) for paced schedules,
    /// pcap replay and `stop_at` windows, which all need per-frame
    /// control of departure instants. TX stamping batches fine: the
    /// kernel hands the batch path each frame's reserved wire slot
    /// before the frame is enqueued, so stamps are identical to the
    /// per-frame path's.
    pub batch: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            schedule: Schedule::BackToBack,
            count: None,
            stop_at: None,
            start_at: SimTime::ZERO,
            stamp: None,
            record_departures: false,
            batch: 1,
        }
    }
}

/// Counters a generator port maintains, shared with the harness through
/// `Rc<RefCell<…>>` (the simulation is single-threaded by design).
#[derive(Debug, Default)]
pub struct GenStats {
    /// Frames accepted by the MAC.
    pub sent_frames: u64,
    /// Frame bytes accepted (conventional length).
    pub sent_bytes: u64,
    /// Frames the MAC refused (output buffer full).
    pub dropped: u64,
    /// Set when the port discovered its wire goes nowhere: generation
    /// stopped gracefully instead of panicking, and the harness can
    /// surface the miswiring as [`osnt_error::OsntError::NotConnected`].
    pub not_connected: bool,
    /// First frame's wire-start instant.
    pub first_tx: Option<SimTime>,
    /// Latest frame's wire-start instant.
    pub last_tx: Option<SimTime>,
    /// Departure instants (only when `record_departures` is set).
    pub departures: Vec<SimTime>,
}

impl GenStats {
    /// Achieved frame rate over the observed window, packets/s. `None`
    /// until two frames have left.
    pub fn achieved_pps(&self) -> Option<f64> {
        let (first, last) = (self.first_tx?, self.last_tx?);
        if self.sent_frames < 2 || last <= first {
            return None;
        }
        // `sent_frames - 1` gaps cover `last - first`.
        Some((self.sent_frames - 1) as f64 / (last - first).as_secs_f64())
    }
}

const TIMER_DEPART: u64 = 1;

/// A traffic-generator port (one of the four on an OSNT card). Attach to
/// a simulation with [`osnt_netsim::SimBuilder::add_component`] and one
/// port.
pub struct GeneratorPort {
    workload: Box<dyn Workload>,
    pacer: Pacer,
    config: GenConfig,
    clock: Rc<RefCell<HwClock>>,
    embedder: Option<TimestampEmbedder>,
    stats: Rc<RefCell<GenStats>>,
    seq: u64,
    /// The *intended* next departure per the schedule (the actual timer
    /// may be later if the MAC is still busy — i.e. the schedule
    /// oversubscribes the line).
    intended_next: SimTime,
    /// When replaying a capture: gap after frame `i` is
    /// `replay_gaps[i]`; overrides the pacer.
    replay_gaps: Option<Vec<SimDuration>>,
}

impl GeneratorPort {
    /// Build a generator port. `clock` is the card's timestamp clock
    /// (shared by all ports of one card).
    pub fn new(
        workload: Box<dyn Workload>,
        config: GenConfig,
        clock: Rc<RefCell<HwClock>>,
    ) -> (Self, Rc<RefCell<GenStats>>) {
        let stats = Rc::new(RefCell::new(GenStats::default()));
        if config.record_departures {
            if let Some(count) = config.count {
                // One reallocation-free push per departure; capped so a
                // huge `count` cannot pre-commit unbounded memory.
                let cap = usize::try_from(count).unwrap_or(usize::MAX).min(1 << 24);
                stats.borrow_mut().departures.reserve(cap);
            }
        }
        let port = GeneratorPort {
            pacer: config.schedule.clone().into_pacer(),
            embedder: config.stamp.map(TimestampEmbedder::new),
            intended_next: config.start_at,
            workload,
            config,
            clock,
            stats: stats.clone(),
            seq: 0,
            replay_gaps: None,
        };
        (port, stats)
    }

    /// Convenience: a replay port. Expands the replay into a schedule and
    /// plays it via an internal workload + per-frame fixed offsets.
    pub fn from_replay(
        replay: PcapReplay,
        mut config: GenConfig,
        clock: Rc<RefCell<HwClock>>,
    ) -> (Self, Rc<RefCell<GenStats>>) {
        let schedule = replay.schedule();
        config.count = Some(schedule.len() as u64);
        // The replay dictates departures: express it as explicit gaps.
        let gaps: Vec<SimDuration> = schedule.windows(2).map(|w| w[1].0 - w[0].0).collect();
        let frames: Vec<Packet> = schedule.into_iter().map(|(_, p)| p).collect();
        config.schedule = Schedule::BackToBack; // pacing handled below
        let (mut port, stats) =
            GeneratorPort::new(Box::new(ReplayWorkload { frames }), config, clock);
        port.replay_gaps = Some(gaps);
        (port, stats)
    }

    fn done(&self, now: SimTime) -> bool {
        if let Some(count) = self.config.count {
            if self.seq >= count {
                return true;
            }
        }
        if let Some(stop) = self.config.stop_at {
            if now >= stop {
                return true;
            }
        }
        false
    }
}

/// Internal workload for pcap replay: plays a fixed frame list.
struct ReplayWorkload {
    frames: Vec<Packet>,
}

impl Workload for ReplayWorkload {
    fn next_frame(&mut self, seq: u64) -> Packet {
        self.frames[seq as usize].clone()
    }
}

// Replay gaps live on the port, not the pacer, because they are indexed
// by sequence number.
impl GeneratorPort {
    fn next_gap(&mut self, frame_len: usize) -> SimDuration {
        if let Some(gaps) = &self.replay_gaps {
            return gaps
                .get(self.seq as usize - 1)
                .copied()
                .unwrap_or(SimDuration::ZERO);
        }
        self.pacer.next_gap(frame_len)
    }

    /// True when this port takes the batched departure path (K frames
    /// per timer event via [`Kernel::transmit_batch`]). Only pure
    /// back-to-back synthesis qualifies: paced schedules, pcap replay
    /// and `stop_at` windows all need per-frame control of the
    /// departure instant. TX stamping is fine — the kernel hands the
    /// frame factory each frame's reserved wire slot, so batched frames
    /// carry the same stamps the per-frame path would write.
    fn batching_active(&self) -> bool {
        self.config.batch > 1
            && matches!(self.config.schedule, Schedule::BackToBack)
            && self.replay_gaps.is_none()
            && self.config.stop_at.is_none()
    }

    /// Batched departure: offer up to `config.batch` frames in one go,
    /// then re-arm the timer for the instant the MAC frees up. Wire
    /// slots are identical to the per-frame path — the MAC reservation
    /// walk inside `transmit_batch` is the same arithmetic — but the
    /// kernel does one timer event and one completion record per batch
    /// instead of per frame.
    fn depart_batch(&mut self, kernel: &mut Kernel, me: ComponentId) {
        let k = match self.config.count {
            Some(count) => self.config.batch.min(count - self.seq),
            None => self.config.batch,
        };
        let record = self.config.record_departures;
        let mut starts = Vec::new();
        let (workload, embedder, clock, base_seq) =
            (&mut self.workload, &self.embedder, &self.clock, self.seq);
        let mut produced = 0u64;
        let mut frames = |tx_start| {
            (produced < k).then(|| {
                let mut pkt = workload.next_frame(base_seq + produced);
                produced += 1;
                if let Some(emb) = embedder {
                    emb.stamp(&mut pkt, &mut clock.borrow_mut(), tx_start);
                }
                pkt
            })
        };
        let r = kernel.transmit_batch(
            me,
            0,
            &mut frames,
            if record { Some(&mut starts) } else { None },
        );
        if r.not_connected {
            // Miswired harness: stop generating (no timer re-arm) and
            // flag it, rather than unwinding the whole simulation.
            self.stats.borrow_mut().not_connected = true;
            return;
        }
        {
            let mut s = self.stats.borrow_mut();
            s.sent_frames += r.accepted;
            s.sent_bytes += r.accepted_bytes;
            s.dropped += r.dropped;
            if let Some(first) = r.first_tx_start {
                s.first_tx.get_or_insert(first);
            }
            if r.last_tx_start.is_some() {
                s.last_tx = r.last_tx_start;
            }
            if record {
                s.departures.extend_from_slice(&starts);
            }
        }
        self.seq += k;
        if self.done(kernel.now()) {
            return;
        }
        // Back-to-back: the next batch departs the instant the MAC is
        // free again (`stop_at` never reaches this path, see
        // `batching_active`).
        kernel.schedule_timer_at(me, kernel.next_tx_start(me, 0), TIMER_DEPART);
    }
}

impl Component for GeneratorPort {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        if !self.done(self.config.start_at) {
            kernel.schedule_timer_at(me, self.config.start_at, TIMER_DEPART);
        }
    }

    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
        // Generator ports ignore inbound traffic (the monitor handles RX).
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        debug_assert_eq!(tag, TIMER_DEPART);
        if self.done(kernel.now()) {
            return;
        }
        if self.batching_active() {
            self.depart_batch(kernel, me);
            return;
        }
        let mut pkt = self.workload.next_frame(self.seq);
        let frame_len = pkt.frame_len();
        let tx_start = kernel.next_tx_start(me, 0);
        if let Some(emb) = &self.embedder {
            emb.stamp(&mut pkt, &mut self.clock.borrow_mut(), tx_start);
        }
        match kernel.transmit(me, 0, pkt) {
            TxResult::Transmitted { tx_start, .. } => {
                let mut s = self.stats.borrow_mut();
                s.sent_frames += 1;
                s.sent_bytes += frame_len as u64;
                s.first_tx.get_or_insert(tx_start);
                s.last_tx = Some(tx_start);
                if self.config.record_departures {
                    s.departures.push(tx_start);
                }
            }
            TxResult::Dropped => {
                self.stats.borrow_mut().dropped += 1;
            }
            TxResult::NotConnected => {
                // Miswired harness: stop generating (no timer re-arm)
                // and flag it, rather than unwinding the simulation.
                self.stats.borrow_mut().not_connected = true;
                return;
            }
        }
        self.seq += 1;
        if self.done(kernel.now()) {
            return;
        }
        // Intended next departure per the schedule. The timer never
        // fires before the MAC is free again — the generator offers at
        // most one frame per wire slot, so an oversubscribing schedule
        // degrades to exactly line rate (frames go back to back) and the
        // MAC queue stays bounded. Bursty schedules (Poisson gaps shorter
        // than a wire slot) are preserved: the intended clock keeps
        // accumulating gaps and catches up during lulls.
        let gap = self.next_gap(frame_len);
        self.intended_next += gap;
        let earliest = kernel.next_tx_start(me, 0);
        let fire_at = self.intended_next.max(earliest);
        if let Some(stop) = self.config.stop_at {
            if fire_at >= stop {
                return;
            }
        }
        kernel.schedule_timer_at(me, fire_at, TIMER_DEPART);
    }

    fn name(&self) -> &str {
        "osnt-generator-port"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FixedTemplate;
    use osnt_netsim::{LinkSpec, SimBuilder};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Swallows frames; counts them.
    struct Sink {
        arrivals: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Component for Sink {
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
            self.arrivals.borrow_mut().push(k.now());
        }
    }

    type SimUnderTest = (
        osnt_netsim::Sim,
        Rc<RefCell<GenStats>>,
        Rc<RefCell<Vec<SimTime>>>,
    );

    fn build_sim(config: GenConfig, frame_len: usize) -> SimUnderTest {
        let clock = Rc::new(RefCell::new(HwClock::ideal()));
        let (port, stats) = GeneratorPort::new(
            Box::new(FixedTemplate::new(FixedTemplate::udp_frame(frame_len))),
            config,
            clock,
        );
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let gen = b.add_component("gen", Box::new(port), 1);
        let sink = b.add_component(
            "sink",
            Box::new(Sink {
                arrivals: arrivals.clone(),
            }),
            1,
        );
        b.connect(gen, 0, sink, 0, LinkSpec::ten_gig());
        (b.build(), stats, arrivals)
    }

    #[test]
    fn back_to_back_hits_exact_line_rate() {
        let config = GenConfig {
            schedule: Schedule::BackToBack,
            stop_at: Some(SimTime::from_ms(1)),
            ..GenConfig::default()
        };
        let (mut sim, stats, _arr) = build_sim(config, 64);
        sim.run_until(SimTime::from_ms(2));
        let s = stats.borrow();
        let pps = s.achieved_pps().unwrap();
        // 14.880952… Mpps, exactly (integer spacing of 67.2 ns).
        assert!(
            (pps - 14_880_952.38).abs() < 10.0,
            "achieved {pps} pps at 64B"
        );
    }

    #[test]
    fn paced_generation_matches_requested_rate() {
        let config = GenConfig {
            schedule: Schedule::ConstantPps(100_000.0),
            count: Some(1000),
            record_departures: true,
            ..GenConfig::default()
        };
        let (mut sim, stats, _arr) = build_sim(config, 512);
        sim.run_until(SimTime::from_ms(50));
        let s = stats.borrow();
        assert_eq!(s.sent_frames, 1000);
        // Exactly 10 µs between departures.
        for w in s.departures.windows(2) {
            assert_eq!((w[1] - w[0]).as_ps(), 10_000_000);
        }
    }

    #[test]
    fn batched_departures_match_per_frame_wire_slots() {
        let run = |batch: u64| {
            let config = GenConfig {
                count: Some(100),
                batch,
                record_departures: true,
                ..GenConfig::default()
            };
            let (mut sim, stats, arrivals) = build_sim(config, 64);
            sim.run_to_quiescence(1_000_000);
            let s = stats.borrow();
            let arr = arrivals.borrow().clone();
            (s.sent_frames, s.departures.clone(), arr)
        };
        let (n1, dep1, arr1) = run(1);
        let (n32, dep32, arr32) = run(32);
        assert_eq!(n1, 100);
        assert_eq!(n32, 100);
        assert_eq!(dep1, dep32, "identical wire slots regardless of batching");
        assert_eq!(arr1, arr32, "peer sees identical arrival instants");
    }

    #[test]
    fn batching_defers_to_pacing() {
        // `batch` is ignored for paced schedules: departures stay on
        // the per-frame path with exact 10 µs spacing.
        let config = GenConfig {
            schedule: Schedule::ConstantPps(100_000.0),
            count: Some(50),
            batch: 16,
            record_departures: true,
            ..GenConfig::default()
        };
        let (mut sim, stats, _arr) = build_sim(config, 512);
        sim.run_until(SimTime::from_ms(5));
        let s = stats.borrow();
        assert_eq!(s.sent_frames, 50);
        for w in s.departures.windows(2) {
            assert_eq!((w[1] - w[0]).as_ps(), 10_000_000);
        }
    }

    #[test]
    fn count_limit_stops_generation() {
        let config = GenConfig {
            count: Some(17),
            ..GenConfig::default()
        };
        let (mut sim, stats, arrivals) = build_sim(config, 64);
        sim.run_to_quiescence(100_000);
        assert_eq!(stats.borrow().sent_frames, 17);
        assert_eq!(arrivals.borrow().len(), 17);
    }

    #[test]
    fn start_at_delays_first_departure() {
        let config = GenConfig {
            start_at: SimTime::from_us(100),
            count: Some(1),
            record_departures: true,
            ..GenConfig::default()
        };
        let (mut sim, stats, _arr) = build_sim(config, 64);
        sim.run_to_quiescence(1000);
        assert_eq!(stats.borrow().departures[0], SimTime::from_us(100));
    }

    #[test]
    fn oversubscribed_schedule_degrades_to_line_rate() {
        // Ask for 20 Mpps of 1518B frames (≈243 Gb/s) — impossible; the
        // generator must deliver exactly line rate instead of diverging.
        let config = GenConfig {
            schedule: Schedule::ConstantPps(20_000_000.0),
            stop_at: Some(SimTime::from_ms(1)),
            ..GenConfig::default()
        };
        let (mut sim, stats, _arr) = build_sim(config, 1518);
        sim.run_until(SimTime::from_ms(2));
        let pps = stats.borrow().achieved_pps().unwrap();
        assert!(
            (pps - 812_743.8).abs() < 5.0,
            "achieved {pps} pps for 1518B frames"
        );
    }

    #[test]
    fn unwired_port_stops_gracefully_instead_of_panicking() {
        // A generator whose port is never connected must not unwind the
        // simulation: it flags the miswiring and stops offering frames.
        for batch in [1u64, 32] {
            let clock = Rc::new(RefCell::new(HwClock::ideal()));
            let (port, stats) = GeneratorPort::new(
                Box::new(FixedTemplate::new(FixedTemplate::udp_frame(64))),
                GenConfig {
                    count: Some(100),
                    batch,
                    ..GenConfig::default()
                },
                clock,
            );
            let mut b = SimBuilder::new();
            b.add_component("gen", Box::new(port), 1);
            let mut sim = b.build();
            sim.run_to_quiescence(10_000);
            let s = stats.borrow();
            assert!(s.not_connected, "miswiring must be flagged (batch {batch})");
            assert_eq!(s.sent_frames, 0);
        }
    }

    #[test]
    fn stamped_frames_carry_wire_time() {
        let config = GenConfig {
            schedule: Schedule::ConstantPps(1000.0),
            count: Some(3),
            stamp: Some(StampConfig::default_payload()),
            ..GenConfig::default()
        };
        let clock = Rc::new(RefCell::new(HwClock::ideal()));
        let (port, _stats) = GeneratorPort::new(
            Box::new(FixedTemplate::new(FixedTemplate::udp_frame(128))),
            config,
            clock,
        );
        let got: Rc<RefCell<Vec<(SimTime, osnt_time::HwTimestamp)>>> =
            Rc::new(RefCell::new(Vec::new()));
        struct StampSink {
            got: Rc<RefCell<Vec<(SimTime, osnt_time::HwTimestamp)>>>,
        }
        impl Component for StampSink {
            fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
                let ts = crate::txstamp::extract_at(&pkt, StampConfig::DEFAULT_OFFSET).unwrap();
                self.got.borrow_mut().push((k.now(), ts));
            }
        }
        let mut b = SimBuilder::new();
        let gen = b.add_component("gen", Box::new(port), 1);
        let sink = b.add_component("sink", Box::new(StampSink { got: got.clone() }), 1);
        b.connect(gen, 0, sink, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_to_quiescence(1000);
        let got = got.borrow();
        assert_eq!(got.len(), 3);
        for (arrival, stamp) in got.iter() {
            // The stamp is the departure time: earlier than arrival by
            // the wire latency, within one tick of quantisation.
            let stamp_ps = stamp.to_ps();
            assert!(stamp_ps < arrival.as_ps());
            assert!(arrival.as_ps() - stamp_ps < 200_000, "wire latency sane");
        }
    }

    #[test]
    fn stamped_batched_departures_match_per_frame_stamps() {
        // The batched path stamps each frame with the wire slot the
        // kernel reserved for it — every (arrival, embedded stamp) pair
        // must be identical to the per-frame reference.
        let run = |batch: u64| {
            let clock = Rc::new(RefCell::new(HwClock::ideal()));
            let (port, _stats) = GeneratorPort::new(
                Box::new(FixedTemplate::new(FixedTemplate::udp_frame(128))),
                GenConfig {
                    schedule: Schedule::BackToBack,
                    count: Some(40),
                    stamp: Some(StampConfig::default_payload()),
                    batch,
                    ..GenConfig::default()
                },
                clock,
            );
            let got: Rc<RefCell<Vec<(SimTime, osnt_time::HwTimestamp)>>> =
                Rc::new(RefCell::new(Vec::new()));
            struct StampSink {
                got: Rc<RefCell<Vec<(SimTime, osnt_time::HwTimestamp)>>>,
            }
            impl Component for StampSink {
                fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
                    let ts = crate::txstamp::extract_at(&pkt, StampConfig::DEFAULT_OFFSET).unwrap();
                    self.got.borrow_mut().push((k.now(), ts));
                }
            }
            let mut b = SimBuilder::new();
            let gen = b.add_component("gen", Box::new(port), 1);
            let sink = b.add_component("sink", Box::new(StampSink { got: got.clone() }), 1);
            b.connect(gen, 0, sink, 0, LinkSpec::ten_gig());
            let mut sim = b.build();
            sim.run_to_quiescence(10_000);
            let got = got.borrow().clone();
            got
        };
        let per_frame = run(1);
        let batched = run(32);
        assert_eq!(per_frame.len(), 40);
        assert_eq!(per_frame, batched, "batched stamps diverge from per-frame");
    }
}
