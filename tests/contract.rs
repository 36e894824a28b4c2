//! The contract's oracles, run where tier-1 (`cargo test -q`) runs:
//! bounded versions of the comparisons each fast path is held to.
//!
//! * the flow table's tuple-space index against the rule interpreter
//!   (`FlowTable::lookup_idx`) after every op of a seeded 2 000-op
//!   flow_mod history, wildcard-junk matches included — the chaos
//!   campaigns' standing `classifier-parity` audit, one seed of it (the
//!   full property suite is
//!   `crates/switch/tests/classifier_equivalence.rs`);
//! * burst size is unobservable: the E13 pipeline (gen → fault-free
//!   `FaultyLink` → `OpenFlowSwitch`, 257 rules → `MonitorPort`) at
//!   generator burst 1, 8 and 32, and the E12 wiring (gen straight into a
//!   filtering, thinning monitor) at batch 1 and 32, each capture the
//!   same packets with the same counters — the `DeliverBurst` →
//!   scalar-replay route into switch and monitor, in small;
//! * the paper's four ports are independent on one kernel: four
//!   generator → digest-sink ports run together read, port by port,
//!   what each reads alone on a kernel of its own;
//! * MAC completions are events though no queue holds them: generator →
//!   tail-dropping `LegacySwitch` → capture-all monitor counts one per
//!   transmitted frame, and reads the same run to a limit, in 1 000
//!   slices or drained;
//! * the paper's headline claim, E1 in small: a generator holds 10 GbE
//!   line rate at 64, 512 and 1518 B, frame by frame and in bursts of
//!   32, to the picosecond;
//! * stamps from a drifting, jittered clock: 20 000 frames from
//!   generator through a link to a capture-all monitor on one
//!   `commodity_xo` card, every embedded TX stamp and every RX stamp
//!   folded into one CRC — the only tier-1 run whose clock is not ideal;
//! * the total event order of the two demo paths, as what each demo
//!   prints: three E5 rows (probe latency percentiles through the
//!   legacy switch under Poisson background load, every figure a
//!   function of the `(time, key)` order across four ports), and a
//!   miniature of the Part II churn (barrier-fenced flow_mod rounds on
//!   the control-only testbed: per-round latencies, the control log and
//!   the event count).

use osnt::chaos::{classifier_parity_audit, InvariantAuditor};
use osnt::core::experiment::LatencyExperiment;
use osnt::gen::txstamp::extract_at;
use osnt::gen::workload::FixedTemplate;
use osnt::gen::{GenConfig, GeneratorPort, Schedule, StampConfig};
use osnt::mon::{
    CapturedPacket, FilterAction, FilterTable, HostPathConfig, MonConfig, MonStats, MonitorPort,
    ThinConfig,
};
use osnt::netsim::{Component, ComponentId, FaultConfig, FaultyLink, Kernel, LinkSpec, SimBuilder};
use osnt::netsim::{PortCounters, Sim};
use osnt::oflops::modules::FlowChurnModule;
use osnt::oflops::{Testbed, TestbedSpec};
use osnt::openflow::match_field::wildcards;
use osnt::openflow::messages::{FlowMod, Message};
use osnt::openflow::{Action, OfMatch};
use osnt::packet::hash::{crc32, crc32_update};
use osnt::packet::{line_rate_pps, wire_bits, MacAddr, Packet, WildcardRule};
use osnt::switch::{encap_control, LegacyConfig, LegacySwitch, OfSwitchConfig, OpenFlowSwitch};
use osnt::time::{DriftModel, HwClock, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

#[test]
fn flow_table_index_answers_like_the_interpreter_after_every_flow_mod() {
    let mut auditor = InvariantAuditor::new();
    classifier_parity_audit(0x0517_c0de, &mut auditor, "contract");
    assert_eq!(auditor.audited(), 1);
    assert!(
        auditor.violations().is_empty(),
        "{:?}",
        auditor.violations()
    );
}

fn clock() -> Rc<RefCell<HwClock>> {
    Rc::new(RefCell::new(HwClock::ideal()))
}

/// A back-to-back generator of `frames` frames, `batch` per departure
/// event.
fn generator(frames: u64, batch: u64, frame_len: usize, start_at: SimTime) -> GeneratorPort {
    GeneratorPort::new(
        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(frame_len))),
        GenConfig {
            count: Some(frames),
            schedule: Schedule::BackToBack,
            stamp: Some(StampConfig::default_payload()),
            batch,
            start_at,
            ..GenConfig::default()
        },
        clock(),
    )
    .0
}

/// Installs the rule list at t = 0 and counts punts (a table miss).
struct RuleLoader {
    mods: Vec<FlowMod>,
    punts: Rc<Cell<u64>>,
}

impl Component for RuleLoader {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        for (i, fm) in self.mods.iter().enumerate() {
            let _ = k.transmit(
                me,
                0,
                encap_control(&Message::FlowMod(fm.clone()), i as u32 + 1),
            );
        }
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
        self.punts.set(self.punts.get() + 1);
    }
}

/// An exact match on the offered flow but for the UDP destination port.
fn flow_match(tp_dst: u16) -> OfMatch {
    let mut m = OfMatch::any();
    m.dl_src = MacAddr::local(1);
    m.dl_dst = MacAddr::local(2);
    m.dl_type = 0x0800;
    m.nw_proto = 17;
    m.nw_src = Ipv4Addr::new(10, 0, 0, 1);
    m.nw_dst = Ipv4Addr::new(10, 0, 0, 2);
    m.tp_src = 5001;
    m.tp_dst = tp_dst;
    m.wildcards &= !(wildcards::DL_SRC
        | wildcards::DL_DST
        | wildcards::DL_TYPE
        | wildcards::NW_PROTO
        | wildcards::TP_SRC
        | wildcards::TP_DST);
    m.set_nw_src_prefix(32);
    m.set_nw_dst_prefix(32);
    m
}

fn output(port: u16) -> Vec<Action> {
    vec![Action::Output { port, max_len: 0 }]
}

/// E13 in small: 2 000 stamped 128 B frames, `burst` per generator
/// event, through a fault-free link and a switch holding 256 near-miss
/// rules and the one that forwards to the capturing monitor. Returns the
/// capture, the monitor's counters and the punts the controller saw.
fn pipeline_run(burst: u64) -> (Vec<CapturedPacket>, MonStats, u64) {
    const FRAMES: u64 = 2_000;
    // 257 × 25 µs of switch CPU + 1 ms install < 10 ms.
    let start = SimTime::from_ms(10);
    let (link, _) = FaultyLink::new(FaultConfig::default()).expect("fault-free config is valid");
    let switch = OpenFlowSwitch::new(OfSwitchConfig::default());
    let (ctrl_port, kernel_ports) = (switch.control_port(), switch.kernel_ports());
    let mut filter = FilterTable::drop_by_default();
    filter.push(
        WildcardRule::any().with_dst_port(9001),
        FilterAction::Capture,
    );
    let (mon, capture, stats) = MonitorPort::new(
        MonConfig {
            filter,
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        },
        clock(),
    );
    let mut mods: Vec<FlowMod> = (0..256)
        .map(|i| FlowMod::add(flow_match(10_000 + i), 10, output(3)))
        .collect();
    mods.push(FlowMod::add(flow_match(9001), 20, output(2)));
    let punts = Rc::new(Cell::new(0));

    let mut b = SimBuilder::new();
    let g = b.add_component("gen", Box::new(generator(FRAMES, burst, 128, start)), 1);
    let l = b.add_component("link", Box::new(link), 2);
    let sw = b.add_component("switch", Box::new(switch), kernel_ports);
    let m = b.add_component("mon", Box::new(mon), 1);
    let loader = RuleLoader {
        mods,
        punts: Rc::clone(&punts),
    };
    let ctl = b.add_component("ctl", Box::new(loader), 1);
    b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());
    b.connect(g, 0, l, 0, LinkSpec::ten_gig());
    b.connect(l, 1, sw, 0, LinkSpec::ten_gig());
    b.connect(sw, 1, m, 0, LinkSpec::ten_gig());
    // 2 000 × 118.4 ns of wire ends well inside a millisecond.
    b.build().run_until(start + SimDuration::from_ms(1));
    let packets = capture.borrow().packets.clone();
    let stats = *stats.borrow();
    (packets, stats, punts.get())
}

#[test]
fn generator_burst_size_is_unobservable_behind_link_and_switch() {
    let (reference, stats, punts) = pipeline_run(1);
    assert_eq!(punts, 0, "the live rule must forward every frame");
    assert_eq!(reference.len(), 2_000);
    assert_eq!(stats.host_frames, 2_000);
    for burst in [8, 32] {
        let (packets, burst_stats, punts) = pipeline_run(burst);
        assert_eq!(punts, 0, "burst {burst}");
        assert_eq!(burst_stats, stats, "burst {burst}");
        assert!(packets == reference, "burst {burst}: capture diverged");
    }
}

/// E12 in small: 1 000 back-to-back frames, `batch` per generator event,
/// straight into a monitor with decoy rules, thinning and a capture
/// bound.
fn capture_run(batch: u64) -> (Vec<CapturedPacket>, MonStats) {
    let mut filter = FilterTable::drop_by_default();
    filter.push(WildcardRule::any().with_dst_port(7), FilterAction::Drop);
    filter.push(
        WildcardRule::any().with_dst_port(9001),
        FilterAction::Capture,
    );
    let (mon, buffer, stats) = MonitorPort::new(
        MonConfig {
            filter,
            thin: ThinConfig::cut_with_hash(60),
            host: HostPathConfig::unlimited(),
            capture_limit: Some(701),
        },
        clock(),
    );
    let mut b = SimBuilder::new();
    let g = b.add_component(
        "gen",
        Box::new(generator(1_000, batch, 256, SimTime::ZERO)),
        1,
    );
    let m = b.add_component("mon", Box::new(mon), 1);
    b.connect(g, 0, m, 0, LinkSpec::ten_gig());
    b.build().run_until(SimTime::from_ms(2));
    let packets = buffer.borrow().packets.clone();
    let stats = *stats.borrow();
    (packets, stats)
}

#[test]
fn monitor_captures_a_burst_like_its_frames_one_by_one() {
    let (scalar, scalar_stats) = capture_run(1);
    let (burst, burst_stats) = capture_run(32);
    assert_eq!(scalar_stats, burst_stats);
    assert_eq!(scalar_stats.capture_shed, 299);
    assert_eq!(scalar_stats.thinned, 1_000);
    assert_eq!(scalar.len(), 701);
    assert!(scalar == burst, "capture diverged between batch 1 and 32");
}

/// `(frames, digest)` of one [`DigestSink`].
type SinkState = Rc<Cell<(u64, u32)>>;

/// Swallows traffic, folding every arrival (instant and payload CRC)
/// into its [`SinkState`].
struct DigestSink(SinkState);

impl Component for DigestSink {
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
        let (frames, digest) = self.0.get();
        let digest = crc32_update(digest, &k.now().as_ps().to_le_bytes());
        let digest = crc32_update(digest, &crc32(pkt.data()).to_le_bytes());
        self.0.set((frames + 1, digest));
    }
}

/// Port `i` of a tester, added to `b`: a generator of `2_000 + i`
/// frames wired to a digest sink, sharing nothing with any other port
/// (a clock each).
fn port_pair(b: &mut SimBuilder, i: u64) -> SinkState {
    let gen = generator(2_000 + i, 32, 64, SimTime::ZERO);
    let g = b.add_component(&format!("gen{i}"), Box::new(gen), 1);
    let state = Rc::new(Cell::new((0, 0)));
    let s = b.add_component(&format!("sink{i}"), Box::new(DigestSink(state.clone())), 1);
    b.connect(g, 0, s, 0, LinkSpec::ten_gig());
    state
}

/// Ports `ports` on one kernel, run to 1 ms: each sink's
/// `(frames, digest)`, in the order given.
fn port_pairs(ports: impl IntoIterator<Item = u64>) -> Vec<(u64, u32)> {
    let mut b = SimBuilder::new();
    let sinks: Vec<SinkState> = ports.into_iter().map(|i| port_pair(&mut b, i)).collect();
    b.build().run_until(SimTime::from_ms(1));
    sinks.iter().map(|s| s.get()).collect()
}

#[test]
fn four_ports_on_one_kernel_are_independent() {
    let together = port_pairs(0..4);
    let frames: Vec<u64> = together.iter().map(|&(frames, _)| frames).collect();
    assert_eq!(frames, [2_000, 2_001, 2_002, 2_003]);
    for (i, &port) in (0..).zip(&together) {
        assert_eq!(port_pairs([i]), [port], "port {i} alone on its own kernel");
    }
    let digests: Vec<u32> = together.iter().map(|&(_, digest)| digest).collect();
    // Recorded while the sharded kernel was still in the tree.
    assert_eq!(
        digests,
        [0x4c9b_26ca, 0xe139_82c3, 0x9c6e_2a2c, 0x4acc_a5e6]
    );
}

/// Forwards every handler to `inner`, counting the timers that fire.
struct TimerTally<C> {
    inner: C,
    timers: Rc<Cell<u64>>,
}

impl<C> TimerTally<C> {
    fn boxed(inner: C, timers: &Rc<Cell<u64>>) -> Box<Self> {
        let timers = timers.clone();
        Box::new(TimerTally { inner, timers })
    }
}

impl<C: Component> Component for TimerTally<C> {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        self.inner.on_start(k, me);
    }
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, pkt: Packet) {
        self.inner.on_packet(k, me, port, pkt);
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
        self.timers.set(self.timers.get() + 1);
        self.inner.on_timer(k, me, tag);
    }
}

/// What a run of the tail-drop pipeline leaves behind.
#[derive(Debug, PartialEq)]
struct TailDropRun {
    events: u64,
    timers: u64,
    /// gen port 0, switch ports 0 and 1, monitor port 0.
    counters: [PortCounters; 4],
    captured: u64,
    capture_digest: u32,
}

/// 2 000 back-to-back 64 B frames into a `LegacySwitch` whose one wired
/// output is a 1 GbE link behind a 1 KiB buffer — it tail-drops nine
/// frames in ten — and on into a capture-all monitor. `drive` runs the
/// simulation and returns the sum of the counts its runs returned.
fn tail_drop_run(drive: impl FnOnce(&mut Sim) -> u64) -> TailDropRun {
    let timers = Rc::new(Cell::new(0));
    let switch = LegacySwitch::new(LegacyConfig {
        output_buffer_bytes: 1024,
        ..LegacyConfig::default()
    });
    let (mon, capture, _) = MonitorPort::new(
        MonConfig {
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        },
        clock(),
    );
    let mut b = SimBuilder::new();
    let gen = generator(2_000, 1, 64, SimTime::ZERO);
    let g = b.add_component("gen", TimerTally::boxed(gen, &timers), 1);
    let sw = b.add_component("switch", TimerTally::boxed(switch, &timers), 4);
    let m = b.add_component("mon", Box::new(mon), 1);
    b.connect(g, 0, sw, 0, LinkSpec::ten_gig());
    b.connect(sw, 1, m, 0, LinkSpec::one_gig());
    let mut sim = b.build();
    let returned = drive(&mut sim);

    let k = sim.kernel();
    assert_eq!(returned, k.events_dispatched(), "Σ of returned counts");
    assert_eq!(k.pending_events(), 0, "nothing left to happen");
    let capture = capture.borrow();
    let capture_digest = capture.packets.iter().fold(0, |d, cap| {
        let d = crc32_update(d, &cap.rx_true.as_ps().to_le_bytes());
        let d = crc32_update(d, &cap.rx_stamp.to_ps().to_le_bytes());
        crc32_update(d, &crc32(cap.packet.data()).to_le_bytes())
    });
    TailDropRun {
        events: k.events_dispatched(),
        timers: timers.get(),
        counters: [
            k.counters(g, 0),
            k.counters(sw, 0),
            k.counters(sw, 1),
            k.counters(m, 0),
        ],
        captured: capture.len() as u64,
        capture_digest,
    }
}

#[test]
fn mac_completions_are_counted_and_run_slicing_is_invisible() {
    // The switch's buffer drains by ~150 µs.
    let horizon = SimTime::from_us(200);
    let whole = tail_drop_run(|sim| sim.run_until(horizon));

    let [gen, sw_in, sw_out, mon] = whole.counters;
    assert_eq!((gen.tx_frames, sw_in.rx_frames), (2_000, 2_000));
    assert!(sw_out.tx_drops > 1_500, "{sw_out:?}");
    assert_eq!(sw_out.tx_frames + sw_out.tx_drops, 2_000);
    assert_eq!(
        (mon.rx_frames, whole.captured),
        (sw_out.tx_frames, sw_out.tx_frames)
    );
    // Every port here transmits frame by frame, so each transmitted
    // frame is one completion: an event, though never a queue entry.
    let delivered = sw_in.rx_frames + mon.rx_frames;
    let completions = gen.tx_frames + sw_out.tx_frames;
    assert_eq!(whole.events, whole.timers + delivered + completions);

    let sliced = tail_drop_run(|sim| {
        let step = horizon.as_ps() / 1_000;
        (1..=1_000)
            .map(|i| sim.run_until(SimTime::from_ps(i * step)))
            .sum()
    });
    assert_eq!(sliced, whole, "1 000 slices");
    let drained = tail_drop_run(|sim| sim.run_to_quiescence(100_000));
    assert_eq!(drained, whole, "run_to_quiescence");
}

#[test]
fn generator_holds_line_rate_at_every_frame_size() {
    const FRAMES: u64 = 4_000;
    for frame_len in [64usize, 512, 1518] {
        // 10 Gb/s is 100 ps a bit: 67.2 ns a slot at 64 B.
        let slot_ps = wire_bits(frame_len) * 100;
        let theory = line_rate_pps(10_000_000_000, frame_len);
        for batch in [1u64, 32] {
            let (gen, stats) = GeneratorPort::new(
                Box::new(FixedTemplate::new(FixedTemplate::udp_frame(frame_len))),
                GenConfig {
                    count: Some(FRAMES),
                    schedule: Schedule::BackToBack,
                    batch,
                    ..GenConfig::default()
                },
                clock(),
            );
            let arrived = Rc::new(Cell::new((0, 0)));
            let mut b = SimBuilder::new();
            let g = b.add_component("gen", Box::new(gen), 1);
            let s = b.add_component("sink", Box::new(DigestSink(arrived.clone())), 1);
            b.connect(g, 0, s, 0, LinkSpec::ten_gig());
            b.build().run_to_quiescence(FRAMES * 4 + 1_000);

            let stats = stats.borrow();
            let case = format!("{frame_len} B, batch {batch}");
            assert_eq!((stats.sent_frames, stats.dropped), (FRAMES, 0), "{case}");
            assert_eq!(arrived.get().0, FRAMES, "{case}");
            let span = stats.last_tx.expect("sent") - stats.first_tx.expect("sent");
            assert_eq!(span.as_ps(), (FRAMES - 1) * slot_ps, "{case}");
            let achieved = stats.achieved_pps().expect("two frames left");
            assert!(
                (achieved - theory).abs() <= theory * 1e-12,
                "{case}: {achieved} pps, line rate is {theory}"
            );
        }
    }
}

#[test]
fn commodity_clock_stamps_are_pinned() {
    const FRAMES: u64 = 20_000;
    // One card: the generator's port and the monitor's share its clock.
    let card = Rc::new(RefCell::new(HwClock::new(DriftModel::commodity_xo(), 7)));
    let (gen, _) = GeneratorPort::new(
        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(64))),
        GenConfig {
            count: Some(FRAMES),
            schedule: Schedule::BackToBack,
            stamp: Some(StampConfig::default_payload()),
            ..GenConfig::default()
        },
        Rc::clone(&card),
    );
    let (link, _) = FaultyLink::new(FaultConfig::default()).expect("fault-free config is valid");
    let (mon, capture, _) = MonitorPort::new(
        MonConfig {
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        },
        card,
    );
    let mut b = SimBuilder::new();
    let g = b.add_component("gen", Box::new(gen), 1);
    let l = b.add_component("link", Box::new(link), 2);
    let m = b.add_component("mon", Box::new(mon), 1);
    b.connect(g, 0, l, 0, LinkSpec::ten_gig());
    b.connect(l, 1, m, 0, LinkSpec::ten_gig());
    // 20 000 × 67.2 ns of wire.
    b.build().run_until(SimTime::from_ms(2));

    let capture = capture.borrow();
    assert_eq!(capture.len() as u64, FRAMES);
    let digest = capture.packets.iter().fold(0, |d, cap| {
        let tx = extract_at(&cap.packet, StampConfig::DEFAULT_OFFSET).expect("stamped");
        let d = crc32_update(d, &tx.as_raw().to_le_bytes());
        crc32_update(d, &cap.rx_stamp.as_raw().to_le_bytes())
    });
    // Recorded at the parent of PR 25, where every jittered reading drew.
    assert_eq!(digest, 0x618d_7ca6);
}

#[test]
fn legacy_latency_rows_are_pinned_to_the_digit() {
    // E5's table, three of its loads over a 10 ms window: below the
    // knee, on it, and past saturation where the output buffer fills.
    let rows: Vec<String> = [0.4, 0.9, 1.02]
        .iter()
        .map(|&load| {
            let exp = LatencyExperiment {
                background_load: load,
                duration: SimDuration::from_ms(10),
                warmup: SimDuration::from_ms(2),
                ..LatencyExperiment::default()
            };
            let r = exp
                .run_legacy(LegacyConfig::default())
                .expect("statically valid experiment");
            let s = r.latency.expect("probes were captured");
            format!(
                "{:.0} {} {:.2} {:.0} {:.0} {:.0} {:.0} {:.0}",
                load * 100.0,
                r.probe_sent,
                r.loss * 100.0,
                s.min_ns,
                s.p50_ns,
                s.mean_ns,
                s.p99_ns,
                s.max_ns
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            "40 476 0.00 1650 1659 1756 2220 2500",
            "90 476 0.00 1650 2036 2292 4407 5200",
            "102 476 0.00 42769 123470 122957 201851 203019",
        ]
    );
}

#[test]
fn flow_mod_churn_is_pinned_round_by_round() {
    // Three rounds of 50 ADDs against a 100-rule window: the third
    // round also strict-DELETEs 50.
    let (module, state) = FlowChurnModule::new(3, 50, 100, SimTime::from_ms(5));
    let spec = TestbedSpec {
        switch: OfSwitchConfig {
            honest_barrier: true,
            ..OfSwitchConfig::default()
        },
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    // 200 mods at 25 µs of switch CPU each and 1 ms of install a round:
    // done well before the switch's first 100 ms expiry scan.
    tb.run_until(SimTime::from_ms(50));

    let st = state.borrow();
    assert!(st.done, "every round fenced");
    assert_eq!((st.mods_sent, st.errors), (200, 0));
    let rounds: Vec<u64> = st.round_latencies.iter().map(|d| d.as_ps()).collect();
    assert_eq!(rounds, [2_251_524_000, 2_251_524_000, 3_501_524_000]);
    let log = format!("{:?}", tb.control_log.borrow());
    assert_eq!((log.len(), crc32(log.as_bytes())), (104_325, 0xabe0_b256));
    let k = tb.sim.kernel();
    assert_eq!(k.events_dispatched(), 839);
    // Parked past the horizon: the switch's 100 ms expiry scan and the
    // timeout timer of each of the four tracked barriers. The scan
    // re-arms itself on every firing, so this testbed never drains and
    // there is no `pending_events() == 0` to pin.
    assert_eq!(k.pending_events(), 5);
    // Every control-plane event waited in a lane; none fell back to the heap.
    assert_eq!(k.queue_counts().wheel_pushes, 0);
}
