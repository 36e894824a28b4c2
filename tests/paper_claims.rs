//! The paper's quantitative claims, one test each, asserted and pinned
//! where tier-1 (`cargo test -q`) runs. Where an experiment's own
//! parameters run in well under a second, the test pins the figures its
//! table reads to the digit (EXPERIMENTS.md quotes the same tables);
//! otherwise it runs a miniature and pins a CRC of the report's `Debug`
//! text. E1 is `contract.rs::generator_holds_line_rate_at_every_frame_size`,
//! E5 `contract.rs::legacy_latency_rows_are_pinned_to_the_digit` and E6
//! `fig2_demo.rs::part_two_openflow_insertion_measured_on_both_planes`.
//!
//! * E2: 6.25 ns stamps, drift held sub-µs by GPS;
//! * E3: PCAP replay honours every feasible inter-departure time;
//! * E4: the host path is loss-limited; thinning and filtering restore it;
//! * E7: the default switch forwards on stale rules after its barrier;
//! * E8: MAC stamps carry nanoseconds of error, host stamps microseconds;
//! * E9: faults on the data, timing and control planes degrade a report
//!   instead of aborting the run.

use osnt::core::baseline::SoftwareStamper;
use osnt::core::latency::Summary;
use osnt::core::LatencyExperiment;
use osnt::gen::txstamp::StampConfig;
use osnt::gen::workload::FlowPool;
use osnt::gen::{GenConfig, GeneratorPort, IdtMode, PcapReplay, Schedule};
use osnt::mon::{
    FilterAction, FilterTable, HostPathConfig, MonConfig, MonStats, MonitorPort, ThinConfig,
};
use osnt::netsim::{
    Component, ComponentId, FaultConfig, GilbertElliott, Kernel, LinkSpec, LossModel, SimBuilder,
};
use osnt::oflops::modules::{
    AddLatencyModule, AddLatencyReport, ConsistencyModule, ConsistencyReport, RoundRobinDst,
};
use osnt::oflops::{ControlErrorKind, ControlFaultConfig, RetryPolicy, Testbed, TestbedSpec};
use osnt::packet::hash::crc32;
use osnt::packet::pcap::PcapRecord;
use osnt::packet::{Packet, WildcardRule};
use osnt::switch::{LegacyConfig, OfSwitchConfig};
use osnt::time::{
    run_pps_session, run_pps_session_with_signal, DisciplineState, DriftModel, GpsDiscipline,
    GpsSignal, HwClock, HwTimestamp, SimDuration, SimTime, DATAPATH_TICK_PS,
};
use std::cell::RefCell;
use std::rc::Rc;

fn ideal_clock() -> Rc<RefCell<HwClock>> {
    Rc::new(RefCell::new(HwClock::ideal()))
}

/// `(length, CRC-32)` of `value`'s `Debug` text.
fn debug_digest(value: &impl std::fmt::Debug) -> (usize, u32) {
    let text = format!("{value:?}");
    (text.len(), crc32(text.as_bytes()))
}

#[test]
fn timestamps_quantise_to_one_tick_and_gps_holds_them_sub_us() {
    // 200 000 instants spread over 100 s: a stamp is the instant floored
    // to the 6.25 ns tick, then to the 32.32 format's 2⁻³² s (< 233 ps).
    let mut max_err = 0;
    let mut t: u64 = 1;
    for _ in 0..200_000 {
        let stamp = HwTimestamp::from_sim_time(SimTime::from_ps(t));
        max_err = max_err.max(t - stamp.to_ps());
        t = t.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 100_000_000_000_000;
    }
    assert!(max_err <= DATAPATH_TICK_PS + 233, "{max_err} ps");
    assert_eq!(max_err, 6_476);

    // One commodity oscillator run free and the same one GPS-disciplined
    // for five minutes: offset in ns at nine instants.
    let mut free = HwClock::new(DriftModel::commodity_xo(), 42);
    let mut held = HwClock::new(DriftModel::commodity_xo(), 42);
    let mut disc = GpsDiscipline::default();
    let offsets = run_pps_session(&mut held, &mut disc, SimTime::ZERO, 300);
    let rows: Vec<String> = [1u64, 5, 10, 30, 60, 120, 180, 240, 300]
        .iter()
        .map(|&s| {
            free.advance_to(SimTime::from_secs(s));
            let held = offsets[s as usize - 1];
            format!("{s} {:.1} {:.1}", free.offset_ps() / 1e3, held / 1e3)
        })
        .collect();
    assert_eq!(
        rows,
        [
            "1 18000.0 18000.0",
            "5 90168.1 122.3",
            "10 180155.1 -28.0",
            "30 540780.1 7.9",
            "60 1095935.5 -91.0",
            "120 2217781.5 107.6",
            "180 3317551.6 -27.1",
            "240 4375020.0 13.3",
            "300 5432807.9 -1.3",
        ]
    );
    let worst_held = offsets[30..].iter().map(|o| o.abs()).fold(0.0, f64::max);
    assert!(disc.is_locked());
    assert!(
        worst_held < 1e6,
        "held offset {worst_held} ps is not sub-µs"
    );
    assert_eq!(format!("{:.1}", worst_held / 1e3), "248.0");
}

struct Sink;

impl Component for Sink {
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
}

/// A 2 000-record capture with pseudo-random gaps of 50 ns – 30 µs and
/// frames of 64, 128, 512 and 1518 B in turn.
fn synthetic_capture() -> Vec<PcapRecord> {
    let mut t: u64 = 0;
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    (0..2_000)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += (50 + x % 30_000) * 1_000;
            PcapRecord::full(t, vec![0xab; [60, 124, 508, 1514][i % 4]])
        })
        .collect()
}

#[test]
fn replay_honours_every_feasible_inter_departure_time() {
    let capture = synthetic_capture();
    let modes = [
        ("as-recorded", IdtMode::AsRecorded),
        ("scaled-x0.25", IdtMode::Scaled(0.25)),
        ("fixed-5us", IdtMode::Fixed(SimDuration::from_us(5))),
        ("back-to-back", IdtMode::BackToBack),
    ];
    let mut rows = Vec::new();
    for (name, mode) in modes {
        let replay = PcapReplay::new(capture.clone(), mode);
        let schedule = replay.schedule();
        let (port, stats) = GeneratorPort::from_replay(
            replay,
            GenConfig {
                record_departures: true,
                ..GenConfig::default()
            },
            ideal_clock(),
        );
        let mut b = SimBuilder::new();
        let g = b.add_component("replay", Box::new(port), 1);
        let s = b.add_component("sink", Box::new(Sink), 1);
        b.connect(g, 0, s, 0, LinkSpec::ten_gig());
        b.build().run_to_quiescence(10_000_000);
        let departures = stats.borrow().departures.clone();
        assert_eq!(departures.len(), schedule.len(), "{name}: lost frames");

        // A frame leaves at its requested instant unless the frame before
        // it still holds the wire; then it leaves the moment the wire is
        // free (10 Gb/s is 800 ps a byte).
        let start = departures[0];
        for i in 1..departures.len() {
            let requested = start + schedule[i].0;
            let wire_free =
                departures[i - 1] + SimDuration::from_ps(schedule[i - 1].1.wire_len() as u64 * 800);
            assert_eq!(departures[i], requested.max(wire_free), "{name}: frame {i}");
        }

        let gaps = |ps: Vec<u64>| ps.windows(2).map(|w| w[1] as f64 - w[0] as f64).collect();
        let requested: Vec<f64> = gaps(schedule.iter().map(|(d, _)| d.as_ps()).collect());
        let achieved: Vec<f64> = gaps(departures.iter().map(|t| t.as_ps()).collect());
        let errors: Vec<f64> = requested
            .iter()
            .zip(&achieved)
            .map(|(r, a)| (a - r).abs())
            .collect();
        let mean_ns = |gaps: &[f64]| gaps.iter().sum::<f64>() / gaps.len() as f64 / 1e3;
        rows.push(format!(
            "{name} {:.1} {:.1} {:.1} {:.1}",
            mean_ns(&requested),
            mean_ns(&achieved),
            errors.iter().fold(0.0, |m: f64, &e| m.max(e)) / 1e3,
            errors.iter().filter(|&&e| e == 0.0).count() as f64 / errors.len() as f64 * 100.0
        ));
    }
    // Mode, requested and achieved mean gap (ns), worst gap error (ns),
    // exact gaps (%).
    assert_eq!(
        rows,
        [
            "as-recorded 15151.0 15151.0 1177.4 97.2",
            "scaled-x0.25 3787.8 3787.8 1217.2 87.9",
            "fixed-5us 5000.0 5000.0 0.0 100.0",
            "back-to-back 0.0 460.0 1230.4 0.0",
        ]
    );
}

/// 1 in 8 of [`FlowPool`]'s 64 flows: source ports 10 000 + 8k.
fn one_in_eight_filter() -> FilterTable {
    let mut filter = FilterTable::drop_by_default();
    for flow in (0..64).step_by(8) {
        filter.push(
            WildcardRule::any().with_src_port(10_000 + flow),
            FilterAction::Capture,
        );
    }
    filter
}

/// 0.5 ms of 64 flows of `frame_len` B at `load` of line rate into a
/// monitor configured by `mon`. Returns the generator's sent frames and
/// the monitor's counters.
fn host_path_run(frame_len: usize, load: f64, mon: MonConfig) -> (u64, MonStats) {
    let (gen, gen_stats) = GeneratorPort::new(
        Box::new(FlowPool::new(64, frame_len, 7)),
        GenConfig {
            schedule: Schedule::Utilization {
                fraction: load,
                line_rate_bps: 10_000_000_000,
            },
            stop_at: Some(SimTime::from_us(500)),
            ..GenConfig::default()
        },
        ideal_clock(),
    );
    let (mon, _, stats) = MonitorPort::new(mon, ideal_clock());
    let mut b = SimBuilder::new();
    let g = b.add_component("gen", Box::new(gen), 1);
    let m = b.add_component("mon", Box::new(mon), 1);
    b.connect(g, 0, m, 0, LinkSpec::ten_gig());
    b.build().run_until(SimTime::from_ms(1));
    let sent = gen_stats.borrow().sent_frames;
    let stats = *stats.borrow();
    (sent, stats)
}

#[test]
fn host_path_is_loss_limited_and_thinning_or_filtering_restores_it() {
    // The default path drains 8 Gb/s into a 4 MiB buffer, which absorbs
    // milliseconds of line rate whole; an 8 KiB buffer overflows within
    // 50 µs of it.
    let (_, burst) = host_path_run(1518, 1.0, MonConfig::default());
    assert_eq!(burst.host_drops, 0, "{burst:?}");
    let host = HostPathConfig {
        buffer_bytes: 8 * 1024,
        ..HostPathConfig::default()
    };
    let mut table = Vec::new();
    for frame_len in [64, 512, 1518] {
        for (name, load) in [
            ("full", 0.5),
            ("full", 1.0),
            ("thin64", 1.0),
            ("filter1/8", 1.0),
        ] {
            let mut mon = MonConfig {
                host,
                ..MonConfig::default()
            };
            match name {
                "thin64" => mon.thin = ThinConfig::cut_with_hash(64),
                "filter1/8" => mon.filter = one_in_eight_filter(),
                _ => {}
            }
            let (sent, s) = host_path_run(frame_len, load, mon);
            let case = format!("{frame_len} B at {load}, {name}: {s:?}");
            // The hardware path keeps up: every frame is received and
            // every one that passed the filter is offered to the host.
            assert_eq!(s.rx_frames, sent, "{case}");
            let passed = s.rx_frames - s.filtered_out;
            assert_eq!(s.host_frames + s.host_drops, passed, "{case}");
            // Only line-rate full frames outrun the DMA; thinning cannot
            // shorten a 64 B frame, so there it changes nothing.
            let lossy = load == 1.0 && (name == "full" || (name == "thin64" && frame_len == 64));
            assert_eq!(s.host_drops > 0, lossy, "{case}");
            table.push((frame_len, name, load, s));
        }
    }
    assert_eq!(debug_digest(&table), (2_194, 0xe701_bf68));
}

#[test]
fn forwarding_stays_stale_after_the_barrier_acks() {
    // The default switch rewrites 10 rules from output A to B at 20 ms
    // under a 2 Mpps probe that keeps every rule warm until 25 ms, well
    // after the last rule migrates.
    let (module, state) = ConsistencyModule::new(10, SimTime::from_ms(20));
    let spec = TestbedSpec {
        switch: OfSwitchConfig::default(),
        probe: Some((
            Box::new(RoundRobinDst::new(10, 128)),
            GenConfig {
                schedule: Schedule::ConstantPps(2_000_000.0),
                start_at: SimTime::from_ms(5),
                stop_at: Some(SimTime::from_ms(25)),
                stamp: Some(StampConfig::default_payload()),
                ..GenConfig::default()
            },
        )),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(30));
    let r = ConsistencyReport::analyze(&tb, &state.borrow(), 10);
    // The barrier reply comes from the switch CPU; every rule reaches
    // hardware only after the install delay, so probes keep matching the
    // old rules for up to ~1 ms after the controller is told "done".
    assert_eq!(r.activation.iter().flatten().count(), 10, "all migrate");
    assert!(r.max_activation() > r.barrier_latency);
    assert!(r.stale_after_barrier > 0);
    let us = |d: Option<SimDuration>| d.map_or(0.0, |d| d.as_ns_f64() / 1e3);
    let row = format!(
        "{:.1} {:.1} {} {:.1}",
        us(r.barrier_latency),
        us(r.max_activation()),
        r.stale_after_barrier,
        us(r.max_stale_lag)
    );
    // Barrier (µs), slowest migration (µs), stale packets after the
    // barrier, worst stale lag (µs).
    assert_eq!(row, "252.5 1255.6 1774 998.1");
}

#[test]
fn mac_stamps_beat_host_stamps() {
    // One run stamped at the MAC by a GPS-less commodity oscillator, and
    // the same run on an ideal clock as ground truth (same seed, same
    // timeline).
    let exp = LatencyExperiment {
        background_load: 0.5,
        duration: SimDuration::from_ms(30),
        warmup: SimDuration::from_ms(8),
        clock_model: DriftModel::commodity_xo(),
        seed: 11,
        ..LatencyExperiment::default()
    };
    let summary = |exp: &LatencyExperiment| {
        exp.run_legacy(LegacyConfig::default())
            .expect("statically valid experiment")
            .latency
            .expect("probes were captured")
    };
    let hw = summary(&exp);
    let truth = summary(&LatencyExperiment {
        clock_model: DriftModel::ideal(),
        ..exp.clone()
    });
    // A software tester stamps in the host at both ends: the true mean
    // plus a TX-side and an RX-side draw of heavy-tailed OS noise.
    let mut tx_noise = SoftwareStamper::commodity(21);
    let mut rx_noise = SoftwareStamper::commodity(22);
    let sw_samples: Vec<SimDuration> = (0..truth.count)
        .map(|_| {
            let noise =
                tx_noise.stamp(SimTime::ZERO).to_ps() + rx_noise.stamp(SimTime::ZERO).to_ps();
            SimDuration::from_ps((truth.mean_ns * 1e3) as u64 + noise)
        })
        .collect();
    let sw = Summary::from_durations(&sw_samples).expect("samples");

    let hw_err = (hw.mean_ns - truth.mean_ns).abs();
    let sw_err = (sw.mean_ns - truth.mean_ns).abs();
    assert!(
        hw_err < DATAPATH_TICK_PS as f64 / 1e3,
        "MAC error {hw_err} ns"
    );
    assert!(sw_err > 1e4 * hw_err.max(1.0), "host error {sw_err} ns");
    let rows: Vec<String> = [("truth", &truth), ("mac", &hw), ("host", &sw)]
        .iter()
        .map(|(name, s)| {
            format!(
                "{name} {:.1} {:.1} {:.1} {:.1} {:.1} {:.1}",
                s.mean_ns, s.p50_ns, s.p99_ns, s.max_ns, s.stddev_ns, s.jitter_ns
            )
        })
        .collect();
    // Mean, p50, p99, max, standard deviation and jitter, all in ns.
    assert_eq!(
        rows,
        [
            "truth 1770.6 1667.1 2203.6 2793.7 157.8 154.2",
            "mac 1770.6 1667.1 2187.3 2793.7 157.9 154.4",
            "host 27137.4 22975.5 182244.0 244786.0 23776.0 10969.7",
        ]
    );
}

#[test]
fn faults_degrade_reports_instead_of_aborting() {
    // Data plane: the probe path crosses a faulty link, clean, with
    // bursty loss, and with every fault at once. Each profile yields a
    // complete report whose tallies balance.
    let profiles = [
        FaultConfig::default(),
        FaultConfig {
            loss: LossModel::GilbertElliott(GilbertElliott::bursty(0.01, 8.0)),
            ..FaultConfig::default()
        },
        FaultConfig {
            loss: LossModel::GilbertElliott(GilbertElliott::bursty(0.005, 5.0)),
            corrupt_probability: 0.02,
            duplicate_probability: 0.02,
            reorder_probability: 0.01,
            extra_delay: SimDuration::from_us(2),
            jitter: SimDuration::from_us(1),
            ..FaultConfig::default()
        },
    ];
    let reports: Vec<_> = profiles
        .into_iter()
        .map(|faults| {
            let r = LatencyExperiment {
                background_load: 0.3,
                duration: SimDuration::from_ms(8),
                warmup: SimDuration::from_ms(2),
                probe_faults: Some(faults),
                ..LatencyExperiment::default()
            }
            .run_legacy(LegacyConfig::default())
            .expect("faults degrade the report; they must not abort the run");
            // The link also carries what the switch floods back toward the
            // probe port, so its tallies balance on their own.
            let f = r.fault_stats.expect("a faulty link was scripted");
            assert_eq!(f.delivered, f.offered - f.dropped + f.duplicated, "{r:?}");
            assert!(r.latency.is_some(), "{r:?}");
            r
        })
        .collect();
    let [clean, bursty, sink] = &reports[..] else {
        unreachable!("three profiles")
    };
    assert_eq!(clean.probe_received as u64, clean.probe_sent);
    assert!(bursty.loss > 0.0 && bursty.crc_fail == 0);
    let f = sink.fault_stats.expect("scripted");
    assert!(f.dropped > 0 && f.duplicated > 0 && f.reordered > 0 && sink.crc_fail > 0);
    assert_eq!(debug_digest(&reports), (1_815, 0xcfc2_b4dd));

    // Timing plane: the GPS fix drops out for 30 s after a minute of lock.
    // Holdover coasts on the learned frequency, far closer to true time
    // than the same oscillator never disciplined, and the servo re-locks.
    let mut clock = HwClock::new(DriftModel::commodity_xo(), 42);
    let mut disc = GpsDiscipline::default();
    let signal = GpsSignal::outage(SimTime::from_secs(60), SimDuration::from_secs(30));
    let samples = run_pps_session_with_signal(&mut clock, &mut disc, &signal, SimTime::ZERO, 150);
    let worst_holdover = samples
        .iter()
        .filter(|s| s.state == DisciplineState::Holdover)
        .map(|s| s.offset_ps.abs())
        .fold(0.0, f64::max);
    let mut free = HwClock::new(DriftModel::commodity_xo(), 42);
    free.advance_to(SimTime::from_secs(150));
    assert!(worst_holdover > 0.0);
    assert!(
        worst_holdover * 100.0 < free.offset_ps().abs(),
        "{worst_holdover} ps"
    );
    assert_eq!((disc.pulses_missed(), disc.holdover_entries()), (30, 1));
    assert!(disc.is_locked());
    assert_eq!(
        samples.last().map(|s| s.state),
        Some(DisciplineState::Locked)
    );
    assert_eq!(debug_digest(&samples), (11_662, 0x4a78_0bec));

    // Control plane: the OpenFlow channel flaps during a 30-rule burst.
    // The controller retries; what the flaps swallowed is a ControlError
    // and a rule that never activated, not a crash.
    let n_rules = 30;
    let (module, state) = AddLatencyModule::new(n_rules, SimTime::from_ms(10));
    let spec = TestbedSpec {
        probe: Some((
            Box::new(RoundRobinDst::new(n_rules, 128)),
            GenConfig {
                schedule: Schedule::ConstantPps(1_000_000.0),
                start_at: SimTime::from_ms(5),
                stop_at: Some(SimTime::from_ms(20)),
                stamp: Some(StampConfig::default_payload()),
                ..GenConfig::default()
            },
        )),
        control_faults: Some(ControlFaultConfig {
            // One flap before the burst, and one that opens mid-burst: the
            // 30 flow_mods take ~25 µs of 1 GbE, so the second swallows
            // the tail of the burst and the barrier, which is retried.
            disconnects: vec![
                (SimTime::from_ms(9), SimTime::from_us(9_600)),
                (SimTime::from_us(10_015), SimTime::from_us(10_300)),
            ],
            truncate_probability: 0.05,
            ..ControlFaultConfig::clean()
        }),
        retry: RetryPolicy {
            timeout: SimDuration::from_ms(2),
            max_retries: 4,
            ..RetryPolicy::default()
        },
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(30));
    let report = AddLatencyReport::analyze(&tb, &state.borrow(), n_rules);
    let errors = tb.control_errors.borrow();
    let timeouts = errors
        .iter()
        .filter(|e| matches!(e.kind, ControlErrorKind::Timeout { .. }))
        .count();
    let stats = *tb
        .control_fault_stats
        .as_ref()
        .expect("faults scripted")
        .borrow();
    assert!(timeouts > 0, "{errors:?}");
    assert!(stats.dropped > 0, "{stats:?}");
    assert!(report.never_activated() > 0 && report.never_activated() < n_rules);
    assert!(
        report.barrier_latency.is_some(),
        "the retried barrier got through"
    );
    assert_eq!(
        debug_digest(&(&report, &*errors, stats)),
        (930, 0x8206_bb5c)
    );
}
