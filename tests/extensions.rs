//! Integration tests of the extension features: link impairment with
//! sequence-tracked loss measurement, echo-under-load, and the RFC 2544
//! throughput search wired through the CLI-facing APIs.

use osnt::core::{analyze_sequence, DeviceConfig, OsntDevice, PortRole};
use osnt::gen::workload::FixedTemplate;
use osnt::gen::{GenConfig, Schedule};
use osnt::mon::{HostPathConfig, MonConfig};
use osnt::netsim::{FaultConfig, FaultyLink, LinkSpec, SimBuilder};
use osnt::oflops::modules::{EchoLoadModule, RoundRobinDst};
use osnt::oflops::{Testbed, TestbedSpec};
use osnt::switch::OfSwitchConfig;
use osnt::time::{DriftModel, SimDuration, SimTime};

#[test]
fn tester_measures_impaired_link_loss_with_sequence_tags() {
    // OSNT port 0 → impaired link (10% loss) → OSNT port 1.
    let mut b = SimBuilder::new();
    let n_frames = 5_000u64;
    let device = OsntDevice::install(
        &mut b,
        DeviceConfig {
            clock_model: DriftModel::ideal(),
            clock_seed: 1,
            gps: None,
            gps_signal: osnt::time::GpsSignal::always_on(),
            ports: vec![
                PortRole::generator(
                    Box::new(FixedTemplate::new(FixedTemplate::udp_frame(256)).with_sequence_tag()),
                    GenConfig {
                        schedule: Schedule::ConstantPps(1_000_000.0),
                        count: Some(n_frames),
                        ..GenConfig::default()
                    },
                ),
                PortRole::monitor_only().with_monitor(MonConfig {
                    host: HostPathConfig::unlimited(),
                    ..MonConfig::default()
                }),
            ],
        },
    );
    let (link, _) = FaultyLink::new(FaultConfig::uniform_loss(0.10, 99)).expect("valid config");
    let imp = b.add_component("impairment", Box::new(link), 2);
    b.connect(device.ports[0].id, 0, imp, 0, LinkSpec::ten_gig());
    b.connect(imp, 1, device.ports[1].id, 0, LinkSpec::ten_gig());
    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(50));

    let capture = device.ports[1].capture.borrow();
    let report = analyze_sequence(&capture);
    assert_eq!(report.duplicated, 0);
    assert_eq!(report.reordered, 0);
    let measured_loss = report.loss_fraction(n_frames);
    assert!(
        (measured_loss - 0.10).abs() < 0.02,
        "measured loss {measured_loss} vs injected 0.10"
    );
    // Holes detected by the tracker match the arithmetic of the capture.
    assert_eq!(
        report.tagged as u64 + report.lost,
        report.max_seq + 1,
        "every sequence number is either seen or counted lost"
    );
}

#[test]
fn impairment_jitter_inflates_measured_latency_spread() {
    use osnt::core::{latencies_from_capture, Summary};
    use osnt::gen::txstamp::StampConfig;
    let run = |jitter_us: u64| {
        let mut b = SimBuilder::new();
        let device = OsntDevice::install(
            &mut b,
            DeviceConfig {
                clock_model: DriftModel::ideal(),
                clock_seed: 1,
                gps: None,
                gps_signal: osnt::time::GpsSignal::always_on(),
                ports: vec![
                    PortRole::generator(
                        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(256))),
                        GenConfig {
                            schedule: Schedule::ConstantPps(100_000.0),
                            count: Some(1_000),
                            stamp: Some(StampConfig::default_payload()),
                            ..GenConfig::default()
                        },
                    ),
                    PortRole::monitor_only().with_monitor(MonConfig {
                        host: HostPathConfig::unlimited(),
                        ..MonConfig::default()
                    }),
                ],
            },
        );
        let jitter = SimDuration::from_us(jitter_us);
        let (link, _) = FaultyLink::new(FaultConfig::delay_jitter(SimDuration::ZERO, jitter, 3))
            .expect("valid config");
        let imp = b.add_component("imp", Box::new(link), 2);
        b.connect(device.ports[0].id, 0, imp, 0, LinkSpec::ten_gig());
        b.connect(imp, 1, device.ports[1].id, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(50));
        let capture = device.ports[1].capture.borrow();
        let lat = latencies_from_capture(&capture, StampConfig::DEFAULT_OFFSET);
        Summary::from_durations(&lat).unwrap()
    };
    let clean = run(0);
    let jittered = run(50);
    assert!(
        clean.stddev_ns < 10.0,
        "clean path stddev {}",
        clean.stddev_ns
    );
    assert!(
        jittered.stddev_ns > 1_000.0,
        "jittered path stddev {}",
        jittered.stddev_ns
    );
    assert!(jittered.max_ns > clean.max_ns + 10_000.0);
}

#[test]
fn echo_rtt_inflates_during_flow_mod_burst() {
    // 40 echoes every 500 µs; a 100-rule burst at t = 10 ms.
    let (module, state) =
        EchoLoadModule::new(40, SimDuration::from_us(500), SimTime::from_ms(10), 100);
    let spec = TestbedSpec {
        switch: OfSwitchConfig::default(),
        probe: Some((
            Box::new(RoundRobinDst::new(4, 128)),
            GenConfig {
                // Tiny probe just to keep the dataplane busy.
                schedule: Schedule::ConstantPps(10_000.0),
                start_at: SimTime::from_ms(1),
                stop_at: Some(SimTime::from_ms(30)),
                ..GenConfig::default()
            },
        )),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(40));
    let st = state.borrow();
    assert!(st.rtts.len() >= 38, "echoes answered: {}", st.rtts.len());
    let baseline = st.baseline_rtt().expect("baseline");
    let worst = st.worst_rtt_after_burst().expect("worst");
    // 100 × 25 µs of flow_mod CPU stands between an echo and its reply.
    assert!(
        worst >= baseline.saturating_mul(5),
        "worst {worst} vs baseline {baseline}"
    );
    assert!(worst >= SimDuration::from_ms(1), "worst {worst}");
}
