//! Integration test of the full demo scenario (paper Fig. 2), spanning
//! every crate: time, packet, netsim, gen, mon, switch, openflow,
//! oflops and core.

use osnt::core::LatencyExperiment;
use osnt::gen::txstamp::StampConfig;
use osnt::gen::{GenConfig, Schedule};
use osnt::oflops::modules::{AddLatencyModule, AddLatencyReport, RoundRobinDst};
use osnt::oflops::{Testbed, TestbedSpec};
use osnt::switch::{LegacyConfig, OfSwitchConfig};
use osnt::time::{DriftModel, ServoGains, SimDuration, SimTime};

#[test]
fn part_one_legacy_switch_latency_curve() {
    // The measured latency-vs-load relation must be monotone and show
    // the saturation knee.
    let mut medians = Vec::new();
    for load in [0.0f64, 0.5, 0.9, 0.98] {
        let exp = LatencyExperiment {
            background_load: load,
            duration: SimDuration::from_ms(15),
            warmup: SimDuration::from_ms(4),
            ..LatencyExperiment::default()
        };
        let r = exp.run_legacy(LegacyConfig::default()).expect("valid run");
        assert_eq!(r.loss, 0.0, "no loss below saturation (load {load})");
        medians.push(r.latency.expect("samples").p50_ns);
    }
    for w in medians.windows(2) {
        assert!(
            w[1] >= w[0],
            "latency must not decrease with load: {medians:?}"
        );
    }
    assert!(
        medians[3] > medians[0] * 3.0,
        "saturation knee missing: {medians:?}"
    );
}

#[test]
fn part_one_with_realistic_clocks_still_measures_accurately() {
    // GPS-disciplined commodity clocks must agree with ideal clocks to
    // well under a microsecond.
    let ideal = LatencyExperiment {
        duration: SimDuration::from_ms(15),
        warmup: SimDuration::from_ms(4),
        ..LatencyExperiment::default()
    }
    .run_legacy(LegacyConfig::default())
    .expect("valid run")
    .latency
    .unwrap();
    let real = LatencyExperiment {
        duration: SimDuration::from_ms(15),
        warmup: SimDuration::from_ms(4),
        clock_model: DriftModel::commodity_xo(),
        seed: 3,
        ..LatencyExperiment::default()
    }
    .run_legacy(LegacyConfig::default())
    .expect("valid run")
    .latency
    .unwrap();
    let err = (real.mean_ns - ideal.mean_ns).abs();
    // Short run: the free-running drift contribution stays small; the
    // dominant error is stamp quantisation plus reading jitter.
    assert!(err < 1_000.0, "clock-induced error {err} ns");
}

/// A burst of `n` FLOW_MOD ADDs at 10 ms and a barrier under a 2 Mpps
/// probe that visits every rule until 15 ms, by when 30 rules have had
/// 25 µs of switch CPU each and the 1 ms install; `honest` makes the
/// switch reply to the barrier only once hardware has committed.
fn insertion_run(n: usize, honest: bool) -> AddLatencyReport {
    let (module, state) = AddLatencyModule::new(n, SimTime::from_ms(10));
    let spec = TestbedSpec {
        switch: OfSwitchConfig {
            honest_barrier: honest,
            ..OfSwitchConfig::default()
        },
        probe: Some((
            Box::new(RoundRobinDst::new(n, 128)),
            GenConfig {
                schedule: Schedule::ConstantPps(2_000_000.0),
                start_at: SimTime::from_ms(5),
                stop_at: Some(SimTime::from_ms(15)),
                stamp: Some(StampConfig::default_payload()),
                ..GenConfig::default()
            },
        )),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(20));
    let report = AddLatencyReport::analyze(&tb, &state.borrow(), n);
    report
}

#[test]
fn part_two_openflow_insertion_measured_on_both_planes() {
    let report = insertion_run(30, false);
    let barrier = report.barrier_latency.expect("barrier");
    let max_act = report.max_activation().expect("activations");
    assert_eq!(report.never_activated(), 0);
    assert!(
        max_act > barrier,
        "data plane must lag the dishonest barrier"
    );
    // Growth with batch size: run n=5 for comparison.
    let report5 = insertion_run(5, false);
    assert!(
        report.barrier_latency.unwrap() > report5.barrier_latency.unwrap(),
        "larger batches take longer on the control plane"
    );
    // A small batch is wholly in flight when the default switch acks the
    // barrier: every rule activates after it.
    assert_eq!(
        (
            report5.activated_after_barrier,
            report.activated_after_barrier
        ),
        (5, 30)
    );
    // An honest barrier trails the hardware: at most the last rule, whose
    // first probe lands just after the reply, activates after it.
    let honest = insertion_run(30, true);
    assert_eq!(honest.never_activated(), 0);
    assert_eq!(honest.activation, report.activation, "same hardware");
    assert!(honest.activated_after_barrier <= 1, "{honest:?}");
}

#[test]
fn gps_keeps_one_way_measurements_honest_across_cards() {
    // Two *different* clocks (as if TX and RX were separate cards) both
    // GPS-disciplined: their mutual offset must stay sub-µs, which is
    // what makes one-way latency measurement possible at all.
    use osnt::time::{GpsDiscipline, HwClock};
    let mut a = HwClock::new(DriftModel::commodity_xo(), 100);
    let mut b = HwClock::new(DriftModel::commodity_xo(), 200);
    let mut da = GpsDiscipline::new(ServoGains::default());
    let mut db = GpsDiscipline::new(ServoGains::default());
    for s in 1..=120u64 {
        let t = SimTime::from_secs(s);
        da.on_pps(&mut a, t);
        db.on_pps(&mut b, t);
    }
    let t = SimTime::from_secs(121);
    a.advance_to(t);
    b.advance_to(t);
    let mutual = (a.offset_ps() - b.offset_ps()).abs();
    assert!(mutual < 1e6, "mutual card offset {mutual} ps exceeds 1 µs");
    assert!(da.is_locked() && db.is_locked());
}
