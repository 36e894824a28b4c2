//! Control-channel fault injection, end to end: the controller must
//! retry through disconnects, survive stalls and truncated reads, record
//! every failure as a `ControlError`, and keep the measurement module
//! running — no injected fault may unwind the experiment.

use oflops_turbo::{
    ControlErrorKind, ControlFaultConfig, MeasurementModule, ModuleCtx, RetryPolicy, Testbed,
    TestbedSpec,
};
use osnt_openflow::messages::EchoData;
use osnt_openflow::Message;
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Sends `n` tracked echoes, one per `period`; counts the answers.
struct TrackedEcho {
    n: u32,
    period: SimDuration,
    sent: u32,
    state: Rc<RefCell<EchoState>>,
}

#[derive(Debug, Default)]
struct EchoState {
    answered: u32,
    error_events: u32,
    ready: bool,
}

const TAG_NEXT: u64 = 1;

impl TrackedEcho {
    fn new(n: u32, period: SimDuration) -> (Self, Rc<RefCell<EchoState>>) {
        let state = Rc::new(RefCell::new(EchoState::default()));
        (
            TrackedEcho {
                n,
                period,
                sent: 0,
                state: state.clone(),
            },
            state,
        )
    }

    fn send_next(&mut self, ctx: &mut ModuleCtx<'_>) {
        if self.sent >= self.n {
            return;
        }
        ctx.send_tracked(Message::EchoRequest(EchoData(
            self.sent.to_be_bytes().to_vec(),
        )));
        self.sent += 1;
        if self.sent < self.n {
            ctx.schedule(self.period, TAG_NEXT);
        }
    }
}

impl MeasurementModule for TrackedEcho {
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.state.borrow_mut().ready = true;
        self.send_next(ctx);
    }

    fn on_message(&mut self, _ctx: &mut ModuleCtx<'_>, message: &Message, _xid: u32) {
        if let Message::EchoReply(_) = message {
            self.state.borrow_mut().answered += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        assert_eq!(tag, TAG_NEXT);
        self.send_next(ctx);
    }

    fn on_control_error(&mut self, _ctx: &mut ModuleCtx<'_>, _error: &oflops_turbo::ControlError) {
        self.state.borrow_mut().error_events += 1;
    }
}

fn fast_retry() -> RetryPolicy {
    // Decorrelated jitter draws each wait from [timeout, 3 * prev], so
    // the worst case is every wait at the 2 ms floor. Six resends put
    // the last one at >= first-timeout + 5 * 2 ms = 12 ms past the
    // send — beyond the longest outage window (8 ms) these tests use,
    // for every jitter seed, not just the default one.
    RetryPolicy {
        timeout: SimDuration::from_ms(2),
        max_retries: 6,
        ..RetryPolicy::default()
    }
}

#[test]
fn clean_channel_answers_everything_without_errors() {
    let (module, state) = TrackedEcho::new(20, SimDuration::from_ms(1));
    let mut tb = Testbed::build(TestbedSpec::control_only(), Box::new(module));
    tb.run_until(SimTime::from_ms(100));
    assert_eq!(state.borrow().answered, 20);
    assert!(tb.control_errors.borrow().is_empty());
    assert!(tb.control_fault_stats.is_none());
}

#[test]
fn handshake_survives_a_boot_time_disconnect() {
    // The channel is down for the first 8 ms — Hello and FeaturesRequest
    // vanish. The tracked handshake retries until the channel heals.
    let (module, state) = TrackedEcho::new(5, SimDuration::from_ms(1));
    let spec = TestbedSpec {
        control_faults: Some(ControlFaultConfig {
            disconnects: vec![(SimTime::ZERO, SimTime::from_ms(8))],
            ..ControlFaultConfig::clean()
        }),
        retry: fast_retry(),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(100));
    let st = state.borrow();
    assert!(st.ready, "handshake must complete after the disconnect");
    assert_eq!(st.answered, 5, "all echoes answered after healing");
    // The retries were recorded, not silent.
    let errors = tb.control_errors.borrow();
    assert!(
        errors
            .iter()
            .any(|e| matches!(e.kind, ControlErrorKind::Timeout { .. })),
        "expected timeout records, got {errors:?}"
    );
    let stats = tb.control_fault_stats.as_ref().unwrap().borrow();
    assert!(stats.dropped > 0, "frames were dropped in the window");
}

#[test]
fn mid_run_disconnect_recovers_and_accounts() {
    let (module, state) = TrackedEcho::new(30, SimDuration::from_ms(1));
    let spec = TestbedSpec {
        control_faults: Some(ControlFaultConfig {
            disconnects: vec![(SimTime::from_ms(10), SimTime::from_ms(18))],
            ..ControlFaultConfig::clean()
        }),
        retry: fast_retry(),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(200));
    let st = state.borrow();
    assert_eq!(st.answered, 30, "every tracked echo eventually answered");
    assert!(st.error_events > 0, "module was told about the errors");
    let errors = tb.control_errors.borrow();
    assert!(!errors.is_empty());
    // Errors are timestamped inside or just after the outage window.
    for e in errors.iter() {
        assert!(
            e.time >= SimTime::from_ms(10),
            "error at {} too early",
            e.time
        );
    }
}

#[test]
fn permanent_disconnect_gives_up_without_panicking() {
    // Channel dies at 5 ms and never returns: tracked requests must
    // exhaust retries and be abandoned with GaveUp records — the run
    // completes, nothing unwinds.
    let (module, state) = TrackedEcho::new(10, SimDuration::from_ms(1));
    let spec = TestbedSpec {
        control_faults: Some(ControlFaultConfig {
            disconnects: vec![(SimTime::from_ms(5), SimTime::from_secs(10))],
            ..ControlFaultConfig::clean()
        }),
        retry: fast_retry(),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_secs(1));
    let st = state.borrow();
    assert!(st.ready, "handshake happened before the cut");
    assert!(st.answered < 10, "some echoes must be lost");
    let errors = tb.control_errors.borrow();
    let gave_up = errors
        .iter()
        .filter(|e| matches!(e.kind, ControlErrorKind::GaveUp { .. }))
        .count();
    assert!(gave_up > 0, "abandoned requests must be recorded");
}

#[test]
fn stall_window_delays_but_loses_nothing() {
    let (module, state) = TrackedEcho::new(20, SimDuration::from_ms(1));
    let spec = TestbedSpec {
        control_faults: Some(ControlFaultConfig {
            stalls: vec![(SimTime::from_ms(8), SimTime::from_ms(12))],
            ..ControlFaultConfig::clean()
        }),
        // Timeout longer than the stall: held frames are late, not lost,
        // so no retries fire.
        retry: RetryPolicy {
            timeout: SimDuration::from_ms(20),
            max_retries: 3,
            ..RetryPolicy::default()
        },
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(200));
    assert_eq!(state.borrow().answered, 20);
    assert!(
        tb.control_errors.borrow().is_empty(),
        "stall under the timeout is invisible"
    );
    let stats = tb.control_fault_stats.as_ref().unwrap().borrow();
    assert!(stats.stalled > 0, "frames were held");
    assert_eq!(stats.dropped, 0);
    assert_eq!(
        stats.offered, stats.delivered,
        "everything eventually flows"
    );
}

#[test]
fn truncated_reads_become_decode_errors_not_crashes() {
    // Two seeds, so a seed-dependent channel bug does not hide behind one
    // lucky constant.
    for seed in [1, 2] {
        let (module, state) = TrackedEcho::new(40, SimDuration::from_ms(1));
        let spec = TestbedSpec {
            control_faults: Some(ControlFaultConfig {
                truncate_probability: 0.3,
                seed,
                ..ControlFaultConfig::clean()
            }),
            // A deeper retry budget than fast_retry(): each echo round trip
            // survives one attempt with p = 0.7^2 = 0.49 (request and reply
            // each cross the lossy channel), so 9 attempts leave a residual
            // of 0.51^9 ≈ 0.2% per echo — seed-robust for the bound below.
            retry: RetryPolicy {
                timeout: SimDuration::from_ms(2),
                max_retries: 8,
                ..RetryPolicy::default()
            },
            ..TestbedSpec::control_only()
        };
        let mut tb = Testbed::build(spec, Box::new(module));
        tb.run_until(SimTime::from_secs(1));
        let st = state.borrow();
        assert!(st.answered >= 38, "seed {seed}: answered {}", st.answered);
        let errors = tb.control_errors.borrow();
        assert!(
            errors
                .iter()
                .any(|e| matches!(e.kind, ControlErrorKind::Decode { .. })),
            "seed {seed}: truncation must surface as decode errors"
        );
        let stats = tb.control_fault_stats.as_ref().unwrap().borrow();
        assert!(stats.truncated > 0, "seed {seed}");
    }
}

/// Echoes like [`TrackedEcho`], but panics inside `on_timer` once the
/// scheduled send counter reaches `panic_at`.
struct PanickingEcho {
    inner: TrackedEcho,
    panic_at: u32,
}

impl MeasurementModule for PanickingEcho {
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.inner.on_ready(ctx);
    }
    fn on_message(&mut self, ctx: &mut ModuleCtx<'_>, message: &Message, xid: u32) {
        self.inner.on_message(ctx, message, xid);
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        if self.inner.sent >= self.panic_at {
            panic!("module bug: echo #{} exploded", self.inner.sent);
        }
        self.inner.on_timer(ctx, tag);
    }
    fn on_control_error(&mut self, ctx: &mut ModuleCtx<'_>, error: &oflops_turbo::ControlError) {
        self.inner.on_control_error(ctx, error);
    }
}

#[test]
fn module_panic_is_contained_and_poisons_the_module() {
    let (inner, state) = TrackedEcho::new(20, SimDuration::from_ms(1));
    let module = PanickingEcho { inner, panic_at: 5 };
    let mut tb = Testbed::build(TestbedSpec::control_only(), Box::new(module));
    // The run must complete — the panic unwinds into the controller's
    // containment boundary, not through the event loop.
    tb.run_until(SimTime::from_ms(100));
    let st = state.borrow();
    assert!(st.ready);
    assert_eq!(
        st.answered, 5,
        "echoes sent before the panic were answered; none after"
    );
    let errors = tb.control_errors.borrow();
    let panics: Vec<_> = errors
        .iter()
        .filter_map(|e| match &e.kind {
            ControlErrorKind::ModulePanic { boundary, reason } => Some((*boundary, reason.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        panics.len(),
        1,
        "exactly one panic recorded (poisoned module gets no further callbacks): {errors:?}"
    );
    assert_eq!(panics[0].0, "measurement module on_timer");
    assert!(
        panics[0].1.contains("echo #5 exploded"),
        "panic payload preserved: {}",
        panics[0].1
    );
}

#[test]
fn controller_machinery_outlives_a_poisoned_module() {
    // The module dies in on_ready, *before* its first tracked echo is
    // answered — but it already sent it. The controller's retry/timeout
    // machinery must keep running for the in-flight request even though
    // the module is poisoned: with the channel cut, the request must
    // still be retried and abandoned with a GaveUp record.
    struct DieOnReady;
    impl MeasurementModule for DieOnReady {
        fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.send_tracked(Message::EchoRequest(EchoData(vec![0xEE])));
            panic!("dies right after arming the echo");
        }
    }
    let spec = TestbedSpec {
        control_faults: Some(ControlFaultConfig {
            // The handshake round trip completes at ~56 µs and on_ready
            // fires (and dies) there; the echo's own round trip needs
            // ~50 µs more. Cutting at 60 µs lets the request out but
            // swallows the reply — the tracked request must be retried
            // into the dead channel and abandoned.
            disconnects: vec![(SimTime::from_us(60), SimTime::from_secs(10))],
            ..ControlFaultConfig::clean()
        }),
        retry: fast_retry(),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(DieOnReady));
    tb.run_until(SimTime::from_secs(1));
    let errors = tb.control_errors.borrow();
    assert!(
        errors
            .iter()
            .any(|e| matches!(e.kind, ControlErrorKind::ModulePanic { .. })),
        "panic recorded: {errors:?}"
    );
    assert!(
        errors
            .iter()
            .any(|e| matches!(e.kind, ControlErrorKind::GaveUp { .. })),
        "retry machinery survived the poisoned module: {errors:?}"
    );
}

#[test]
fn reserved_timer_tag_is_a_contained_module_failure() {
    // Tags from `1 << 40` up are the controller's retry timeouts
    // (`base + xid`): armed by a module, one would fire as a timeout and
    // never reach the module's `on_timer`. Both entry points refuse it.
    struct ArmsReservedTag {
        at: Option<SimTime>,
    }
    impl MeasurementModule for ArmsReservedTag {
        fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
            match self.at {
                Some(at) => ctx.schedule_at(at, 1 << 40),
                None => ctx.schedule(SimDuration::from_ms(1), 1 << 40),
            }
        }
    }
    for at in [Some(SimTime::from_ms(1)), None] {
        let module = ArmsReservedTag { at };
        let mut tb = Testbed::build(TestbedSpec::control_only(), Box::new(module));
        tb.run_until(SimTime::from_ms(10));
        let errors = tb.control_errors.borrow();
        assert!(
            matches!(
                errors.as_slice(),
                [oflops_turbo::ControlError {
                    kind: ControlErrorKind::ModulePanic { boundary: "measurement module on_ready", reason },
                    ..
                }] if reason.contains("reserved range")
            ),
            "at {at:?}: {errors:?}"
        );
    }
}

#[test]
fn controller_heartbeats_the_attached_probe() {
    let probe = osnt_time::ProgressProbe::new();
    let (module, state) = TrackedEcho::new(10, SimDuration::from_ms(1));
    let spec = TestbedSpec {
        progress: Some(std::sync::Arc::clone(&probe)),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(50));
    assert_eq!(state.borrow().answered, 10);
    assert!(
        probe.now_ps() > 0,
        "simulated-time high-water mark must advance"
    );
    assert!(!probe.abort_requested());
}

#[test]
fn measurement_module_keeps_measuring_through_flaps() {
    // The acceptance bar from the issue: an insertion-latency run with
    // control flaps still produces a (partial) report instead of dying.
    use oflops_turbo::modules::{AddLatencyModule, AddLatencyReport, RoundRobinDst};
    use osnt_gen::txstamp::StampConfig;
    use osnt_gen::{GenConfig, Schedule};
    let n_rules = 10;
    let (module, state) = AddLatencyModule::new(n_rules, SimTime::from_ms(10));
    let spec = TestbedSpec {
        probe: Some((
            Box::new(RoundRobinDst::new(n_rules, 128)),
            GenConfig {
                schedule: Schedule::ConstantPps(1_000_000.0),
                start_at: SimTime::from_ms(5),
                stop_at: Some(SimTime::from_ms(30)),
                stamp: Some(StampConfig::default_payload()),
                ..GenConfig::default()
            },
        )),
        control_faults: Some(ControlFaultConfig {
            // Two short flaps bracketing the flow-mod burst.
            disconnects: vec![
                (SimTime::from_ms(9), SimTime::from_us(9500)),
                (SimTime::from_ms(11), SimTime::from_us(11500)),
            ],
            ..ControlFaultConfig::clean()
        }),
        retry: fast_retry(),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(60));
    // The run completed and the analysis still works: whatever rules the
    // flaps swallowed are reported as never-activated, not panicked on.
    let st = state.borrow();
    let report = AddLatencyReport::analyze(&tb, &st, n_rules);
    let installed = n_rules - report.never_activated();
    assert!(
        installed > 0,
        "some rules must have made it through the flaps"
    );
}
