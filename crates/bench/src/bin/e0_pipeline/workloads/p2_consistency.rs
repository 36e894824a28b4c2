//! `p2_consistency` — demo Part II, data plane: forwarding consistency
//! while 1000 rules are rewritten from monitor A to monitor B, through
//! `oflops_turbo::Testbed` + `ConsistencyModule` and
//! `ConsistencyReport::analyze`.
//!
//! A 2 Mpps 128 B `RoundRobinDst` probe keeps every rule warm; both
//! monitors capture everything. Per-frame `PacketBuilder`, OpenFlow
//! classification, stamped capture and memory do the work; the control
//! plane is a sliver. An op is a probe frame sent.

use super::testbed;
use super::{run_sliced, timed_setup, AnalyzeLayer, Pace, Rep, Scale, Workload};
use crate::alloc_count;
use crate::digest::Digest;
use crate::spanned::Spans;
use oflops_turbo::modules::{
    ConsistencyModule, ConsistencyReport, ConsistencyState, RoundRobinDst,
};
use oflops_turbo::{Testbed, TestbedSpec};
use osnt_gen::{GenConfig, Schedule, StampConfig};
use osnt_switch::OfSwitchConfig;
use osnt_time::{DriftModel, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "p2_consistency",
    analyze_layer: AnalyzeLayer::Oflops,
    timed,
    traced,
};

const N_RULES: u64 = 1000;
const FRAME_LEN: usize = 128;
const PROBE_PPS: f64 = 2_000_000.0;

struct Plan {
    n_rules: usize,
    /// The probe window.
    active: (SimTime, SimTime),
    horizon: SimTime,
}

fn plan(seed: u64, scale: Scale) -> (Plan, TestbedSpec, SimTime) {
    let n_rules = (N_RULES / scale.div).max(8);
    let switch = OfSwitchConfig::default();
    // The probe starts once every rule (and the drop-all default the
    // module installs first) is in hardware, so no frame is ever
    // punted or silently dropped: each one lands at A or at B.
    let per_table =
        SimDuration::from_ps(switch.flowmod_proc.as_ps() * (n_rules + 1)) + switch.hw_install_delay;
    let probe_start = SimTime::from_ms(2) + per_table;
    // The rewrite needs `per_table` again. It starts a sixth into the
    // probe window and is done before three fifths of it, so every
    // rule is probed at A before and at B after.
    let window = SimDuration::from_ps(per_table.as_ps() * 12 / 5);
    let modify_at = probe_start + SimDuration::from_ps(window.as_ps() / 6);
    let probe_stop = probe_start + window;
    let spec = TestbedSpec {
        switch,
        probe: Some((
            Box::new(RoundRobinDst::new(n_rules as usize, FRAME_LEN)),
            GenConfig {
                schedule: Schedule::ConstantPps(PROBE_PPS),
                start_at: probe_start,
                stop_at: Some(probe_stop),
                stamp: Some(StampConfig::default_payload()),
                ..GenConfig::default()
            },
        )),
        // The seed reaches every stamp through the card oscillator.
        clock_model: DriftModel::commodity_xo(),
        clock_seed: seed,
        ..TestbedSpec::control_only()
    };
    let plan = Plan {
        n_rules: n_rules as usize,
        active: (probe_start, probe_stop),
        horizon: probe_stop + SimDuration::from_ms(2),
    };
    (plan, spec, modify_at)
}

/// Run a built testbed to the horizon and analyze it: the timed call.
fn run(
    plan: &Plan,
    mut tb: Testbed,
    state: &Rc<RefCell<ConsistencyState>>,
    setup: std::time::Duration,
    count_allocs: bool,
    pace: Pace<'_>,
) -> Rep {
    if count_allocs {
        alloc_count::start();
    }
    let run = run_sliced(|t| tb.run_until(t), plan.active, plan.horizon, pace);
    let t = Instant::now();
    let st = state.borrow();
    let report = ConsistencyReport::analyze(&tb, &st, plan.n_rules);
    let analyze = t.elapsed();
    let allocs = count_allocs.then(alloc_count::stop);

    let sent = tb
        .gen_stats
        .as_ref()
        .expect("probe configured")
        .borrow()
        .sent_frames;
    let captured = (tb.capture_a.borrow().len() + tb.capture_b.borrow().len()) as u64;
    let unmigrated = report.activation.iter().filter(|a| a.is_none()).count() as u64;
    let unfenced = u64::from(report.barrier_latency.is_none());
    let failed = sent.saturating_sub(captured)
        + unmigrated
        + unfenced
        + st.errors
        + testbed::control_failures(&tb);

    let mut d = Digest::new();
    testbed::digest(&mut d, &tb);
    let ps = |v: Option<SimDuration>| v.map_or(u64::MAX, |x| x.as_ps());
    d.u64(ps(report.barrier_latency));
    d.u64(report.stale_after_barrier);
    d.u64(ps(report.max_stale_lag));
    for a in &report.activation {
        d.u64(ps(*a));
    }
    Rep {
        setup,
        run,
        analyze,
        ops: sent,
        failed,
        events: Some(tb.sim.kernel().events_dispatched()),
        digest: d.finish(),
        allocs,
    }
}

fn timed(seed: u64, scale: Scale, pace: Pace<'_>) -> Rep {
    let (setup, (plan, tb, state)) = timed_setup(|| {
        let (plan, spec, modify_at) = plan(seed, scale);
        let (module, state) = ConsistencyModule::new(plan.n_rules, modify_at);
        (plan, Testbed::build(spec, Box::new(module)), state)
    });
    run(&plan, tb, &state, setup, false, pace)
}

fn traced(seed: u64, scale: Scale, spans: &Rc<Spans>, pace: Pace<'_>) -> Rep {
    let (setup, (plan, tb, state)) = timed_setup(|| {
        let (plan, spec, modify_at) = plan(seed, scale);
        let (module, state) = ConsistencyModule::new(plan.n_rules, modify_at);
        (plan, testbed::rebuild(spec, Box::new(module), spans), state)
    });
    run(&plan, tb, &state, setup, true, pace)
}
