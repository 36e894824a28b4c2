//! `p2_churn` — demo Part II, control plane at scale: sustained
//! flow_mod churn through `oflops_turbo::Testbed` + `FlowChurnModule`.
//!
//! 150 rounds of 500 ADDs with strict DELETEs holding a 50 000-rule live
//! window, each round fenced by an honest barrier, on a control-only
//! testbed whose table is sized to hold the window. OpenFlow codec,
//! OFLOPS controller and `FlowTable` insert / strict-delete at 5×10⁴
//! live entries do the work; generator and monitors are idle. This is
//! the switch layer used for writes, beside the reads of the other
//! three workloads. An op is a flow_mod fenced by a barrier reply.

use super::testbed;
use super::{derive_seed, run_sliced, timed_setup, AnalyzeLayer, Pace, Rep, Scale, Workload};
use crate::alloc_count;
use crate::digest::Digest;
use crate::spanned::Spans;
use oflops_turbo::modules::{FlowChurnModule, FlowChurnState};
use oflops_turbo::{Testbed, TestbedSpec};
use osnt_switch::OfSwitchConfig;
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "p2_churn",
    analyze_layer: AnalyzeLayer::Oflops,
    timed,
    traced,
};

const ROUNDS: u64 = 150;
const BATCH: u64 = 500;
const WINDOW: u64 = 50_000;

struct Plan {
    rounds: usize,
    batch: usize,
    /// From the first round to about the last barrier reply.
    active: (SimTime, SimTime),
    horizon: SimTime,
}

fn plan(
    seed: u64,
    scale: Scale,
) -> (
    Plan,
    TestbedSpec,
    FlowChurnModule,
    Rc<RefCell<FlowChurnState>>,
) {
    // Rounds stay, batch and window shrink together: the table still
    // fills after 100 rounds and churns for 50.
    let batch = (BATCH / scale.div).max(1);
    let window = batch * (WINDOW / BATCH);
    let switch = OfSwitchConfig {
        honest_barrier: true,
        // The live window, the round in flight and the quiesce rule.
        table_capacity: (window + batch + 1) as usize,
        ..OfSwitchConfig::default()
    };
    // The module takes its rule order from no seed; the seed moves the
    // instant the churn starts, and with it every stamp in the log.
    let start_at = SimTime::from_ms(5) + SimDuration::from_ns(derive_seed(seed, 1) % 1_000_000);
    let adds = ROUNDS * batch;
    let mods = adds + adds.saturating_sub(window);
    // The switch CPU takes `flowmod_proc` per mod; an honest barrier
    // then waits out the hardware install, once per round.
    let churn_end = start_at
        + SimDuration::from_ps(switch.flowmod_proc.as_ps() * mods)
        + SimDuration::from_ps(switch.hw_install_delay.as_ps() * ROUNDS);
    let horizon = churn_end + SimDuration::from_ms(ROUNDS + 10);
    let (module, state) =
        FlowChurnModule::new(ROUNDS as usize, batch as usize, window as usize, start_at);
    let spec = TestbedSpec {
        switch,
        ..TestbedSpec::control_only()
    };
    let plan = Plan {
        rounds: ROUNDS as usize,
        batch: batch as usize,
        active: (start_at, churn_end),
        horizon,
    };
    (plan, spec, module, state)
}

/// Run a built testbed to the horizon and summarize it: the timed call.
fn run(
    plan: &Plan,
    mut tb: Testbed,
    state: &Rc<RefCell<FlowChurnState>>,
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
    let rate = st.mods_per_sec(plan.horizon);
    let slowest = st.round_latencies.iter().max().copied();
    let analyze = t.elapsed();
    let allocs = count_allocs.then(alloc_count::stop);

    let unfenced = (plan.rounds - st.round_latencies.len()) * plan.batch;
    let failed = unfenced as u64 + st.errors + testbed::control_failures(&tb);

    let mut d = Digest::new();
    testbed::digest(&mut d, &tb);
    d.u64(st.mods_sent);
    d.f64(rate.unwrap_or(0.0));
    d.u64(slowest.map_or(u64::MAX, |x| x.as_ps()));
    for l in &st.round_latencies {
        d.u64(l.as_ps());
    }
    Rep {
        setup,
        run,
        analyze,
        ops: st.mods_sent,
        failed,
        events: Some(tb.sim.kernel().events_dispatched()),
        digest: d.finish(),
        allocs,
    }
}

fn timed(seed: u64, scale: Scale, pace: Pace<'_>) -> Rep {
    let (setup, (plan, tb, state)) = timed_setup(|| {
        let (plan, spec, module, state) = plan(seed, scale);
        (plan, Testbed::build(spec, Box::new(module)), state)
    });
    run(&plan, tb, &state, setup, false, pace)
}

fn traced(seed: u64, scale: Scale, spans: &Rc<Spans>, pace: Pace<'_>) -> Rep {
    let (setup, (plan, tb, state)) = timed_setup(|| {
        let (plan, spec, module, state) = plan(seed, scale);
        (plan, testbed::rebuild(spec, Box::new(module), spans), state)
    });
    run(&plan, tb, &state, setup, true, pace)
}
