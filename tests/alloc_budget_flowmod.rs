//! Allocation budget of the control-plane write path, checked where
//! tier-1 runs.
//!
//! A small `FlowChurnModule` campaign (40 rounds of 100 ADDs, strict
//! DELETEs holding 2000 rules live, every round fenced by an honest
//! barrier) runs on the control-only testbed under a counting global
//! allocator. What a flow_mod may allocate is what it must own: the
//! module's action list, the frame and its `Rc`, and the decoded action
//! list on the switch — four for an ADD, two for a strict DELETE. The
//! one regrowth amortised on top is the flow table's and its index's;
//! the control log never regrows, it adds a segment each time it
//! doubles. A body buffer beside the frame, a per-rule bucket or a `Vec`
//! built to return one removed entry each cost a whole allocation per
//! flow_mod and break the budget.
//!
//! Own test binary: see `common`.

mod common;

use osnt::oflops::modules::FlowChurnModule;
use osnt::oflops::{Testbed, TestbedSpec};
use osnt::switch::OfSwitchConfig;
use osnt::time::SimTime;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

/// Allocations per barrier-fenced flow_mod the campaign may cost.
const BUDGET: f64 = 5.0;

const ROUNDS: usize = 40;
const BATCH: usize = 100;
const WINDOW: usize = 2000;

#[test]
fn fenced_flow_mods_stay_within_the_allocation_budget() {
    let (module, state) = FlowChurnModule::new(ROUNDS, BATCH, WINDOW, SimTime::from_ms(5));
    let spec = TestbedSpec {
        switch: OfSwitchConfig {
            honest_barrier: true,
            table_capacity: WINDOW + BATCH + 1,
            ..OfSwitchConfig::default()
        },
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    // 6000 flow_mods at 25 µs of switch CPU each, 1 ms of install per
    // round: done by 200 ms.
    let allocs = common::count(|| tb.run_until(SimTime::from_ms(400)));

    let st = state.borrow();
    assert!(st.done, "every round fenced");
    assert_eq!(st.errors, 0);
    let mods = (ROUNDS * BATCH + (ROUNDS * BATCH - WINDOW)) as u64;
    assert_eq!(st.mods_sent, mods);
    let per_mod = allocs as f64 / mods as f64;
    assert!(allocs > 0, "the counting allocator saw nothing");
    assert!(
        per_mod <= BUDGET,
        "{per_mod:.3} allocations per fenced flow_mod ({allocs} over {mods}), budget {BUDGET}"
    );
}
