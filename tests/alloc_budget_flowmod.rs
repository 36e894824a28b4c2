//! Allocation budget of the control-plane write path, checked where
//! tier-1 runs.
//!
//! A small `FlowChurnModule` campaign (40 rounds of 100 ADDs, strict
//! DELETEs holding 2000 rules live, every round fenced by an honest
//! barrier) runs on the control-only testbed under a counting global
//! allocator. A flow_mod owns only its frame and the frame's `Rc`: its
//! action list sits in place (`ActionList`) in the module's message, the
//! decoded message and the flow entry, and the switch queues it once
//! from arrival to commit. The campaign reads 2.05; what lies above
//! 2.0 is the barriers, the log's segments and the table's regrowth.
//! A heap action list, a body buffer beside the frame, a boxed queue
//! entry or a per-rule bucket each cost a whole allocation per flow_mod
//! and break the budget.
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
const BUDGET: f64 = 2.1;

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
