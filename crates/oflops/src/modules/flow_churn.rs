//! Sustained flow_mod churn: the table-update campaign (E15's wire-level
//! counterpart).
//!
//! Insertion-latency (E6) measures one burst; this module measures a
//! *steady state*: round after round of ADD + strict-DELETE flow_mods
//! against a bounded live-rule window, each round fenced by a tracked
//! barrier. Per-round barrier latency is the switch's sustained update
//! cost — on a real switch this is where O(n) flow-table rewrite cost
//! shows up as rounds slowing down with table occupancy, and where the
//! tuple-space index's O(1) flow_mods keep it flat.

use crate::controller::{MeasurementModule, ModuleCtx};
use crate::harness::ports;
use crate::modules::probe::{rule_ip, RULE_IP_PERIOD};
use osnt_openflow::messages::{FlowMod, Message};
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared observable state of a running [`FlowChurnModule`].
#[derive(Debug, Default)]
pub struct FlowChurnState {
    /// When the first churn round started.
    pub t_start: Option<SimTime>,
    /// Per-round barrier latency (round start → barrier reply).
    pub round_latencies: Vec<SimDuration>,
    /// FLOW_MODs sent (adds + deletes, excluding the quiesce rule).
    pub mods_sent: u64,
    /// Errors received (table full etc.).
    pub errors: u64,
    /// All rounds completed.
    pub done: bool,
}

impl FlowChurnState {
    /// Sustained flow_mod throughput over the churn phase, mods per
    /// simulated second (None until at least one round finished).
    pub fn mods_per_sec(&self, now_done: SimTime) -> Option<f64> {
        let t0 = self.t_start?;
        if self.round_latencies.is_empty() || now_done <= t0 {
            return None;
        }
        let secs = (now_done - t0).as_ps() as f64 / 1e12;
        Some(self.mods_sent as f64 / secs)
    }
}

enum Phase {
    Baseline,
    Churning,
    Done,
}

/// The module: `rounds` rounds of `batch` ADDs (fresh /32 rules), with
/// strict DELETEs holding the live-rule count at `window`, each round
/// fenced by a tracked barrier.
pub struct FlowChurnModule {
    rounds: usize,
    batch: usize,
    window: usize,
    start_at: SimTime,
    state: Rc<RefCell<FlowChurnState>>,
    phase: Phase,
    next_add: usize,
    next_del: usize,
    round_started: Option<SimTime>,
    barrier_xid: Option<u32>,
    baseline_xid: Option<u32>,
}

const TAG_ROUND: u64 = 1;

impl FlowChurnModule {
    /// `rounds` rounds of `batch` mods starting at `start_at`, holding
    /// at most `window` live rules. Returns the module and its state.
    ///
    /// Panics when `window + batch` (the rules live while a round's
    /// ADDs wait for its DELETEs) exceeds [`RULE_IP_PERIOD`].
    pub fn new(
        rounds: usize,
        batch: usize,
        window: usize,
        start_at: SimTime,
    ) -> (Self, Rc<RefCell<FlowChurnState>>) {
        assert!(
            window + batch <= RULE_IP_PERIOD,
            "flow churn: window {window} + batch {batch} rules are live at once, but \
             rule_ip tells only {RULE_IP_PERIOD} consecutive rules apart: an ADD would \
             replace a live rule in place and that rule's strict DELETE remove the newer one"
        );
        let state = Rc::new(RefCell::new(FlowChurnState::default()));
        (
            FlowChurnModule {
                rounds,
                batch,
                window,
                start_at,
                state: state.clone(),
                phase: Phase::Baseline,
                next_add: 0,
                next_del: 0,
                round_started: None,
                barrier_xid: None,
                baseline_xid: None,
            },
            state,
        )
    }

    fn run_round(&mut self, ctx: &mut ModuleCtx<'_>) {
        let mut st = self.state.borrow_mut();
        if st.t_start.is_none() {
            st.t_start = Some(ctx.now());
        }
        self.round_started = Some(ctx.now());
        for _ in 0..self.batch {
            ctx.send(Message::FlowMod(FlowMod::add(
                OfMatch::ipv4_dst(rule_ip(self.next_add)),
                100,
                ActionList::one(Action::Output {
                    port: ports::OUT_A,
                    max_len: 0,
                }),
            )));
            self.next_add += 1;
            st.mods_sent += 1;
        }
        while self.next_add - self.next_del > self.window {
            ctx.send(Message::FlowMod(FlowMod::delete_strict(
                OfMatch::ipv4_dst(rule_ip(self.next_del)),
                100,
            )));
            self.next_del += 1;
            st.mods_sent += 1;
        }
        drop(st);
        self.barrier_xid = Some(ctx.send_tracked(Message::BarrierRequest));
        self.phase = Phase::Churning;
    }
}

impl MeasurementModule for FlowChurnModule {
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Quiesce the punt path, then fence before churning.
        ctx.send(Message::FlowMod(FlowMod::add(
            OfMatch::any(),
            0,
            ActionList::new(),
        )));
        self.baseline_xid = Some(ctx.send_tracked(Message::BarrierRequest));
    }

    fn on_message(&mut self, ctx: &mut ModuleCtx<'_>, message: &Message, xid: u32) {
        match (&self.phase, message) {
            (Phase::Baseline, Message::BarrierReply) if Some(xid) == self.baseline_xid => {
                ctx.schedule_at(self.start_at.max(ctx.now()), TAG_ROUND);
            }
            (Phase::Churning, Message::BarrierReply) if Some(xid) == self.barrier_xid => {
                let started = self.round_started.expect("round barrier without a round");
                let mut st = self.state.borrow_mut();
                st.round_latencies.push(ctx.now() - started);
                let finished = st.round_latencies.len();
                drop(st);
                if finished < self.rounds {
                    self.run_round(ctx);
                } else {
                    self.state.borrow_mut().done = true;
                    self.phase = Phase::Done;
                }
            }
            (_, Message::Error { .. }) => {
                self.state.borrow_mut().errors += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        debug_assert_eq!(tag, TAG_ROUND);
        self.run_round(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Testbed, TestbedSpec};
    use osnt_switch::OfSwitchConfig;

    #[test]
    fn churn_completes_with_pinned_latencies_and_control_log() {
        let (module, state) = FlowChurnModule::new(10, 16, 64, SimTime::from_ms(5));
        let spec = TestbedSpec {
            switch: OfSwitchConfig {
                honest_barrier: true,
                ..OfSwitchConfig::default()
            },
            ..TestbedSpec::control_only()
        };
        let mut tb = Testbed::build(spec, Box::new(module));
        tb.run_until(SimTime::from_ms(100));
        let st = state.borrow();
        assert!(st.done, "all rounds completed");
        assert_eq!(st.errors, 0);
        // 10 rounds × 16 adds + deletes keeping the window at 64.
        assert_eq!(st.mods_sent, 160 + (160 - 64));
        assert!(st.mods_per_sec(SimTime::from_ms(100)).unwrap() > 0.0);
        // The wire behaviour, to the picosecond: rounds 1-4 only add,
        // rounds 5-10 add and delete.
        let ps: Vec<u64> = st.round_latencies.iter().map(|d| d.as_ps()).collect();
        let (adds_only, with_deletes) = (1_401_524_000, 1_801_524_000);
        assert_eq!(ps[..4], [adds_only; 4]);
        assert_eq!(ps[4..], [with_deletes; 6]);
        let log = format!("{:?}", tb.control_log.borrow());
        assert_eq!(
            (log.len(), osnt_packet::hash::crc32(log.as_bytes())),
            (134_140, 0x75dc_c528)
        );
    }

    #[test]
    fn a_live_set_rule_ip_cannot_tell_apart_is_refused() {
        // The largest live set that fits, and one rule more.
        let _ = FlowChurnModule::new(1, 536, 65_000, SimTime::ZERO);
        let refused = std::panic::catch_unwind(|| {
            let _ = FlowChurnModule::new(1, 537, 65_000, SimTime::ZERO);
        })
        .expect_err("a live set of 65 537 rules aliases");
        let reason = refused.downcast_ref::<String>().expect("formatted message");
        assert!(reason.contains("rule_ip tells only 65536"), "{reason}");
    }
}
