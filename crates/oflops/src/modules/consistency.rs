//! Flow-modification latency and forwarding consistency during large
//! table updates (E7, demo Part II).
//!
//! Phase 1 installs `n_rules` /32 rules steering probe traffic to
//! monitor **A**. Phase 2, at a configured instant, rewrites all of them
//! (strict MODIFY) to monitor **B** and issues a barrier. While the
//! update propagates through the switch's CPU and into hardware, probe
//! packets keep flowing — each one lands at A (stale rule), at B (new
//! rule) or nowhere. The module quantifies:
//!
//! * per-rule **modification latency** (first packet at B),
//! * **stale forwarding after the barrier reply** — packets that the
//!   switch forwarded per the *old* rule after telling the controller
//!   the update was done ("forwarding consistency during large flow
//!   table updates", exactly the demo's closing measurement).

use crate::controller::{MeasurementModule, ModuleCtx};
use crate::harness::{ports, Testbed};
use crate::modules::probe::rule_ip;
use osnt_openflow::messages::{FlowMod, FlowModCommand, Message};
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared observable state of a running [`ConsistencyModule`].
#[derive(Debug, Default)]
pub struct ConsistencyState {
    /// When the MODIFY burst started.
    pub t_modify_start: Option<SimTime>,
    /// When the modify barrier reply arrived.
    pub t_barrier_reply: Option<SimTime>,
    /// xid of the modify barrier.
    pub barrier_xid: Option<u32>,
    /// Errors received.
    pub errors: u64,
}

enum Phase {
    InstallA,
    Settled,
    Modifying,
    Done,
}

/// The module.
pub struct ConsistencyModule {
    n_rules: usize,
    modify_at: SimTime,
    state: Rc<RefCell<ConsistencyState>>,
    phase: Phase,
    install_barrier: Option<u32>,
}

const TAG_MODIFY: u64 = 1;

impl ConsistencyModule {
    /// Modify `n_rules` rules at `modify_at`.
    pub fn new(n_rules: usize, modify_at: SimTime) -> (Self, Rc<RefCell<ConsistencyState>>) {
        let state = Rc::new(RefCell::new(ConsistencyState::default()));
        (
            ConsistencyModule {
                n_rules,
                modify_at,
                state: state.clone(),
                phase: Phase::InstallA,
                install_barrier: None,
            },
            state,
        )
    }
}

impl MeasurementModule for ConsistencyModule {
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.send(Message::FlowMod(FlowMod::add(
            OfMatch::any(),
            0,
            ActionList::new(),
        )));
        for i in 0..self.n_rules {
            ctx.send(Message::FlowMod(FlowMod::add(
                OfMatch::ipv4_dst(rule_ip(i)),
                100,
                ActionList::one(Action::Output {
                    port: ports::OUT_A,
                    max_len: 0,
                }),
            )));
        }
        // Tracked: these barriers advance the phase machine; a lost
        // barrier would otherwise wedge the run (see the control-fault
        // suite). Retries reuse the xid, so the phase match still holds.
        let xid = ctx.send_tracked(Message::BarrierRequest);
        self.install_barrier = Some(xid);
    }

    fn on_message(&mut self, ctx: &mut ModuleCtx<'_>, message: &Message, xid: u32) {
        match (&self.phase, message) {
            (Phase::InstallA, Message::BarrierReply) if Some(xid) == self.install_barrier => {
                self.phase = Phase::Settled;
                let at = self.modify_at.max(ctx.now());
                ctx.schedule_at(at, TAG_MODIFY);
            }
            (Phase::Modifying, Message::BarrierReply)
                if Some(xid) == self.state.borrow().barrier_xid =>
            {
                self.state.borrow_mut().t_barrier_reply = Some(ctx.now());
                self.phase = Phase::Done;
            }
            (_, Message::Error { .. }) => {
                self.state.borrow_mut().errors += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        debug_assert_eq!(tag, TAG_MODIFY);
        self.state.borrow_mut().t_modify_start = Some(ctx.now());
        for i in 0..self.n_rules {
            let mut fm = FlowMod::add(
                OfMatch::ipv4_dst(rule_ip(i)),
                100,
                ActionList::one(Action::Output {
                    port: ports::OUT_B,
                    max_len: 0,
                }),
            );
            fm.command = FlowModCommand::ModifyStrict;
            ctx.send(Message::FlowMod(fm));
        }
        let xid = ctx.send_tracked(Message::BarrierRequest);
        self.state.borrow_mut().barrier_xid = Some(xid);
        self.phase = Phase::Modifying;
    }
}

/// Post-run analysis of a consistency run.
#[derive(Debug, Clone)]
pub struct ConsistencyReport {
    /// Rules modified.
    pub n_rules: usize,
    /// Barrier (control-plane) latency from modify start.
    pub barrier_latency: Option<SimDuration>,
    /// Per-rule data-plane modification latency: first packet at B after
    /// the modify started.
    pub activation: Vec<Option<SimDuration>>,
    /// Probe packets forwarded per the *old* rule (to A) after the
    /// barrier reply claimed the update complete.
    pub stale_after_barrier: u64,
    /// The latest stale packet's lag behind the barrier reply.
    pub max_stale_lag: Option<SimDuration>,
}

impl ConsistencyReport {
    /// Compute the report from the testbed and module state.
    pub fn analyze(
        testbed: &Testbed,
        state: &ConsistencyState,
        n_rules: usize,
    ) -> ConsistencyReport {
        let t_mod = state.t_modify_start;
        let t_bar = state.t_barrier_reply;
        // First packet per rule at B after the modify burst started.
        let mut first_b: Vec<Option<SimTime>> = vec![None; n_rules];
        for cap in &testbed.capture_b.borrow().packets {
            if let Some(t0) = t_mod {
                if cap.rx_true < t0 {
                    continue;
                }
            }
            let Some(i) = rule_index(&cap.packet, n_rules) else {
                continue;
            };
            let slot = &mut first_b[i];
            if slot.map(|s| cap.rx_true < s).unwrap_or(true) {
                *slot = Some(cap.rx_true);
            }
        }
        // Stale packets at A after the barrier reply.
        let mut stale = 0u64;
        let mut max_lag: Option<SimDuration> = None;
        if let Some(tb) = t_bar {
            for cap in &testbed.capture_a.borrow().packets {
                if cap.rx_true <= tb {
                    continue;
                }
                if rule_index(&cap.packet, n_rules).is_none() {
                    continue;
                }
                stale += 1;
                let lag = cap.rx_true - tb;
                if max_lag.map(|m| lag > m).unwrap_or(true) {
                    max_lag = Some(lag);
                }
            }
        }
        let activation = first_b
            .iter()
            .map(|t| match (t_mod, t) {
                (Some(a), Some(b)) => b.checked_duration_since(a),
                _ => None,
            })
            .collect();
        ConsistencyReport {
            n_rules,
            barrier_latency: match (t_mod, t_bar) {
                (Some(a), Some(b)) => Some(b - a),
                _ => None,
            },
            activation,
            stale_after_barrier: stale,
            max_stale_lag: max_lag,
        }
    }

    /// Latest modification latency among rules that switched over.
    pub fn max_activation(&self) -> Option<SimDuration> {
        self.activation.iter().flatten().max().copied()
    }
}

/// Map a captured probe frame back to its rule index.
fn rule_index(packet: &osnt_packet::Packet, n_rules: usize) -> Option<usize> {
    let Some(std::net::IpAddr::V4(dst)) = packet.parse().dst_ip() else {
        return None;
    };
    let o = dst.octets();
    if o[0] != 10 || o[1] != 1 {
        return None;
    }
    let v = u16::from_be_bytes([o[2], o[3]]) as usize;
    if v == 0 || v > n_rules {
        return None;
    }
    Some(v - 1)
}
