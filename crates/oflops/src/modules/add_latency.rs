//! Flow-insertion latency: control-plane view vs data-plane truth (E6).
//!
//! The module pre-installs a low-priority drop-all rule (so unmatched
//! probes do not flood the punt path), then at a configured instant sends
//! a burst of `n_rules` FLOW_MOD ADDs (one /32 destination each, output
//! to monitor A) followed by a BARRIER_REQUEST.
//!
//! * The **control-plane** estimate of completion is the barrier reply.
//! * The **data-plane** truth for each rule is the first probe packet to
//!   that rule's destination captured at monitor A.
//!
//! On switches that acknowledge barriers from the management CPU before
//! the hardware table is updated (the default model, as OFLOPS observed
//! in practice), the data plane lags the barrier — that gap is the
//! finding this module exists to expose.

use crate::controller::{MeasurementModule, ModuleCtx};
use crate::harness::{ports, Testbed};
use crate::modules::probe::rule_ip;
use osnt_openflow::messages::{FlowMod, Message};
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared observable state of a running [`AddLatencyModule`].
#[derive(Debug, Default)]
pub struct AddLatencyState {
    /// When the first ADD left the controller.
    pub t_burst_start: Option<SimTime>,
    /// When the barrier reply arrived.
    pub t_barrier_reply: Option<SimTime>,
    /// xid of the measurement barrier.
    pub barrier_xid: Option<u32>,
    /// Errors received (table full etc.).
    pub errors: u64,
}

enum Phase {
    Baseline,
    Armed,
    Measuring,
    Done,
}

/// The module.
pub struct AddLatencyModule {
    n_rules: usize,
    install_at: SimTime,
    state: Rc<RefCell<AddLatencyState>>,
    phase: Phase,
    baseline_barrier: Option<u32>,
}

const TAG_INSTALL: u64 = 1;

impl AddLatencyModule {
    /// Install `n_rules` rules at `install_at`. Returns the module and
    /// its shared state.
    pub fn new(n_rules: usize, install_at: SimTime) -> (Self, Rc<RefCell<AddLatencyState>>) {
        let state = Rc::new(RefCell::new(AddLatencyState::default()));
        (
            AddLatencyModule {
                n_rules,
                install_at,
                state: state.clone(),
                phase: Phase::Baseline,
                baseline_barrier: None,
            },
            state,
        )
    }
}

impl MeasurementModule for AddLatencyModule {
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Quiesce the punt path: a drop-all rule at priority 0.
        ctx.send(Message::FlowMod(FlowMod::add(
            OfMatch::any(),
            0,
            ActionList::new(),
        )));
        // Tracked: the baseline barrier gates the whole measurement — a
        // control channel that eats it must trigger a retry, not a
        // module stuck in Baseline forever.
        let xid = ctx.send_tracked(Message::BarrierRequest);
        self.baseline_barrier = Some(xid);
    }

    fn on_message(&mut self, ctx: &mut ModuleCtx<'_>, message: &Message, xid: u32) {
        match (&self.phase, message) {
            (Phase::Baseline, Message::BarrierReply) if Some(xid) == self.baseline_barrier => {
                self.phase = Phase::Armed;
                let at = self.install_at.max(ctx.now());
                ctx.schedule_at(at, TAG_INSTALL);
            }
            (Phase::Measuring, Message::BarrierReply)
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
        debug_assert_eq!(tag, TAG_INSTALL);
        self.state.borrow_mut().t_burst_start = Some(ctx.now());
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
        let xid = ctx.send_tracked(Message::BarrierRequest);
        self.state.borrow_mut().barrier_xid = Some(xid);
        self.phase = Phase::Measuring;
    }
}

/// Post-run analysis of an insertion-latency run.
#[derive(Debug, Clone)]
pub struct AddLatencyReport {
    /// Rules requested.
    pub n_rules: usize,
    /// Barrier (control-plane) latency from burst start.
    pub barrier_latency: Option<SimDuration>,
    /// Per-rule data-plane activation latency from burst start (indexed
    /// by rule; `None` when the rule never forwarded a probe).
    pub activation: Vec<Option<SimDuration>>,
    /// Rules whose first forwarded probe arrived *after* the barrier
    /// reply — the control-plane lie, quantified.
    pub activated_after_barrier: usize,
}

impl AddLatencyReport {
    /// Compute the report from the testbed and module state.
    pub fn analyze(testbed: &Testbed, state: &AddLatencyState, n_rules: usize) -> AddLatencyReport {
        let t0 = state.t_burst_start;
        let mut first_seen: Vec<Option<SimTime>> = vec![None; n_rules];
        for cap in &testbed.capture_a.borrow().packets {
            let Some(std::net::IpAddr::V4(dst)) = cap.packet.parse().dst_ip() else {
                continue;
            };
            let octets = dst.octets();
            if octets[0] != 10 || octets[1] != 1 {
                continue;
            }
            let v = u16::from_be_bytes([octets[2], octets[3]]) as usize;
            if v == 0 || v > n_rules {
                continue;
            }
            let slot = &mut first_seen[v - 1];
            let t = cap.rx_true;
            if slot.map(|s| t < s).unwrap_or(true) {
                *slot = Some(t);
            }
        }
        let barrier_latency = match (t0, state.t_barrier_reply) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        let activation: Vec<Option<SimDuration>> = first_seen
            .iter()
            .map(|t| match (t0, t) {
                (Some(a), Some(b)) => b.checked_duration_since(a),
                _ => None,
            })
            .collect();
        let activated_after_barrier = match state.t_barrier_reply {
            Some(tb) => first_seen
                .iter()
                .filter(|t| t.map(|x| x > tb).unwrap_or(false))
                .count(),
            None => 0,
        };
        AddLatencyReport {
            n_rules,
            barrier_latency,
            activation,
            activated_after_barrier,
        }
    }

    /// Latest activation among rules that activated.
    pub fn max_activation(&self) -> Option<SimDuration> {
        self.activation.iter().flatten().max().copied()
    }

    /// Median activation among rules that activated.
    pub fn median_activation(&self) -> Option<SimDuration> {
        let mut v: Vec<SimDuration> = self.activation.iter().flatten().copied().collect();
        if v.is_empty() {
            return None;
        }
        v.sort();
        Some(v[v.len() / 2])
    }

    /// Number of rules that never activated.
    pub fn never_activated(&self) -> usize {
        self.activation.iter().filter(|a| a.is_none()).count()
    }
}
