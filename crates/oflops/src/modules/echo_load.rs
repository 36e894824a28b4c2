//! Control-channel responsiveness under table-update load.
//!
//! A classic OFLOPS observation: because most switches run OpenFlow in a
//! single management process, a burst of FLOW_MODs delays *everything*
//! on the control channel — including the echo probes a controller uses
//! as a liveness signal. This module sends a steady train of
//! ECHO_REQUESTs and, midway, a burst of flow_mods; the echo RTT series
//! shows the control plane stalling while the burst drains.

use crate::controller::{MeasurementModule, ModuleCtx};
use crate::modules::probe::rule_ip;
use osnt_openflow::messages::{EchoData, FlowMod, Message};
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Shared observable state of a running [`EchoLoadModule`].
#[derive(Debug, Default)]
pub struct EchoLoadState {
    /// (send time, RTT) per answered echo, in send order.
    pub rtts: Vec<(SimTime, SimDuration)>,
    /// When the flow_mod burst was sent.
    pub t_burst: Option<SimTime>,
    /// Echoes still outstanding at the end of the run.
    pub outstanding: usize,
}

/// The module.
pub struct EchoLoadModule {
    period: SimDuration,
    n_echoes: u32,
    burst_at: SimTime,
    burst_rules: usize,
    sent: u32,
    in_flight: HashMap<u32, SimTime>,
    state: Rc<RefCell<EchoLoadState>>,
}

const TAG_ECHO: u64 = 1;
const TAG_BURST: u64 = 2;

impl EchoLoadModule {
    /// Send `n_echoes` echoes `period` apart, with a burst of
    /// `burst_rules` FLOW_MODs at `burst_at`.
    pub fn new(
        n_echoes: u32,
        period: SimDuration,
        burst_at: SimTime,
        burst_rules: usize,
    ) -> (Self, Rc<RefCell<EchoLoadState>>) {
        let state = Rc::new(RefCell::new(EchoLoadState::default()));
        (
            EchoLoadModule {
                period,
                n_echoes,
                burst_at,
                burst_rules,
                sent: 0,
                in_flight: HashMap::new(),
                state: state.clone(),
            },
            state,
        )
    }

    fn send_echo(&mut self, ctx: &mut ModuleCtx<'_>) {
        let payload = self.sent.to_be_bytes().to_vec();
        let xid = ctx.send(Message::EchoRequest(EchoData(payload)));
        self.in_flight.insert(xid, ctx.now());
        self.sent += 1;
        if self.sent < self.n_echoes {
            ctx.schedule(self.period, TAG_ECHO);
        }
    }
}

impl MeasurementModule for EchoLoadModule {
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
        let at = self.burst_at.max(ctx.now());
        ctx.schedule_at(at, TAG_BURST);
        self.send_echo(ctx);
    }

    fn on_message(&mut self, ctx: &mut ModuleCtx<'_>, message: &Message, xid: u32) {
        if let Message::EchoReply(_) = message {
            if let Some(sent_at) = self.in_flight.remove(&xid) {
                let mut st = self.state.borrow_mut();
                st.rtts.push((sent_at, ctx.now() - sent_at));
                st.outstanding = self.in_flight.len();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        match tag {
            TAG_ECHO => self.send_echo(ctx),
            TAG_BURST => {
                self.state.borrow_mut().t_burst = Some(ctx.now());
                for i in 0..self.burst_rules {
                    ctx.send(Message::FlowMod(FlowMod::add(
                        OfMatch::ipv4_dst(rule_ip(i)),
                        50,
                        ActionList::one(Action::Output {
                            port: crate::harness::ports::OUT_A,
                            max_len: 0,
                        }),
                    )));
                }
            }
            other => panic!("unknown tag {other}"),
        }
    }
}

impl EchoLoadState {
    /// Mean RTT of echoes sent before the burst.
    pub fn baseline_rtt(&self) -> Option<SimDuration> {
        let t = self.t_burst?;
        mean(self.rtts.iter().filter(|(s, _)| *s < t).map(|(_, r)| *r))
    }

    /// Worst RTT of echoes sent at or after the burst.
    pub fn worst_rtt_after_burst(&self) -> Option<SimDuration> {
        let t = self.t_burst?;
        self.rtts
            .iter()
            .filter(|(s, _)| *s >= t)
            .map(|(_, r)| *r)
            .max()
    }
}

fn mean(iter: impl Iterator<Item = SimDuration>) -> Option<SimDuration> {
    let v: Vec<SimDuration> = iter.collect();
    if v.is_empty() {
        return None;
    }
    let total: u128 = v.iter().map(|d| d.as_ps() as u128).sum();
    Some(SimDuration::from_ps((total / v.len() as u128) as u64))
}
