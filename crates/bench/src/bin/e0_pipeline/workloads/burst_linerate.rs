//! `burst_linerate` — the E13 topology on the burst protocol, from the
//! public constructors with their default (fast-path) configs:
//!
//! ```text
//!   GeneratorPort (batch 32, back-to-back 128 B, stamped)
//!     → fault-free FaultyLink → OpenFlowSwitch (256 decoys + 1 live rule)
//!     → MonitorPort (capture-all)
//! ```
//!
//! The same gen / switch / mon layers as the demo workloads, but fed
//! bursts instead of single frames, so a gain for one delivery path
//! that costs the other shows. An op is a frame captured. There is no
//! public API above these constructors, so the traced rep wraps the
//! very topology the timed rep runs.

use super::{derive_seed, run_sliced, timed_setup, AnalyzeLayer, Pace, Rep, Scale, Workload};
use crate::alloc_count;
use crate::digest::Digest;
use crate::spanned::{wrap, Layer, Spans};
use osnt_core::{latencies_from_capture, Summary};
use osnt_gen::workload::FixedTemplate;
use osnt_gen::{GenConfig, GenStats, GeneratorPort, Schedule, StampConfig};
use osnt_mon::{CaptureBuffer, HostPathConfig, MonConfig, MonStats, MonitorPort};
use osnt_netsim::{
    Component, ComponentId, FaultConfig, FaultyLink, Kernel, LinkSpec, Sim, SimBuilder,
};
use osnt_openflow::match_field::wildcards;
use osnt_openflow::messages::{FlowMod, Message};
use osnt_openflow::{Action, OfMatch};
use osnt_packet::{MacAddr, Packet};
use osnt_switch::{encap_control, OfSwitchConfig, OpenFlowSwitch};
use osnt_time::{DriftModel, HwClock, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "burst_linerate",
    analyze_layer: AnalyzeLayer::Core,
    timed,
    traced,
};

const FRAMES: u64 = 150_000;
const FRAME_LEN: usize = 128;
const BURST: u64 = 32;
const DECOY_RULES: u16 = 256;
/// Traffic starts once the last rule is in hardware
/// (257 × 25 µs of switch CPU + 1 ms install < 10 ms).
const TRAFFIC_START_MS: u64 = 10;

/// Installs the rule list at t = 0 and counts whatever the switch sends
/// back up: a frame punted to the controller means the table missed.
struct RuleLoader {
    mods: Vec<FlowMod>,
    punts: Rc<Cell<u64>>,
}

impl Component for RuleLoader {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        for (i, fm) in self.mods.iter().enumerate() {
            let _ = k.transmit(
                me,
                0,
                encap_control(&Message::FlowMod(fm.clone()), i as u32 + 1),
            );
        }
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
        self.punts.set(self.punts.get() + 1);
    }
}

/// An exact 10-tuple match on the offered flow but for the UDP
/// destination port — the last field a rule interpreter checks, so a
/// decoy costs it the whole chain.
fn flow_match(tp_dst: u16) -> OfMatch {
    let mut m = OfMatch::any();
    m.dl_src = MacAddr::local(1);
    m.dl_dst = MacAddr::local(2);
    m.dl_type = 0x0800;
    m.nw_proto = 17;
    m.nw_src = Ipv4Addr::new(10, 0, 0, 1);
    m.nw_dst = Ipv4Addr::new(10, 0, 0, 2);
    m.tp_src = 5001;
    m.tp_dst = tp_dst;
    m.wildcards &= !(wildcards::DL_SRC
        | wildcards::DL_DST
        | wildcards::DL_TYPE
        | wildcards::NW_PROTO
        | wildcards::TP_SRC
        | wildcards::TP_DST);
    m.set_nw_src_prefix(32);
    m.set_nw_dst_prefix(32);
    m
}

fn output(port: u16) -> Vec<Action> {
    vec![Action::Output { port, max_len: 0 }]
}

/// The decoys, then the one higher-priority rule that forwards the
/// template traffic (UDP 5001 → 9001) out of the monitored port.
fn table_mods() -> Vec<FlowMod> {
    let mut mods: Vec<FlowMod> = (0..DECOY_RULES)
        .map(|i| FlowMod::add(flow_match(10_000 + i), 10, output(3)))
        .collect();
    mods.push(FlowMod::add(flow_match(9001), 20, output(2)));
    mods
}

struct Topology {
    sim: Sim,
    gen: Rc<RefCell<GenStats>>,
    capture: Rc<RefCell<CaptureBuffer>>,
    mon: Rc<RefCell<MonStats>>,
    punts: Rc<Cell<u64>>,
    /// While the generator is sending.
    active: (SimTime, SimTime),
    horizon: SimTime,
}

fn build(seed: u64, scale: Scale, spans: Option<&Rc<Spans>>) -> Topology {
    let frames = FRAMES / scale.div;
    let start = SimTime::from_ms(TRAFFIC_START_MS);
    // The seed reaches every stamp through the two card oscillators.
    let clock = |stream| {
        let c = HwClock::new(DriftModel::commodity_xo(), derive_seed(seed, stream));
        Rc::new(RefCell::new(c))
    };
    let (gen, gen_stats) = GeneratorPort::new(
        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(FRAME_LEN))),
        GenConfig {
            schedule: Schedule::BackToBack,
            count: Some(frames),
            stamp: Some(StampConfig::default_payload()),
            batch: BURST,
            start_at: start,
            ..GenConfig::default()
        },
        clock(1),
    );
    let (link, _) = FaultyLink::new(FaultConfig::default()).expect("fault-free config is valid");
    let switch = OpenFlowSwitch::new(OfSwitchConfig::default());
    let ctrl_port = switch.control_port();
    let kernel_ports = switch.kernel_ports();
    let (mon, capture, mon_stats) = MonitorPort::new(
        MonConfig {
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        },
        clock(2),
    );
    let punts = Rc::new(Cell::new(0));
    let loader = RuleLoader {
        mods: table_mods(),
        punts: Rc::clone(&punts),
    };

    let mut b = SimBuilder::new();
    let g = b.add_component("gen", wrap(gen, Layer::Gen, spans), 1);
    let l = b.add_component("link", wrap(link, Layer::Link, spans), 2);
    let sw = b.add_component("switch", wrap(switch, Layer::Switch, spans), kernel_ports);
    let m = b.add_component("mon", wrap(mon, Layer::Mon, spans), 1);
    let ctl = b.add_component("ctl", wrap(loader, Layer::Controller, spans), 1);
    b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());
    b.connect(g, 0, l, 0, LinkSpec::ten_gig());
    b.connect(l, 1, sw, 0, LinkSpec::ten_gig());
    b.connect(sw, 1, m, 0, LinkSpec::ten_gig());
    Topology {
        sim: b.build(),
        gen: gen_stats,
        capture,
        mon: mon_stats,
        punts,
        // 118.4 ns per 128 B frame on a 10G wire.
        active: (start, start + SimDuration::from_ps(frames * 118_400)),
        // The switch re-arms its expiry sweep forever, so the run never
        // quiesces; leave room to drain instead.
        horizon: start + SimDuration::from_ms(5) + SimDuration::from_ns(frames * 150),
    }
}

fn rep(seed: u64, scale: Scale, spans: Option<&Rc<Spans>>, pace: Pace<'_>) -> Rep {
    let (setup, mut top) = timed_setup(|| build(seed, scale, spans));

    if spans.is_some() {
        alloc_count::start();
    }
    let mut events = 0;
    let run = run_sliced(
        |t| events += top.sim.run_until(t),
        top.active,
        top.horizon,
        pace,
    );
    let t = Instant::now();
    let buf = top.capture.borrow();
    let latency =
        Summary::from_durations(&latencies_from_capture(&buf, StampConfig::DEFAULT_OFFSET));
    let analyze = t.elapsed();
    let allocs = spans.is_some().then(alloc_count::stop);

    let sent = top.gen.borrow().sent_frames;
    let captured = buf.len() as u64;
    let mut d = Digest::new();
    d.u64(sent);
    for cap in &buf.packets {
        d.u64(cap.rx_stamp.to_ps());
        d.u64(cap.rx_true.as_ps());
        d.u64(cap.orig_len as u64);
        d.bytes(cap.packet.data());
    }
    let mon = *top.mon.borrow();
    for v in [mon.rx_frames, mon.rx_bytes, mon.host_frames, mon.host_bytes] {
        d.u64(v);
    }
    if let Some(s) = &latency {
        d.u64(s.count as u64);
        for v in [
            s.min_ns,
            s.max_ns,
            s.mean_ns,
            s.p50_ns,
            s.p99_ns,
            s.jitter_ns,
        ] {
            d.f64(v);
        }
    }
    Rep {
        setup,
        run,
        analyze,
        ops: sent,
        failed: sent.saturating_sub(captured) + top.punts.get(),
        events: Some(events),
        digest: d.finish(),
        allocs,
    }
}

fn timed(seed: u64, scale: Scale, pace: Pace<'_>) -> Rep {
    rep(seed, scale, None, pace)
}

fn traced(seed: u64, scale: Scale, spans: &Rc<Spans>, pace: Pace<'_>) -> Rep {
    rep(seed, scale, Some(spans), pace)
}
