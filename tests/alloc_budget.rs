//! Allocation budget of the per-frame path, checked where tier-1 runs.
//!
//! The E13 topology (generator, batch 32, stamped 128 B back-to-back →
//! fault-free `FaultyLink` → `OpenFlowSwitch` with 256 decoy rules and
//! one live rule → capturing `MonitorPort`) is driven into steady state
//! and a counting global allocator is switched on for a window of it.
//! Past the link every frame travels alone, so the window measures the
//! scalar path of switch and monitor: the only per-frame allocations
//! left are the two of the stamp's copy-on-write (buffer + `Rc`); burst
//! boxes and capture-buffer growth amortise to a fraction on top. A
//! staging `Vec`, an action-list clone or a batch built for one frame
//! costs a whole allocation per frame and breaks the budget.
//!
//! Own test binary: see `common`.

mod common;

use osnt::gen::workload::FixedTemplate;
use osnt::gen::{GenConfig, GeneratorPort, Schedule, StampConfig};
use osnt::mon::{FilterAction, FilterTable, HostPathConfig, MonConfig, MonitorPort};
use osnt::netsim::{Component, ComponentId, FaultConfig, FaultyLink, Kernel, LinkSpec, SimBuilder};
use osnt::openflow::match_field::wildcards;
use osnt::openflow::messages::{FlowMod, Message};
use osnt::openflow::{Action, OfMatch};
use osnt::packet::{MacAddr, Packet, WildcardRule};
use osnt::switch::{encap_control, OfSwitchConfig, OpenFlowSwitch};
use osnt::time::{HwClock, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Allocations per captured frame the steady-state window may cost.
const BUDGET: f64 = 2.5;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

const FRAME_LEN: usize = 128;
const DECOY_RULES: u16 = 256;
/// Traffic starts once the last rule is in hardware
/// (257 × 25 µs of switch CPU + 1 ms install < 10 ms).
const TRAFFIC_START_MS: u64 = 10;
/// One 128 B frame on a 10G wire.
const FRAME_PS: u64 = 118_400;
const WARM_FRAMES: u64 = 20_000;
const WINDOW_FRAMES: u64 = 40_000;

/// Installs the rule list at t = 0 and counts punts (a table miss).
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

/// An exact match on the offered flow but for the UDP destination port.
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

#[test]
fn steady_state_frames_stay_within_the_allocation_budget() {
    let clock = || Rc::new(RefCell::new(HwClock::ideal()));
    let (gen, _gen_stats) = GeneratorPort::new(
        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(FRAME_LEN))),
        GenConfig {
            schedule: Schedule::BackToBack,
            count: Some(2 * (WARM_FRAMES + WINDOW_FRAMES)),
            stamp: Some(StampConfig::default_payload()),
            batch: 32,
            start_at: SimTime::from_ms(TRAFFIC_START_MS),
            ..GenConfig::default()
        },
        clock(),
    );
    let (link, _) = FaultyLink::new(FaultConfig::default()).expect("fault-free config is valid");
    let switch = OpenFlowSwitch::new(OfSwitchConfig::default());
    let (ctrl_port, kernel_ports) = (switch.control_port(), switch.kernel_ports());
    let mut filter = FilterTable::drop_by_default();
    filter.push(
        WildcardRule::any().with_dst_port(9001),
        FilterAction::Capture,
    );
    let (mon, capture, _mon_stats) = MonitorPort::new(
        MonConfig {
            filter,
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        },
        clock(),
    );
    let mut mods: Vec<FlowMod> = (0..DECOY_RULES)
        .map(|i| FlowMod::add(flow_match(10_000 + i), 10, output(3)))
        .collect();
    mods.push(FlowMod::add(flow_match(9001), 20, output(2)));
    let punts = Rc::new(Cell::new(0));

    let mut b = SimBuilder::new();
    let g = b.add_component("gen", Box::new(gen), 1);
    let l = b.add_component("link", Box::new(link), 2);
    let sw = b.add_component("switch", Box::new(switch), kernel_ports);
    let m = b.add_component("mon", Box::new(mon), 1);
    let loader = RuleLoader {
        mods,
        punts: Rc::clone(&punts),
    };
    let ctl = b.add_component("ctl", Box::new(loader), 1);
    b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());
    b.connect(g, 0, l, 0, LinkSpec::ten_gig());
    b.connect(l, 1, sw, 0, LinkSpec::ten_gig());
    b.connect(sw, 1, m, 0, LinkSpec::ten_gig());
    let mut sim = b.build();

    // Rules in, pipeline full, buffers grown: steady state.
    let start = SimTime::from_ms(TRAFFIC_START_MS);
    let warm = start + SimDuration::from_ps(WARM_FRAMES * FRAME_PS);
    sim.run_until(warm);
    let before = capture.borrow().len() as u64;
    assert!(before > WARM_FRAMES / 2, "warm-up captured {before} frames");

    let allocs = common::count(|| {
        sim.run_until(warm + SimDuration::from_ps(WINDOW_FRAMES * FRAME_PS));
    });

    let frames = capture.borrow().len() as u64 - before;
    assert_eq!(punts.get(), 0, "the live rule must forward every frame");
    assert!(
        frames.abs_diff(WINDOW_FRAMES) <= 64,
        "window captured {frames} frames"
    );
    let per_frame = allocs as f64 / frames as f64;
    assert!(allocs > 0, "the counting allocator saw nothing");
    assert!(
        per_frame <= BUDGET,
        "{per_frame:.3} allocations per frame in steady state ({allocs} over {frames} frames), \
         budget {BUDGET}"
    );
}
