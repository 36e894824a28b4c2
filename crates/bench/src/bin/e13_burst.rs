//! E13 — end-to-end burst datapath: packet burst vectors through
//! gen → link → switch → mon, swept over offered burst size.
//!
//! One 10G generator streams stamped UDP frames back-to-back through a
//! fault-free `FaultyLink` (burst-forwarding pass-through) into an
//! OpenFlow switch whose hardware table carries `DECOY_RULES` near-miss
//! flow rules (same priority, different UDP destination port) plus the
//! one rule that forwards the traffic out the monitored port. The
//! forwarded stream lands on a monitor port that captures everything
//! with hardware stamps.
//!
//! The identical workload runs once per generator burst size B in the
//! sweep: a burst is one queue entry on the wire and across the link;
//! switch and monitor take its members one `on_packet` each (tuple-space
//! lookup, compiled filter). Burst size must be unobservable: every run of the sweep must produce the same
//! `MonStats` and capture digest (rx stamps, arrival instants, stored
//! bytes, lengths), with zero control-plane punts — and at the default
//! frame count that digest must equal the committed artifact's
//! ([`COMMITTED_DIGEST`]) — else the bench panics.
//!
//! `--frames N` sets frames per run; `--json PATH` writes the sweep as
//! JSON (committed as `BENCH_burst.json`). The wall-clock column is a
//! reading, compared with nothing.

use osnt_bench::Table;
use osnt_gen::workload::FixedTemplate;
use osnt_gen::{GenConfig, GeneratorPort, Schedule, StampConfig};
use osnt_mon::{
    CapturedPacket, FilterAction, FilterTable, HostPathConfig, MonConfig, MonStats, MonitorPort,
};
use osnt_netsim::{Component, ComponentId, FaultConfig, FaultyLink, Kernel, LinkSpec, SimBuilder};
use osnt_openflow::match_field::wildcards;
use osnt_openflow::messages::{FlowMod, Message};
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_packet::hash::crc32_update;
use osnt_packet::{MacAddr, Packet, WildcardRule};
use osnt_switch::{encap_control, OfSwitchConfig, OpenFlowSwitch};
use osnt_time::{HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const FRAME_LEN: usize = 128;
const DECOY_RULES: u32 = 256;
/// Generator starts well after the last decoy has reached hardware
/// (64 x 25 us CPU + 1 ms install << 10 ms).
const TRAFFIC_START_MS: u64 = 10;
/// Frame count of the committed `BENCH_burst.json` and the capture
/// digest every burst size of that run must reproduce.
const COMMITTED_FRAMES: u64 = 100_000;
const COMMITTED_DIGEST: u32 = 0x6186_348f;

/// Fire-and-forget controller: installs the scripted flow mods at t=0
/// and counts every frame the switch sends back up (there must be
/// none — a punt means the table missed).
struct RuleLoader {
    mods: Vec<FlowMod>,
    punts: Rc<RefCell<u64>>,
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
        *self.punts.borrow_mut() += 1;
    }
}

/// A full 10-tuple exact match on the offered flow, parameterised by
/// UDP destination port.
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

/// The switch's hardware table: `DECOY_RULES` near-miss flow rules
/// that agree with the offered traffic on every field except the UDP
/// destination port, then the one rule that forwards to the monitored
/// port — a table of almost-equal per-flow entries sharing one mask,
/// which the tuple-space index resolves with one probe per frame.
fn table_mods() -> Vec<FlowMod> {
    let mut mods: Vec<FlowMod> = (0..DECOY_RULES)
        .map(|i| {
            FlowMod::add(
                flow_match(10_000 + i as u16),
                10,
                ActionList::one(Action::Output {
                    port: 3,
                    max_len: 0,
                }),
            )
        })
        .collect();
    // The live rule: template traffic is UDP 5001 -> 9001, out the wire
    // port feeding the monitor, at a higher priority than the decoy
    // sea.
    mods.push(FlowMod::add(
        flow_match(9001),
        20,
        ActionList::one(Action::Output {
            port: 2,
            max_len: 0,
        }),
    ));
    mods
}

struct RunOut {
    wall_s: f64,
    stats: MonStats,
    captured: usize,
    digest: u32,
}

fn run(frames: u64, burst: u32) -> RunOut {
    let clock_tx = Rc::new(RefCell::new(HwClock::ideal()));
    let clock_rx = Rc::new(RefCell::new(HwClock::ideal()));
    let gen_cfg = GenConfig {
        schedule: Schedule::BackToBack,
        count: Some(frames),
        stamp: Some(StampConfig::default_payload()),
        batch: u64::from(burst),
        start_at: SimTime::from_ms(TRAFFIC_START_MS),
        ..GenConfig::default()
    };
    let (gen, _gstats) = GeneratorPort::new(
        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(FRAME_LEN))),
        gen_cfg,
        clock_tx,
    );
    let (link, _lstats) =
        FaultyLink::new(FaultConfig::default()).expect("fault-free config is valid");
    let switch = OpenFlowSwitch::new(OfSwitchConfig::default());
    let ctrl_port = switch.control_port();
    let kports = switch.kernel_ports();
    let mut filter = FilterTable::drop_by_default();
    filter.push(
        WildcardRule::any().with_dst_port(9001),
        FilterAction::Capture,
    );
    let mon_cfg = MonConfig {
        filter,
        host: HostPathConfig::unlimited(),
        ..MonConfig::default()
    };
    let (mon, buffer, stats) = MonitorPort::new(mon_cfg, clock_rx);
    let punts = Rc::new(RefCell::new(0u64));

    let mut b = SimBuilder::new();
    let g = b.add_component("gen", Box::new(gen), 1);
    let l = b.add_component("link", Box::new(link), 2);
    let sw = b.add_component("switch", Box::new(switch), kports);
    let m = b.add_component("mon", Box::new(mon), 1);
    let ctl = b.add_component(
        "ctl",
        Box::new(RuleLoader {
            mods: table_mods(),
            punts: punts.clone(),
        }),
        1,
    );
    b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());
    b.connect(g, 0, l, 0, LinkSpec::ten_gig());
    b.connect(l, 1, sw, 0, LinkSpec::ten_gig());
    b.connect(sw, 1, m, 0, LinkSpec::ten_gig());
    let mut sim = b.build();

    // The switch re-arms a 100 ms expiry sweep forever, so the sim
    // never quiesces; run to a horizon that comfortably covers the
    // back-to-back stream (~118 ns per 128B frame at 10G) instead.
    let horizon = SimTime::from_ms(TRAFFIC_START_MS + 5) + SimDuration::from_ns(frames * 150);
    let t0 = std::time::Instant::now();
    sim.run_until(horizon);
    let wall_s = t0.elapsed().as_secs_f64();

    assert_eq!(*punts.borrow(), 0, "switch punted frames to the controller");
    let buf = buffer.borrow();
    let stats_copy = *stats.borrow();
    RunOut {
        wall_s,
        stats: stats_copy,
        captured: buf.len(),
        digest: capture_digest(&buf.packets),
    }
}

/// CRC-32 over a capture in order: each record's hardware
/// stamp, true arrival instant, stored bytes, original length, and
/// frame hash where the monitor took one.
pub fn capture_digest(packets: &[CapturedPacket]) -> u32 {
    packets.iter().fold(0, |mut digest, cap| {
        digest = crc32_update(digest, &cap.rx_stamp.to_ps().to_le_bytes());
        digest = crc32_update(digest, &cap.rx_true.as_ps().to_le_bytes());
        digest = crc32_update(digest, cap.packet.data());
        digest = crc32_update(digest, &(cap.orig_len as u64).to_le_bytes());
        match cap.hash {
            Some(hash) => crc32_update(digest, &hash.to_le_bytes()),
            None => digest,
        }
    })
}

fn main() {
    let (frames, artifact) =
        osnt_bench::flags_or_exit("e13_burst [--frames N] [--json PATH]", |args| {
            args.get("frames", COMMITTED_FRAMES)
        });
    println!(
        "E13: end-to-end burst datapath, gen -> link -> switch -> mon, 10G\n\
         back-to-back, {FRAME_LEN}B stamped frames, {frames} frames per run,\n\
         {DECOY_RULES} decoy rules + 1 forwarding rule, burst sweep\n"
    );

    let mut table = Table::new(["burst", "wall(ms)", "frames/wall-s", "digest"]);
    let mut json_rows = Vec::new();
    let mut first: Option<(MonStats, u32)> = None;
    for burst in [1u32, 8, 32, 128] {
        let r = run(frames, burst);
        assert_eq!(
            r.captured as u64, frames,
            "burst {burst}: monitor captured {} of {frames} frames",
            r.captured
        );
        if frames == COMMITTED_FRAMES {
            assert_eq!(
                r.digest, COMMITTED_DIGEST,
                "burst {burst}: capture digest diverged from the committed BENCH_burst.json"
            );
        }
        table.row([
            burst.to_string(),
            format!("{:.2}", r.wall_s * 1e3),
            format!("{:.0}", frames as f64 / r.wall_s),
            format!("{:08x}", r.digest),
        ]);
        json_rows.push(format!(
            "{{\"burst\":{burst},\"wall_s\":{:.6},\"frames_per_wall_s\":{:.0},\
             \"digest\":\"{:08x}\",\"captured\":{}}}",
            r.wall_s,
            frames as f64 / r.wall_s,
            r.digest,
            r.captured
        ));
        let sweep = *first.get_or_insert((r.stats, r.digest));
        assert_eq!(
            (r.stats, r.digest),
            sweep,
            "burst {burst}: burst size changed the monitor's output"
        );
    }
    table.print();

    artifact.write(
        "e13_burst",
        1,
        &format!(
            "\"frames\":{frames},\"frame_len\":{FRAME_LEN},\
             \"decoy_rules\":{DECOY_RULES},\"results\":[{}]",
            json_rows.join(",")
        ),
    );
}
