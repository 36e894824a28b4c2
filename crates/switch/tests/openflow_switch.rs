//! Component-level tests of the OpenFlow switch model: a scripted
//! controller drives the control channel directly and hosts observe the
//! dataplane.

use osnt_netsim::{Component, ComponentId, Kernel, LinkSpec, SimBuilder};
use osnt_openflow::messages::{FlowMod, Message, PacketOut, StatsBody};
use osnt_openflow::{Action, OfMatch};
use osnt_packet::{MacAddr, Packet, PacketBuilder};
use osnt_switch::{decap_control, encap_control, OfSwitchConfig, OpenFlowSwitch};
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// A controller that sends a scripted list of (time, message) and logs
/// every reply with its arrival time.
struct ScriptedController {
    script: Vec<(SimTime, Message)>,
    log: Rc<RefCell<Vec<(SimTime, Message, u32)>>>,
}

impl Component for ScriptedController {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        for (i, (t, _)) in self.script.iter().enumerate() {
            k.schedule_timer_at(me, *t, i as u64);
        }
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
        let msg = self.script[tag as usize].1.clone();
        let _ = k.transmit(me, 0, encap_control(&msg, tag as u32 + 1));
    }
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
        if let Some(Ok((msg, xid))) = decap_control(&pkt) {
            self.log.borrow_mut().push((k.now(), msg, xid));
        }
    }
}

/// A host that sends a scripted list of frames and records arrivals.
struct Host {
    script: Vec<(SimTime, Packet)>,
    got: Rc<RefCell<Vec<(SimTime, Packet)>>>,
}

impl Component for Host {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        for (i, (t, _)) in self.script.iter().enumerate() {
            k.schedule_timer_at(me, *t, i as u64);
        }
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
        let _ = k.transmit(me, 0, self.script[tag as usize].1.clone());
    }
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
        self.got.borrow_mut().push((k.now(), pkt));
    }
}

fn probe_to(dst: Ipv4Addr) -> Packet {
    PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), dst)
        .udp(5001, 9001)
        .build()
}

type HostLog = Rc<RefCell<Vec<(SimTime, Packet)>>>;

struct Net {
    sim: osnt_netsim::Sim,
    ctl_log: Rc<RefCell<Vec<(SimTime, Message, u32)>>>,
    host_got: Vec<HostLog>,
}

/// Build: controller + switch with 3 data ports, hosts on every data
/// port. Host 0 sends `host_script`; the controller sends `ctl_script`.
fn build(
    cfg: OfSwitchConfig,
    ctl_script: Vec<(SimTime, Message)>,
    host_script: Vec<(SimTime, Packet)>,
) -> Net {
    let mut b = SimBuilder::new();
    let switch = OpenFlowSwitch::new(cfg);
    let ctrl_port = switch.control_port();
    let kports = switch.kernel_ports();
    let sw = b.add_component("switch", Box::new(switch), kports);

    let ctl_log = Rc::new(RefCell::new(Vec::new()));
    let ctl = b.add_component(
        "ctl",
        Box::new(ScriptedController {
            script: ctl_script,
            log: ctl_log.clone(),
        }),
        1,
    );
    b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());

    let mut host_got = Vec::new();
    for p in 0..3 {
        let got = Rc::new(RefCell::new(Vec::new()));
        let host = Host {
            script: if p == 0 { host_script.clone() } else { vec![] },
            got: got.clone(),
        };
        let h = b.add_component(&format!("h{p}"), Box::new(host), 1);
        b.connect(h, 0, sw, p, LinkSpec::ten_gig());
        host_got.push(got);
    }
    Net {
        sim: b.build(),
        ctl_log,
        host_got,
    }
}

fn out_port(p: u16) -> Vec<Action> {
    vec![Action::Output {
        port: p,
        max_len: 0,
    }]
}

#[test]
fn installed_rule_forwards_after_hw_delay_only() {
    let dst = Ipv4Addr::new(10, 1, 0, 1);
    // Probes every 100 µs from t=1ms; rule installed at t=5ms.
    let probes: Vec<(SimTime, Packet)> = (0..400)
        .map(|i| (SimTime::from_us(1_000 + i * 100), probe_to(dst)))
        .collect();
    let ctl = vec![
        // Drop-all first so misses don't flood packet_ins.
        (
            SimTime::ZERO,
            Message::FlowMod(FlowMod::add(OfMatch::any(), 0, vec![])),
        ),
        (
            SimTime::from_ms(5),
            Message::FlowMod(FlowMod::add(OfMatch::ipv4_dst(dst), 10, out_port(2))),
        ),
    ];
    let mut net = build(OfSwitchConfig::default(), ctl, probes);
    net.sim.run_until(SimTime::from_ms(60));
    let got = net.host_got[1].borrow(); // data port 1 = wire port 2
    assert!(!got.is_empty(), "rule must eventually forward");
    let first = got[0].0;
    // flow_mod reaches the switch ~µs after 5 ms, CPU 25 µs, hw 1 ms:
    // nothing before ~6 ms, something soon after.
    assert!(first >= SimTime::from_us(6_000), "first at {first}");
    assert!(first <= SimTime::from_us(6_300), "first at {first}");
}

#[test]
fn dishonest_barrier_replies_before_hw_commit() {
    let dst = Ipv4Addr::new(10, 1, 0, 1);
    let ctl = vec![
        (
            SimTime::from_ms(1),
            Message::FlowMod(FlowMod::add(OfMatch::ipv4_dst(dst), 10, out_port(2))),
        ),
        (SimTime::from_ms(1), Message::BarrierRequest),
    ];
    let mut net = build(OfSwitchConfig::default(), ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(20));
    let log = net.ctl_log.borrow();
    let barrier = log
        .iter()
        .find(|(_, m, _)| matches!(m, Message::BarrierReply))
        .expect("barrier reply");
    // CPU time is 25 µs + 1 µs; the 1 ms hw install must NOT be waited
    // for.
    assert!(
        barrier.0 < SimTime::from_us(1_200),
        "barrier at {}",
        barrier.0
    );
}

#[test]
fn honest_barrier_waits_for_hw_commit() {
    let dst = Ipv4Addr::new(10, 1, 0, 1);
    let ctl = vec![
        (
            SimTime::from_ms(1),
            Message::FlowMod(FlowMod::add(OfMatch::ipv4_dst(dst), 10, out_port(2))),
        ),
        (SimTime::from_ms(1), Message::BarrierRequest),
    ];
    let cfg = OfSwitchConfig {
        honest_barrier: true,
        ..OfSwitchConfig::default()
    };
    let mut net = build(cfg, ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(20));
    let log = net.ctl_log.borrow();
    let barrier = log
        .iter()
        .find(|(_, m, _)| matches!(m, Message::BarrierReply))
        .expect("barrier reply");
    assert!(
        barrier.0 >= SimTime::from_us(2_000),
        "barrier at {}",
        barrier.0
    );
}

#[test]
fn table_full_returns_openflow_error() {
    let cfg = OfSwitchConfig {
        table_capacity: 2,
        ..OfSwitchConfig::default()
    };
    let ctl = (0..4u8)
        .map(|i| {
            (
                SimTime::from_ms(1 + i as u64),
                Message::FlowMod(FlowMod::add(
                    OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 0, i + 1)),
                    10,
                    out_port(2),
                )),
            )
        })
        .collect();
    let mut net = build(cfg, ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(30));
    let log = net.ctl_log.borrow();
    let errors: Vec<_> = log
        .iter()
        .filter(|(_, m, _)| {
            matches!(
                m,
                Message::Error {
                    err_type: 3,
                    code: 0,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(errors.len(), 2, "third and fourth adds must be rejected");
}

#[test]
fn miss_generates_packet_in_with_truncated_payload() {
    let dst = Ipv4Addr::new(10, 9, 9, 9);
    let mut big = probe_to(dst);
    let orig_len = big.len();
    // Make it a 1518B frame to check truncation.
    let mut data = big.into_vec();
    data.resize(1514, 0xEE);
    big = Packet::from_vec(data);
    assert!(orig_len < 1514);
    let mut net = build(
        OfSwitchConfig::default(),
        vec![],
        vec![(SimTime::from_ms(1), big)],
    );
    net.sim.run_until(SimTime::from_ms(10));
    let log = net.ctl_log.borrow();
    let pi = log
        .iter()
        .find_map(|(_, m, _)| match m {
            Message::PacketIn(p) => Some(p.clone()),
            _ => None,
        })
        .expect("packet_in");
    assert_eq!(pi.in_port, 1);
    assert_eq!(pi.total_len, 1518);
    assert_eq!(pi.data.len(), 128, "miss_send_len truncation");
}

#[test]
fn packet_out_emits_on_requested_port() {
    let frame = probe_to(Ipv4Addr::new(1, 2, 3, 4));
    let ctl = vec![(
        SimTime::from_ms(1),
        Message::PacketOut(PacketOut {
            buffer_id: 0xffff_ffff,
            in_port: 0xfff8,
            actions: out_port(3).into(),
            data: frame.data().to_vec(),
        }),
    )];
    let mut net = build(OfSwitchConfig::default(), ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(10));
    assert_eq!(
        net.host_got[2].borrow().len(),
        1,
        "wire port 3 = data port 2"
    );
    assert_eq!(net.host_got[0].borrow().len(), 0);
    assert_eq!(net.host_got[1].borrow().len(), 0);
}

#[test]
fn packet_out_applies_header_rewrites_before_output() {
    let untagged = probe_to(Ipv4Addr::new(1, 2, 3, 4));
    let mut tagged = untagged.data().to_vec();
    tagged.splice(12..12, [0x81, 0x00, 0x00, 0x07]);
    let packet_out = |rewrite: Action, data: Vec<u8>| {
        Message::PacketOut(PacketOut {
            buffer_id: 0xffff_ffff,
            in_port: 0xfff8,
            actions: [vec![rewrite], out_port(2)].concat().into(),
            data,
        })
    };
    let ctl = vec![
        (
            SimTime::from_ms(1),
            packet_out(Action::SetVlanVid(42), untagged.data().to_vec()),
        ),
        (SimTime::from_ms(2), packet_out(Action::StripVlan, tagged)),
    ];
    let mut net = build(OfSwitchConfig::default(), ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(10));
    let got = net.host_got[1].borrow();
    assert_eq!(got.len(), 2, "wire port 2 = data port 1");
    let first = got[0].1.data();
    assert_eq!(first[12..14], [0x81, 0x00], "SET_VLAN_VID tags the frame");
    assert_eq!(u16::from_be_bytes([first[14], first[15]]) & 0x0fff, 42);
    assert_eq!(got[1].1.data(), untagged.data(), "STRIP_VLAN untags it");
}

#[test]
fn flow_stats_report_match_counters() {
    let dst = Ipv4Addr::new(10, 1, 0, 1);
    let probes: Vec<(SimTime, Packet)> = (0..10)
        .map(|i| (SimTime::from_ms(10 + i), probe_to(dst)))
        .collect();
    let ctl = vec![
        (
            SimTime::from_ms(1),
            Message::FlowMod(FlowMod::add(OfMatch::ipv4_dst(dst), 10, out_port(2))),
        ),
        (
            SimTime::from_ms(40),
            Message::StatsRequest(StatsBody::FlowRequest {
                of_match: OfMatch::any(),
                table_id: 0xff,
            }),
        ),
    ];
    let mut net = build(OfSwitchConfig::default(), ctl, probes);
    net.sim.run_until(SimTime::from_ms(60));
    let log = net.ctl_log.borrow();
    let reply = log
        .iter()
        .find_map(|(_, m, _)| match m {
            Message::StatsReply(StatsBody::FlowReply { entries, .. }) => Some(entries.clone()),
            _ => None,
        })
        .expect("flow stats reply");
    assert_eq!(reply.len(), 1);
    assert_eq!(reply[0].packet_count, 10);
    assert_eq!(reply[0].byte_count, 10 * 64);
    assert_eq!(reply[0].priority, 10);
}

#[test]
fn flow_stats_report_the_entry_age_in_whole_seconds_and_nanoseconds() {
    // The entry is installed 2 µs (CPU + TCAM) after its flow_mod has
    // arrived and the reply is stamped 2 µs (base + one entry) after the
    // request has. The request frame is 16 bytes shorter than the
    // flow_mod's, 128 ns less on the 1G control link, so sending it
    // 2.5 s + 128 ns later makes the entry exactly 2.5 s old.
    let us = SimDuration::from_us(1);
    let cfg = OfSwitchConfig {
        flowmod_proc: us,
        hw_install_delay: us,
        stats_proc_base: us,
        stats_proc_per_entry: us,
        ..OfSwitchConfig::default()
    };
    let ctl = vec![
        (
            SimTime::from_ms(1),
            Message::FlowMod(FlowMod::add(OfMatch::any(), 10, vec![])),
        ),
        (
            SimTime::from_ms(2501) + SimDuration::from_ns(128),
            Message::StatsRequest(StatsBody::FlowRequest {
                of_match: OfMatch::any(),
                table_id: 0xff,
            }),
        ),
    ];
    let mut net = build(cfg, ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(2600));
    let log = net.ctl_log.borrow();
    let reply = log
        .iter()
        .find_map(|(_, m, _)| match m {
            Message::StatsReply(StatsBody::FlowReply { entries, .. }) => Some(entries.clone()),
            _ => None,
        })
        .expect("flow stats reply");
    assert_eq!(reply.len(), 1);
    assert_eq!(
        (reply[0].duration_sec, reply[0].duration_nsec),
        (2, 500_000_000)
    );
}

#[test]
fn port_stats_reflect_forwarded_traffic() {
    let dst = Ipv4Addr::new(10, 1, 0, 1);
    let probes: Vec<(SimTime, Packet)> = (0..5)
        .map(|i| (SimTime::from_ms(10 + i), probe_to(dst)))
        .collect();
    let ctl = vec![
        (
            SimTime::from_ms(1),
            Message::FlowMod(FlowMod::add(OfMatch::ipv4_dst(dst), 10, out_port(2))),
        ),
        (
            SimTime::from_ms(40),
            Message::StatsRequest(StatsBody::PortRequest { port_no: 0xffff }),
        ),
    ];
    let mut net = build(OfSwitchConfig::default(), ctl, probes);
    net.sim.run_until(SimTime::from_ms(60));
    let log = net.ctl_log.borrow();
    let ports = log
        .iter()
        .find_map(|(_, m, _)| match m {
            Message::StatsReply(StatsBody::PortReply(p)) => Some(p.clone()),
            _ => None,
        })
        .expect("port stats reply");
    assert_eq!(ports.len(), 4, "default switch reports all four data ports");
    let p1 = ports.iter().find(|p| p.port_no == 1).unwrap();
    let p2 = ports.iter().find(|p| p.port_no == 2).unwrap();
    assert_eq!(p1.rx_packets, 5);
    assert_eq!(p2.tx_packets, 5);
}

#[test]
fn hard_timeout_sends_flow_removed_when_flagged() {
    let dst = Ipv4Addr::new(10, 1, 0, 1);
    let mut fm = FlowMod::add(OfMatch::ipv4_dst(dst), 10, out_port(2));
    fm.hard_timeout = 1; // one second
    fm.flags = 1; // OFPFF_SEND_FLOW_REM
    let ctl = vec![(SimTime::from_ms(1), Message::FlowMod(fm))];
    let mut net = build(OfSwitchConfig::default(), ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(1_500));
    let log = net.ctl_log.borrow();
    let removed = log
        .iter()
        .find_map(|(t, m, _)| match m {
            Message::FlowRemoved(f) => Some((*t, f.clone())),
            _ => None,
        })
        .expect("flow removed");
    assert_eq!(removed.1.reason, 1, "hard timeout reason");
    assert!(removed.0 >= SimTime::from_secs(1));
    assert!(removed.0 < SimTime::from_ms(1_200), "sweep period bound");
}

#[test]
fn echo_queues_behind_flow_mods() {
    // 40 flow_mods then an echo: the echo reply is delayed by the CPU
    // drain (~40 × 25 µs), far beyond its own 10 µs cost.
    let mut ctl: Vec<(SimTime, Message)> = (0..40u8)
        .map(|i| {
            (
                SimTime::from_ms(1),
                Message::FlowMod(FlowMod::add(
                    OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 0, i + 1)),
                    10,
                    out_port(2),
                )),
            )
        })
        .collect();
    ctl.push((
        SimTime::from_ms(1),
        Message::EchoRequest(osnt_openflow::messages::EchoData(vec![1, 2, 3])),
    ));
    let mut net = build(OfSwitchConfig::default(), ctl, vec![]);
    net.sim.run_until(SimTime::from_ms(30));
    let log = net.ctl_log.borrow();
    let echo = log
        .iter()
        .find(|(_, m, _)| matches!(m, Message::EchoReply(_)))
        .expect("echo reply");
    assert!(
        echo.0 >= SimTime::from_ms(1) + SimDuration::from_us(1_000),
        "echo at {} should queue behind ~1 ms of flow_mod processing",
        echo.0
    );
}

/// A host that emits runs of back-to-back frames, either as one
/// `Kernel::transmit_batch` (the switch is handed whole `DeliverBurst`
/// events) or frame by frame with `Kernel::transmit`.
struct BurstHost {
    /// (fire time, frames to send back-to-back).
    script: Vec<(SimTime, Vec<Packet>)>,
    per_frame: bool,
    got: Rc<RefCell<Vec<(SimTime, Packet)>>>,
}

impl Component for BurstHost {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        for (i, (t, _)) in self.script.iter().enumerate() {
            k.schedule_timer_at(me, *t, i as u64);
        }
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
        let mut it = self.script[tag as usize].1.clone().into_iter();
        if self.per_frame {
            for frame in it {
                let _ = k.transmit(me, 0, frame);
            }
        } else {
            let _ = k.transmit_batch(me, 0, &mut |_| it.next(), None);
        }
    }
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
        self.got.borrow_mut().push((k.now(), pkt));
    }
}

/// Observable trace of one run: every host's arrivals (time + frame
/// bytes) and the controller log, fully ordered.
type RunTrace = (Vec<Vec<(u64, Vec<u8>)>>, Vec<(u64, String)>);

fn burst_run(per_frame: bool) -> RunTrace {
    let mut b = SimBuilder::new();
    let switch = OpenFlowSwitch::new(OfSwitchConfig::default());
    let ctrl_port = switch.control_port();
    let kports = switch.kernel_ports();
    let sw = b.add_component("switch", Box::new(switch), kports);

    let dst_a = Ipv4Addr::new(10, 1, 0, 1); // rule → wire port 2
    let dst_b = Ipv4Addr::new(10, 1, 0, 2); // rule → wire port 3
    let dst_miss = Ipv4Addr::new(10, 9, 9, 9); // no rule → punt
    let ctl_script = vec![
        (
            SimTime::ZERO,
            Message::FlowMod(FlowMod::add(OfMatch::ipv4_dst(dst_a), 10, out_port(2))),
        ),
        (
            SimTime::ZERO,
            Message::FlowMod(FlowMod::add(OfMatch::ipv4_dst(dst_b), 10, out_port(3))),
        ),
        // NORMAL forwarding for a distinctive UDP port, to exercise the
        // CAM inside a burst.
        (
            SimTime::ZERO,
            Message::FlowMod(FlowMod::add(
                OfMatch::udp_dst_port(7777),
                20,
                vec![Action::Output {
                    port: osnt_openflow::actions::port_no::NORMAL,
                    max_len: 0,
                }],
            )),
        ),
        // A flow-stats request late in the run pins table counters
        // (per-entry packets/bytes/last_match) into the observable
        // trace.
        (
            SimTime::from_ms(8),
            Message::StatsRequest(StatsBody::FlowRequest {
                of_match: OfMatch::any(),
                table_id: 0xff,
            }),
        ),
    ];
    let ctl_log = Rc::new(RefCell::new(Vec::new()));
    let ctl = b.add_component(
        "ctl",
        Box::new(ScriptedController {
            script: ctl_script,
            log: ctl_log.clone(),
        }),
        1,
    );
    b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());

    let frame_to = |dst: Ipv4Addr, len: usize| {
        PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), dst)
            .udp(5001, 9001)
            .pad_to_frame(len)
            .build()
    };
    // Bursts from t=2ms (rules are in hardware by ~1.1ms): mixed hits,
    // misses, and NORMAL-matched frames, at several frame sizes so some
    // inter-arrival gaps straddle the 900 ns lookup latency. Every fourth
    // burst is twelve minimum-size frames — 806 ns of wire, so its last
    // member arrives before the first one's fabric release.
    let mut bursts = Vec::new();
    for i in 0..40u64 {
        let small = i % 4 == 3;
        let frames: Vec<Packet> = (0..if small { 12 } else { 8u64 })
            .map(|j| match (i + j) % 5 {
                0 => frame_to(dst_a, 64),
                1 => frame_to(dst_b, 64),
                2 if !small => frame_to(dst_a, 1000),
                3 if i % 8 == 0 => frame_to(dst_miss, 64),
                3 => frame_to(dst_a, 64),
                _ => PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(9))
                    .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 2, 0, 1))
                    .udp(5001, 7777)
                    .build(),
            })
            .collect();
        bursts.push((SimTime::from_us(2_000 + i * 40), frames));
    }
    let burst_got = Rc::new(RefCell::new(Vec::new()));
    let bh = b.add_component(
        "burst-host",
        Box::new(BurstHost {
            script: bursts,
            per_frame,
            got: burst_got.clone(),
        }),
        1,
    );
    b.connect(bh, 0, sw, 0, LinkSpec::ten_gig());

    // A scalar host on port 1 replies toward MAC local(1), so NORMAL
    // entries resolve through the CAM both ways.
    let mut host_got = vec![burst_got];
    for p in 1..3 {
        let got = Rc::new(RefCell::new(Vec::new()));
        let script: Vec<(SimTime, Packet)> = if p == 1 {
            (0..20u64)
                .map(|i| {
                    (
                        SimTime::from_us(2_013 + i * 71),
                        PacketBuilder::ethernet(MacAddr::local(9), MacAddr::local(1))
                            .ipv4(Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 0, 0, 1))
                            .udp(9001, 7777)
                            .build(),
                    )
                })
                .collect()
        } else {
            vec![]
        };
        let h = b.add_component(
            &format!("h{p}"),
            Box::new(Host {
                script,
                got: got.clone(),
            }),
            1,
        );
        b.connect(h, 0, sw, p, LinkSpec::ten_gig());
        host_got.push(got);
    }

    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(12));

    let hosts = host_got
        .iter()
        .map(|g| {
            g.borrow()
                .iter()
                .map(|(t, p)| (t.as_ps(), p.data().to_vec()))
                .collect()
        })
        .collect();
    let ctl = ctl_log
        .borrow()
        .iter()
        .map(|(t, m, xid)| (t.as_ps(), format!("{m:?} xid={xid}")))
        .collect();
    (hosts, ctl)
}

/// How the upstream enqueued is unobservable at the switch: the same
/// script sent as `DeliverBurst`s and frame by frame gives the same
/// frames at the same instants on every host, the same punts and the
/// same flow counters.
#[test]
fn burst_arrivals_forward_like_per_frame_arrivals() {
    let reference = burst_run(true);
    // The reference run must actually exercise the interesting paths.
    let deliveries: usize = reference.0.iter().map(Vec::len).sum();
    assert!(deliveries > 300, "only {deliveries} deliveries");
    assert!(
        reference.1.iter().any(|(_, m)| m.contains("PacketIn")),
        "no punts exercised"
    );
    assert!(
        reference.1.iter().any(|(_, m)| m.contains("StatsReply")),
        "no stats snapshot"
    );
    assert_eq!(burst_run(false), reference);
}
