//! A protocol-answering end host.
//!
//! Network testers are rarely pointed at other testers: the device under
//! test usually forwards toward real stations. [`SimpleHost`] is the
//! minimal station the examples need — it answers ARP who-has for its
//! address, echoes ICMP pings (so OSNT can measure RTT through a DUT the
//! way `ping` would, but with hardware stamps) and counts UDP payloads
//! delivered to it.

use osnt_netsim::{Component, ComponentId, Kernel};
use osnt_packet::arp::{ArpOp, ArpPacket};
use osnt_packet::ethernet::{ethertype, EthernetHeader};
use osnt_packet::icmp::{IcmpEcho, IcmpType};
use osnt_packet::ipv4::protocol;
use osnt_packet::parser::L3;
use osnt_packet::{MacAddr, Packet, PacketBuilder};
use osnt_time::SimDuration;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::rc::Rc;

const TAG_REPLY: u64 = 0x05177;

/// Observable counters of a [`SimpleHost`], shared with the harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HostCounters {
    /// ARP requests answered.
    pub arp_replies: u64,
    /// ICMP echoes answered.
    pub echo_replies: u64,
    /// UDP datagrams addressed to this host.
    pub udp_received: u64,
    /// UDP payload bytes received.
    pub udp_bytes: u64,
}

/// A host with one port, one MAC and one IPv4 address.
pub struct SimpleHost {
    mac: MacAddr,
    ip: Ipv4Addr,
    /// Time the host's stack takes to turn a request into a reply.
    pub stack_latency: SimDuration,
    pending: VecDeque<Packet>,
    counters: Rc<RefCell<HostCounters>>,
}

impl SimpleHost {
    /// A host with a 5 µs stack latency (a fast kernel path).
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Self {
        SimpleHost {
            mac,
            ip,
            stack_latency: SimDuration::from_us(5),
            pending: VecDeque::new(),
            counters: Rc::new(RefCell::new(HostCounters::default())),
        }
    }

    /// Shared handle to the host's counters (readable after the host is
    /// boxed into a simulation).
    pub fn counters(&self) -> Rc<RefCell<HostCounters>> {
        self.counters.clone()
    }

    /// The host's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The host's IPv4 address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    fn queue_reply(&mut self, kernel: &mut Kernel, me: ComponentId, reply: Packet) {
        self.pending.push_back(reply);
        kernel.schedule_timer(me, self.stack_latency, TAG_REPLY);
    }

    fn handle_arp(&mut self, kernel: &mut Kernel, me: ComponentId, packet: &Packet) {
        let body = &packet.data()[osnt_packet::ethernet::HEADER_LEN..];
        let Ok(arp) = ArpPacket::parse(body) else {
            return;
        };
        if arp.op != ArpOp::Request || arp.target_ip != self.ip {
            return;
        }
        let reply = ArpPacket::reply_to(&arp, self.mac);
        let mut bytes = Vec::new();
        EthernetHeader {
            dst: arp.sender_mac,
            src: self.mac,
            ethertype: ethertype::ARP,
        }
        .write_to(&mut bytes);
        reply.write_to(&mut bytes);
        if bytes.len() < 60 {
            bytes.resize(60, 0);
        }
        self.counters.borrow_mut().arp_replies += 1;
        self.queue_reply(kernel, me, Packet::from_vec(bytes));
    }

    fn handle_ipv4(&mut self, kernel: &mut Kernel, me: ComponentId, packet: &Packet) {
        let parsed = packet.parse();
        let Some(L3::Ipv4(ip)) = parsed.l3 else {
            return;
        };
        if ip.dst != self.ip {
            return;
        }
        match ip.protocol {
            protocol::ICMP => {
                let seg_end = (parsed.l4_offset + ip.payload_len()).min(packet.len());
                let seg = &packet.data()[parsed.l4_offset..seg_end];
                let Ok(echo) = IcmpEcho::parse(seg) else {
                    return;
                };
                if echo.icmp_type != IcmpType::EchoRequest {
                    return;
                }
                let payload = &seg[osnt_packet::icmp::HEADER_LEN..];
                let src_mac = parsed.src_mac().unwrap_or(MacAddr::BROADCAST);
                let reply = PacketBuilder::ethernet(self.mac, src_mac)
                    .ipv4(self.ip, ip.src)
                    .ip_raw(protocol::ICMP)
                    .payload(&{
                        let mut body = Vec::new();
                        IcmpEcho::reply_to(&echo).write_with_payload(&mut body, payload);
                        body
                    })
                    .build();
                self.counters.borrow_mut().echo_replies += 1;
                self.queue_reply(kernel, me, reply);
            }
            protocol::UDP => {
                // Trust the UDP length field, not the slice length — the
                // frame may carry Ethernet minimum-size padding.
                let datagram_len =
                    osnt_packet::udp::UdpHeader::parse(&packet.data()[parsed.l4_offset..])
                        .map(|h| h.length as u64)
                        .unwrap_or(0);
                let mut c = self.counters.borrow_mut();
                c.udp_received += 1;
                c.udp_bytes += datagram_len.saturating_sub(osnt_packet::udp::HEADER_LEN as u64);
            }
            _ => {}
        }
    }
}

impl Component for SimpleHost {
    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, _port: usize, packet: Packet) {
        let parsed = packet.parse();
        let Some(dst) = parsed.dst_mac() else { return };
        if dst != self.mac && !dst.is_broadcast() {
            return;
        }
        match parsed.effective_ethertype() {
            Some(ethertype::ARP) => {
                self.handle_arp(kernel, me, &packet);
            }
            Some(ethertype::IPV4) => {
                self.handle_ipv4(kernel, me, &packet);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        debug_assert_eq!(tag, TAG_REPLY);
        let reply = self.pending.pop_front().expect("reply timer without frame");
        let _ = kernel.transmit(me, 0, reply);
    }

    fn name(&self) -> &str {
        "simple-host"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_netsim::{LinkSpec, SimBuilder};
    use osnt_time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sends a scripted frame and records everything it hears back.
    struct Prober {
        send: Vec<(SimTime, Packet)>,
        got: Rc<RefCell<Vec<(SimTime, Packet)>>>,
    }
    impl Component for Prober {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            for (i, (t, _)) in self.send.iter().enumerate() {
                k.schedule_timer_at(me, *t, i as u64);
            }
        }
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            let _ = k.transmit(me, 0, self.send[tag as usize].1.clone());
        }
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
            self.got.borrow_mut().push((k.now(), pkt));
        }
    }

    type Received = Rc<RefCell<Vec<(SimTime, Packet)>>>;

    fn host_net(send: Vec<(SimTime, Packet)>) -> (osnt_netsim::Sim, Received) {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let p = b.add_component(
            "prober",
            Box::new(Prober {
                send,
                got: got.clone(),
            }),
            1,
        );
        let h = b.add_component(
            "host",
            Box::new(SimpleHost::new(
                MacAddr::local(9),
                Ipv4Addr::new(10, 0, 0, 9),
            )),
            1,
        );
        b.connect(p, 0, h, 0, LinkSpec::ten_gig());
        (b.build(), got)
    }

    fn arp_request() -> Packet {
        let req = ArpPacket::request(
            MacAddr::local(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 9),
        );
        let mut bytes = Vec::new();
        EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::local(1),
            ethertype: ethertype::ARP,
        }
        .write_to(&mut bytes);
        req.write_to(&mut bytes);
        Packet::from_vec(bytes)
    }

    #[test]
    fn answers_arp_for_its_address() {
        let (mut sim, got) = host_net(vec![(SimTime::ZERO, arp_request())]);
        sim.run_until(SimTime::from_ms(1));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        let body = &got[0].1.data()[osnt_packet::ethernet::HEADER_LEN..];
        let reply = ArpPacket::parse(body).unwrap();
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_mac, MacAddr::local(9));
        assert_eq!(reply.sender_ip, Ipv4Addr::new(10, 0, 0, 9));
        assert_eq!(reply.target_mac, MacAddr::local(1));
    }

    #[test]
    fn ignores_arp_for_other_addresses() {
        let mut req = arp_request();
        // Rewrite the target IP (last 4 bytes of the ARP body).
        let n = osnt_packet::ethernet::HEADER_LEN + 24;
        req.data_mut()[n..n + 4].copy_from_slice(&[10, 0, 0, 77]);
        let (mut sim, got) = host_net(vec![(SimTime::ZERO, req)]);
        sim.run_until(SimTime::from_ms(1));
        assert!(got.borrow().is_empty());
    }

    fn ping(seq: u16, payload: &[u8]) -> Packet {
        PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(9))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 9))
            .icmp_echo(0x77, seq)
            .payload(payload)
            .build()
    }

    #[test]
    fn echoes_pings_with_payload_and_stack_latency() {
        let (mut sim, got) = host_net(vec![(SimTime::ZERO, ping(3, b"timestamped!"))]);
        sim.run_until(SimTime::from_ms(1));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        let (t, reply) = &got[0];
        // Wire there (~67.6 ns) + 5 µs stack + wire back.
        assert!(t.as_ps() > 5_000_000, "reply at {t}");
        let parsed = reply.parse();
        let Some(L3::Ipv4(ip)) = parsed.l3 else {
            panic!()
        };
        assert_eq!(ip.src, Ipv4Addr::new(10, 0, 0, 9));
        assert_eq!(ip.dst, Ipv4Addr::new(10, 0, 0, 1));
        let seg_end = (parsed.l4_offset + ip.payload_len()).min(reply.len());
        let seg = &reply.data()[parsed.l4_offset..seg_end];
        let echo = IcmpEcho::parse(seg).unwrap();
        assert_eq!(echo.icmp_type, IcmpType::EchoReply);
        assert_eq!(echo.sequence, 3);
        assert_eq!(&seg[8..8 + 12], b"timestamped!");
    }

    #[test]
    fn counts_udp_to_itself_only() {
        let to_me = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(9))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 9))
            .udp(1, 2)
            .payload(&[0xab; 10])
            .build();
        let to_other = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(9))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 88))
            .udp(1, 2)
            .payload(&[0xab; 10])
            .build();
        let got = Rc::new(RefCell::new(Vec::new()));
        let host = SimpleHost::new(MacAddr::local(9), Ipv4Addr::new(10, 0, 0, 9));
        let counters = host.counters();
        let mut b = SimBuilder::new();
        let p = b.add_component(
            "prober",
            Box::new(Prober {
                send: vec![(SimTime::ZERO, to_me), (SimTime::from_us(1), to_other)],
                got: got.clone(),
            }),
            1,
        );
        let h = b.add_component("host", Box::new(host), 1);
        b.connect(p, 0, h, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(1));
        assert!(got.borrow().is_empty(), "UDP is sunk, not answered");
        let c = *counters.borrow();
        assert_eq!(c.udp_received, 1, "only the datagram addressed to me");
        assert_eq!(c.udp_bytes, 10);
        assert_eq!(c.echo_replies, 0);
    }
}
