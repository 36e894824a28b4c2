//! Fluent frame construction for the traffic generator.
//!
//! ```
//! use osnt_packet::{PacketBuilder, MacAddr};
//! use core::net::Ipv4Addr;
//!
//! let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
//!     .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
//!     .udp(5000, 9000)
//!     .payload(b"hello")
//!     .pad_to_frame(128)
//!     .build();
//! assert_eq!(pkt.frame_len(), 128);
//! assert!(pkt.parse().five_tuple().is_some());
//! ```
//!
//! The builder fills in every derived field: IP total length, UDP/TCP
//! lengths and checksums (including pseudo-headers) and the IPv4 header
//! checksum. Frames shorter than the Ethernet minimum are zero-padded to
//! 64 bytes, as the MAC would.

use crate::checksum;
use crate::ethernet::{ethertype, EthernetHeader};
use crate::icmp::IcmpEcho;
use crate::ipv4::{protocol, Ipv4Header};
use crate::ipv6::Ipv6Header;
use crate::mac::MacAddr;
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;
use crate::vlan::VlanTag;
use crate::{Packet, FCS_LEN, MIN_FRAME};
use core::net::{Ipv4Addr, Ipv6Addr};

#[derive(Debug, Clone, Copy)]
enum L3Plan {
    V4 { src: Ipv4Addr, dst: Ipv4Addr },
    V6 { src: Ipv6Addr, dst: Ipv6Addr },
}

#[derive(Debug, Clone)]
enum L4Plan {
    Udp {
        src_port: u16,
        dst_port: u16,
    },
    Tcp {
        src_port: u16,
        dst_port: u16,
        seq: u32,
        flags: u8,
    },
    IcmpEcho {
        identifier: u16,
        sequence: u16,
    },
    Raw {
        protocol: u8,
    },
}

/// Builder for well-formed Ethernet/IP frames. See the module docs.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    vlan: Option<u16>,
    raw_ethertype: Option<u16>,
    l3: Option<L3Plan>,
    l4: Option<L4Plan>,
    payload: Vec<u8>,
    pad_to: Option<usize>,
    ttl: Option<u8>,
    ip_id: u16,
}

impl PacketBuilder {
    /// Start a frame from `src` to `dst`.
    pub fn ethernet(src: MacAddr, dst: MacAddr) -> Self {
        PacketBuilder {
            src_mac: src,
            dst_mac: dst,
            vlan: None,
            raw_ethertype: None,
            l3: None,
            l4: None,
            payload: Vec::new(),
            pad_to: None,
            ttl: None,
            ip_id: 0,
        }
    }

    /// Insert an 802.1Q tag with VLAN id `vid`.
    pub fn vlan(mut self, vid: u16) -> Self {
        self.vlan = Some(vid);
        self
    }

    /// Add an IPv4 header.
    pub fn ipv4(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.l3 = Some(L3Plan::V4 { src, dst });
        self
    }

    /// Add an IPv6 header.
    pub fn ipv6(mut self, src: Ipv6Addr, dst: Ipv6Addr) -> Self {
        self.l3 = Some(L3Plan::V6 { src, dst });
        self
    }

    /// Override the IPv4 TTL / IPv6 hop limit (default 64).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Set the IPv4 identification field (handy as a sequence tag).
    pub fn ip_identification(mut self, id: u16) -> Self {
        self.ip_id = id;
        self
    }

    /// Add a UDP header.
    pub fn udp(mut self, src_port: u16, dst_port: u16) -> Self {
        self.l4 = Some(L4Plan::Udp { src_port, dst_port });
        self
    }

    /// Add a TCP header (ACK flag set, no options).
    pub fn tcp(mut self, src_port: u16, dst_port: u16, seq: u32) -> Self {
        self.l4 = Some(L4Plan::Tcp {
            src_port,
            dst_port,
            seq,
            flags: crate::tcp::flags::ACK,
        });
        self
    }

    /// Add an ICMP echo-request header (IPv4 only).
    pub fn icmp_echo(mut self, identifier: u16, sequence: u16) -> Self {
        self.l4 = Some(L4Plan::IcmpEcho {
            identifier,
            sequence,
        });
        self
    }

    /// Carry `protocol` directly over IP with the payload as the raw
    /// transport bytes.
    pub fn ip_raw(mut self, protocol: u8) -> Self {
        self.l4 = Some(L4Plan::Raw { protocol });
        self
    }

    /// Use a bare (non-IP) EtherType; the payload follows the Ethernet
    /// header directly. Used for OSNT probe frames.
    pub fn raw_ethertype(mut self, ethertype: u16) -> Self {
        self.raw_ethertype = Some(ethertype);
        self
    }

    /// Set the payload bytes.
    pub fn payload(mut self, bytes: &[u8]) -> Self {
        self.payload = bytes.to_vec();
        self
    }

    /// Pad (with zeros) so the conventional frame length (incl. FCS)
    /// equals `frame_len`. Panics at [`build`](Self::build) time if the
    /// headers alone already exceed it.
    pub fn pad_to_frame(mut self, frame_len: usize) -> Self {
        self.pad_to = Some(frame_len);
        self
    }

    /// Assemble the frame.
    ///
    /// # Panics
    /// If the layer combination is inconsistent (e.g. UDP without IP, or
    /// `pad_to_frame` smaller than the headers require).
    pub fn build(self) -> Packet {
        let PacketBuilder {
            src_mac,
            dst_mac,
            vlan,
            raw_ethertype,
            l3,
            l4,
            mut payload,
            pad_to,
            ttl,
            ip_id,
        } = self;

        // Work out how much padding the payload needs before sizing
        // headers, because IP/UDP length fields must cover the padding if
        // it is to survive filters that check lengths.
        let l2_len = crate::ethernet::HEADER_LEN
            + if vlan.is_some() {
                crate::vlan::TAG_LEN
            } else {
                0
            };
        let l3_len = match l3 {
            Some(L3Plan::V4 { .. }) => crate::ipv4::HEADER_LEN,
            Some(L3Plan::V6 { .. }) => crate::ipv6::HEADER_LEN,
            None => 0,
        };
        let l4_len = match &l4 {
            Some(L4Plan::Udp { .. }) => crate::udp::HEADER_LEN,
            Some(L4Plan::Tcp { .. }) => crate::tcp::HEADER_LEN,
            Some(L4Plan::IcmpEcho { .. }) => crate::icmp::HEADER_LEN,
            Some(L4Plan::Raw { .. }) | None => 0,
        };
        if let Some(target) = pad_to {
            let fixed = l2_len + l3_len + l4_len + FCS_LEN;
            assert!(
                target >= fixed + payload.len(),
                "pad_to_frame({target}) smaller than headers+payload ({} bytes)",
                fixed + payload.len()
            );
            payload.resize(target - fixed, 0);
        }

        let mut out = Vec::with_capacity(l2_len + l3_len + l4_len + payload.len());

        // L2.
        let outer_type = if vlan.is_some() {
            ethertype::VLAN
        } else {
            match (&l3, raw_ethertype) {
                (_, Some(t)) => t,
                (Some(L3Plan::V4 { .. }), _) => ethertype::IPV4,
                (Some(L3Plan::V6 { .. }), _) => ethertype::IPV6,
                (None, None) => ethertype::OSNT_PROBE,
            }
        };
        EthernetHeader {
            dst: dst_mac,
            src: src_mac,
            ethertype: outer_type,
        }
        .write_to(&mut out);
        if let Some(vid) = vlan {
            let inner = match (&l3, raw_ethertype) {
                (_, Some(t)) => t,
                (Some(L3Plan::V4 { .. }), _) => ethertype::IPV4,
                (Some(L3Plan::V6 { .. }), _) => ethertype::IPV6,
                (None, None) => ethertype::OSNT_PROBE,
            };
            VlanTag::new(vid, inner).write_to(&mut out);
        }

        // Build the transport segment first (checksum needs the payload).
        let segment = match (&l3, &l4) {
            (None, None) => payload.clone(),
            (None, Some(_)) => panic!("transport layer requires an IP layer"),
            (Some(_), None) => panic!("IP layer requires a transport plan (use ip_raw)"),
            (Some(plan), Some(l4plan)) => build_segment(plan, l4plan, &payload),
        };

        // L3.
        match l3 {
            Some(L3Plan::V4 { src, dst }) => {
                let proto = match &l4 {
                    Some(L4Plan::Udp { .. }) => protocol::UDP,
                    Some(L4Plan::Tcp { .. }) => protocol::TCP,
                    Some(L4Plan::IcmpEcho { .. }) => protocol::ICMP,
                    Some(L4Plan::Raw { protocol }) => *protocol,
                    None => unreachable!(),
                };
                let mut hdr = Ipv4Header::new(src, dst, proto, segment.len());
                if let Some(t) = ttl {
                    hdr.ttl = t;
                }
                hdr.identification = ip_id;
                hdr.write_to(&mut out);
            }
            Some(L3Plan::V6 { src, dst }) => {
                let next = match &l4 {
                    Some(L4Plan::Udp { .. }) => protocol::UDP,
                    Some(L4Plan::Tcp { .. }) => protocol::TCP,
                    Some(L4Plan::IcmpEcho { .. }) => {
                        panic!("ICMPv4 echo cannot be carried over IPv6 in this model")
                    }
                    Some(L4Plan::Raw { protocol }) => *protocol,
                    None => unreachable!(),
                };
                let mut hdr = Ipv6Header::new(src, dst, next, segment.len());
                if let Some(t) = ttl {
                    hdr.hop_limit = t;
                }
                hdr.write_to(&mut out);
            }
            None => {}
        }

        out.extend_from_slice(&segment);

        // Ethernet minimum: pad the stored frame to 60 bytes (64 incl.
        // FCS), exactly as a MAC pads on transmit.
        if out.len() < MIN_FRAME - FCS_LEN {
            out.resize(MIN_FRAME - FCS_LEN, 0);
        }
        Packet::from_vec(out)
    }
}

fn build_segment(l3: &L3Plan, l4: &L4Plan, payload: &[u8]) -> Vec<u8> {
    let mut seg = Vec::with_capacity(crate::tcp::HEADER_LEN + payload.len());
    match l4 {
        L4Plan::Udp { src_port, dst_port } => {
            UdpHeader::new(*src_port, *dst_port, payload.len()).write_to(&mut seg);
            seg.extend_from_slice(payload);
            let ck = transport_ck(l3, protocol::UDP, &seg);
            // RFC 768: a computed checksum of zero is transmitted as 0xffff.
            let ck = if ck == 0 { 0xffff } else { ck };
            seg[6..8].copy_from_slice(&ck.to_be_bytes());
        }
        L4Plan::Tcp {
            src_port,
            dst_port,
            seq,
            flags,
        } => {
            let mut hdr = TcpHeader::new(*src_port, *dst_port, *seq);
            hdr.flags = *flags;
            hdr.write_to(&mut seg);
            seg.extend_from_slice(payload);
            let ck = transport_ck(l3, protocol::TCP, &seg);
            seg[16..18].copy_from_slice(&ck.to_be_bytes());
        }
        L4Plan::IcmpEcho {
            identifier,
            sequence,
        } => {
            IcmpEcho::request(*identifier, *sequence).write_with_payload(&mut seg, payload);
        }
        L4Plan::Raw { .. } => {
            seg.extend_from_slice(payload);
        }
    }
    seg
}

fn transport_ck(l3: &L3Plan, proto: u8, segment: &[u8]) -> u16 {
    match l3 {
        L3Plan::V4 { src, dst } => checksum::transport_checksum_v4(*src, *dst, proto, segment),
        L3Plan::V6 { src, dst } => checksum::transport_checksum_v6(*src, *dst, proto, segment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::{pseudo_header_v4, Checksum};
    use crate::parser::L3;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::local(1), MacAddr::local(2))
    }

    #[test]
    fn udp_checksum_verifies_end_to_end() {
        let (s, d) = macs();
        let pkt = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1111, 2222)
            .payload(b"some test payload bytes")
            .build();
        let v = pkt.parse();
        let Some(L3::Ipv4(ip)) = v.l3 else {
            panic!("not ipv4")
        };
        let seg = &pkt.data()[v.l4_offset..v.l4_offset + ip.payload_len()];
        let mut c = Checksum::new();
        pseudo_header_v4(&mut c, ip.src, ip.dst, protocol::UDP, seg.len() as u16);
        c.add_bytes(seg);
        assert_eq!(c.finish(), 0, "UDP checksum must verify");
    }

    #[test]
    fn tcp_checksum_verifies_end_to_end() {
        let (s, d) = macs();
        let pkt = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(4, 3, 2, 1))
            .tcp(80, 443, 0x01020304)
            .payload(b"tcp data")
            .build();
        let v = pkt.parse();
        let Some(L3::Ipv4(ip)) = v.l3 else {
            panic!("not ipv4")
        };
        let seg = &pkt.data()[v.l4_offset..v.l4_offset + ip.payload_len()];
        let mut c = Checksum::new();
        pseudo_header_v4(&mut c, ip.src, ip.dst, protocol::TCP, seg.len() as u16);
        c.add_bytes(seg);
        assert_eq!(c.finish(), 0, "TCP checksum must verify");
    }

    #[test]
    fn minimum_frame_is_padded() {
        let (s, d) = macs();
        let pkt = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .build();
        assert_eq!(pkt.frame_len(), MIN_FRAME);
    }

    #[test]
    fn pad_to_frame_hits_exact_size() {
        let (s, d) = macs();
        for size in [64usize, 128, 256, 512, 1024, 1518] {
            let pkt = PacketBuilder::ethernet(s, d)
                .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
                .udp(1, 2)
                .pad_to_frame(size)
                .build();
            assert_eq!(pkt.frame_len(), size);
            // Length fields must cover the padding.
            let v = pkt.parse();
            let Some(L3::Ipv4(ip)) = v.l3 else { panic!() };
            assert_eq!(
                ip.total_len as usize,
                size - FCS_LEN - crate::ethernet::HEADER_LEN
            );
        }
    }

    #[test]
    #[should_panic(expected = "smaller than headers")]
    fn pad_to_frame_rejects_impossible_size() {
        let (s, d) = macs();
        let _ = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .payload(&[0; 100])
            .pad_to_frame(64)
            .build();
    }

    #[test]
    #[should_panic(expected = "requires an IP layer")]
    fn udp_without_ip_panics() {
        let (s, d) = macs();
        let _ = PacketBuilder::ethernet(s, d).udp(1, 2).build();
    }

    #[test]
    fn icmp_echo_frame() {
        let (s, d) = macs();
        let pkt = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .icmp_echo(7, 3)
            .payload(b"abcdefgh")
            .build();
        let v = pkt.parse();
        assert_eq!(v.ip_protocol(), Some(protocol::ICMP));
        let icmp = crate::icmp::IcmpEcho::parse(&pkt.data()[v.l4_offset..v.l4_offset + 16])
            .expect("icmp parses");
        assert_eq!(icmp.identifier, 7);
        assert_eq!(icmp.sequence, 3);
    }

    #[test]
    fn bare_probe_frame_uses_experimental_ethertype() {
        let (s, d) = macs();
        let pkt = PacketBuilder::ethernet(s, d).payload(&[0xab; 46]).build();
        assert_eq!(
            pkt.parse().effective_ethertype(),
            Some(ethertype::OSNT_PROBE)
        );
    }

    #[test]
    fn ipv6_udp_builds_and_parses() {
        let (s, d) = macs();
        let pkt = PacketBuilder::ethernet(s, d)
            .ipv6(
                Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1),
                Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 2),
            )
            .udp(4242, 4243)
            .payload(&[1, 2, 3])
            .build();
        let ft = pkt.parse().five_tuple().unwrap();
        assert_eq!(ft.src_port, 4242);
        assert!(matches!(ft.src_ip, core::net::IpAddr::V6(_)));
    }

    #[test]
    fn vlan_and_ttl_options() {
        let (s, d) = macs();
        let pkt = PacketBuilder::ethernet(s, d)
            .vlan(99)
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .ttl(7)
            .udp(5, 6)
            .build();
        let v = pkt.parse();
        assert_eq!(v.vlan.unwrap().vid, 99);
        let Some(L3::Ipv4(ip)) = v.l3 else { panic!() };
        assert_eq!(ip.ttl, 7);
    }
}
