//! The OpenFlow 1.0 `ofp_match` structure (40 bytes, wildcard bitmap).

use crate::codec::WireError;
use osnt_packet::{MacAddr, ParsedPacket};
use std::net::Ipv4Addr;

/// Wildcard flag bits of `ofp_match.wildcards` (OpenFlow 1.0 §5.2.3).
pub mod wildcards {
    /// Switch input port.
    pub const IN_PORT: u32 = 1 << 0;
    /// VLAN id.
    pub const DL_VLAN: u32 = 1 << 1;
    /// Ethernet source address.
    pub const DL_SRC: u32 = 1 << 2;
    /// Ethernet destination address.
    pub const DL_DST: u32 = 1 << 3;
    /// Ethernet frame type.
    pub const DL_TYPE: u32 = 1 << 4;
    /// IP protocol.
    pub const NW_PROTO: u32 = 1 << 5;
    /// TCP/UDP source port.
    pub const TP_SRC: u32 = 1 << 6;
    /// TCP/UDP destination port.
    pub const TP_DST: u32 = 1 << 7;
    /// Source IP: 6-bit shift count (0 = exact, ≥32 = full wildcard).
    pub const NW_SRC_SHIFT: u32 = 8;
    /// Destination IP shift count position.
    pub const NW_DST_SHIFT: u32 = 14;
    /// VLAN PCP.
    pub const DL_VLAN_PCP: u32 = 1 << 20;
    /// IP ToS.
    pub const NW_TOS: u32 = 1 << 21;
    /// Everything wildcarded.
    pub const ALL: u32 = 0x003f_ffff;
}

/// Length of the wire `ofp_match`.
pub const OFP_MATCH_LEN: usize = 40;

/// An OpenFlow 1.0 match. Fields are always present on the wire; the
/// wildcard bitmap says which ones count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OfMatch {
    /// Wildcard bitmap (see [`wildcards`]).
    pub wildcards: u32,
    /// Ingress port.
    pub in_port: u16,
    /// Ethernet source.
    pub dl_src: MacAddr,
    /// Ethernet destination.
    pub dl_dst: MacAddr,
    /// VLAN id (0xffff = untagged, per the spec's OFP_VLAN_NONE).
    pub dl_vlan: u16,
    /// VLAN priority.
    pub dl_vlan_pcp: u8,
    /// EtherType.
    pub dl_type: u16,
    /// IP ToS (DSCP, high 6 bits).
    pub nw_tos: u8,
    /// IP protocol (or ARP opcode low byte).
    pub nw_proto: u8,
    /// Source IPv4 address.
    pub nw_src: Ipv4Addr,
    /// Destination IPv4 address.
    pub nw_dst: Ipv4Addr,
    /// Transport source port.
    pub tp_src: u16,
    /// Transport destination port.
    pub tp_dst: u16,
}

impl OfMatch {
    /// The match-everything entry.
    pub fn any() -> Self {
        OfMatch {
            wildcards: wildcards::ALL,
            in_port: 0,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_vlan: 0xffff,
            dl_vlan_pcp: 0,
            dl_type: 0,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        }
    }

    /// Exact match on an IPv4 destination address (common OFLOPS shape).
    pub fn ipv4_dst(dst: Ipv4Addr) -> Self {
        let mut m = OfMatch::any();
        m.dl_type = 0x0800;
        m.nw_dst = dst;
        m.wildcards &= !wildcards::DL_TYPE;
        m.set_nw_dst_prefix(32);
        m
    }

    /// Exact match on a UDP destination port for IPv4 traffic.
    pub fn udp_dst_port(port: u16) -> Self {
        let mut m = OfMatch::any();
        m.dl_type = 0x0800;
        m.nw_proto = 17;
        m.tp_dst = port;
        m.wildcards &= !(wildcards::DL_TYPE | wildcards::NW_PROTO | wildcards::TP_DST);
        m
    }

    /// Set the source-IP prefix length (32 = exact, 0 = wildcard).
    pub fn set_nw_src_prefix(&mut self, prefix_len: u8) {
        let shift = 32 - prefix_len.min(32) as u32;
        self.wildcards = (self.wildcards & !(0x3f << wildcards::NW_SRC_SHIFT))
            | (shift << wildcards::NW_SRC_SHIFT);
    }

    /// Set the destination-IP prefix length (32 = exact, 0 = wildcard).
    pub fn set_nw_dst_prefix(&mut self, prefix_len: u8) {
        let shift = 32 - prefix_len.min(32) as u32;
        self.wildcards = (self.wildcards & !(0x3f << wildcards::NW_DST_SHIFT))
            | (shift << wildcards::NW_DST_SHIFT);
    }

    fn nw_src_shift(&self) -> u32 {
        (self.wildcards >> wildcards::NW_SRC_SHIFT) & 0x3f
    }

    fn nw_dst_shift(&self) -> u32 {
        (self.wildcards >> wildcards::NW_DST_SHIFT) & 0x3f
    }

    /// Number of exact-match bits — the natural priority tiebreak for
    /// overlapping wildcard entries.
    pub fn specificity(&self) -> u32 {
        let mut n = 0;
        for bit in [
            wildcards::IN_PORT,
            wildcards::DL_VLAN,
            wildcards::DL_SRC,
            wildcards::DL_DST,
            wildcards::DL_TYPE,
            wildcards::NW_PROTO,
            wildcards::TP_SRC,
            wildcards::TP_DST,
        ] {
            if self.wildcards & bit == 0 {
                n += 1;
            }
        }
        n + (32 - self.nw_src_shift().min(32)) + (32 - self.nw_dst_shift().min(32))
    }

    /// Whether a parsed frame arriving on `in_port` satisfies this match.
    pub fn matches(&self, in_port: u16, p: &ParsedPacket<'_>) -> bool {
        let w = self.wildcards;
        if w & wildcards::IN_PORT == 0 && in_port != self.in_port {
            return false;
        }
        if w & wildcards::DL_SRC == 0 && p.src_mac() != Some(self.dl_src) {
            return false;
        }
        if w & wildcards::DL_DST == 0 && p.dst_mac() != Some(self.dl_dst) {
            return false;
        }
        if w & wildcards::DL_VLAN == 0 {
            let vid = p.vlan.map(|v| v.vid).unwrap_or(0xffff);
            if vid != self.dl_vlan {
                return false;
            }
        }
        if w & wildcards::DL_TYPE == 0 && p.effective_ethertype() != Some(self.dl_type) {
            return false;
        }
        if w & wildcards::NW_PROTO == 0 && p.ip_protocol() != Some(self.nw_proto) {
            return false;
        }
        let src_shift = self.nw_src_shift();
        if src_shift < 32 {
            let Some(std::net::IpAddr::V4(src)) = p.src_ip() else {
                return false;
            };
            if (u32::from(src) ^ u32::from(self.nw_src)) >> src_shift != 0 {
                return false;
            }
        }
        let dst_shift = self.nw_dst_shift();
        if dst_shift < 32 {
            let Some(std::net::IpAddr::V4(dst)) = p.dst_ip() else {
                return false;
            };
            if (u32::from(dst) ^ u32::from(self.nw_dst)) >> dst_shift != 0 {
                return false;
            }
        }
        if w & wildcards::TP_SRC == 0 && p.l4.map(|l| l.src_port) != Some(self.tp_src) {
            return false;
        }
        if w & wildcards::TP_DST == 0 && p.l4.map(|l| l.dst_port) != Some(self.tp_dst) {
            return false;
        }
        true
    }

    /// The 40-byte wire form.
    pub(crate) fn to_bytes(self) -> [u8; OFP_MATCH_LEN] {
        // Padding at 21 and 26..28 stays zero.
        let mut b = [0u8; OFP_MATCH_LEN];
        b[0..4].copy_from_slice(&self.wildcards.to_be_bytes());
        b[4..6].copy_from_slice(&self.in_port.to_be_bytes());
        b[6..12].copy_from_slice(&self.dl_src.octets());
        b[12..18].copy_from_slice(&self.dl_dst.octets());
        b[18..20].copy_from_slice(&self.dl_vlan.to_be_bytes());
        b[20] = self.dl_vlan_pcp;
        b[22..24].copy_from_slice(&self.dl_type.to_be_bytes());
        b[24] = self.nw_tos;
        b[25] = self.nw_proto;
        b[28..32].copy_from_slice(&self.nw_src.octets());
        b[32..36].copy_from_slice(&self.nw_dst.octets());
        b[36..38].copy_from_slice(&self.tp_src.to_be_bytes());
        b[38..40].copy_from_slice(&self.tp_dst.to_be_bytes());
        b
    }

    /// Serialise the 40-byte wire form.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Parse the 40-byte wire form.
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < OFP_MATCH_LEN {
            return Err(WireError::Truncated);
        }
        let mac = |off: usize| {
            let mut m = [0u8; 6];
            m.copy_from_slice(&bytes[off..off + 6]);
            MacAddr(m)
        };
        let ip =
            |off: usize| Ipv4Addr::new(bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]);
        Ok(OfMatch {
            wildcards: u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            in_port: u16::from_be_bytes([bytes[4], bytes[5]]),
            dl_src: mac(6),
            dl_dst: mac(12),
            dl_vlan: u16::from_be_bytes([bytes[18], bytes[19]]),
            dl_vlan_pcp: bytes[20],
            dl_type: u16::from_be_bytes([bytes[22], bytes[23]]),
            nw_tos: bytes[24],
            nw_proto: bytes[25],
            nw_src: ip(28),
            nw_dst: ip(32),
            tp_src: u16::from_be_bytes([bytes[36], bytes[37]]),
            tp_dst: u16::from_be_bytes([bytes[38], bytes[39]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_packet::PacketBuilder;

    fn udp_frame(dst_ip: Ipv4Addr, dst_port: u16) -> osnt_packet::Packet {
        PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), dst_ip)
            .udp(1000, dst_port)
            .build()
    }

    #[test]
    fn wire_round_trip() {
        let m = OfMatch::udp_dst_port(9001);
        let mut buf = Vec::new();
        m.write_to(&mut buf);
        assert_eq!(buf.len(), OFP_MATCH_LEN);
        assert_eq!(OfMatch::parse(&buf).unwrap(), m);
    }

    #[test]
    fn any_matches_everything() {
        let m = OfMatch::any();
        let p = udp_frame(Ipv4Addr::new(1, 2, 3, 4), 99);
        assert!(m.matches(3, &p.parse()));
    }

    #[test]
    fn ipv4_dst_exact_match() {
        let m = OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 0, 5));
        let hit = udp_frame(Ipv4Addr::new(10, 1, 0, 5), 1);
        let miss = udp_frame(Ipv4Addr::new(10, 1, 0, 6), 1);
        assert!(m.matches(0, &hit.parse()));
        assert!(!m.matches(0, &miss.parse()));
    }

    #[test]
    fn dst_prefix_match() {
        let mut m = OfMatch::any();
        m.dl_type = 0x0800;
        m.wildcards &= !wildcards::DL_TYPE;
        m.nw_dst = Ipv4Addr::new(10, 1, 0, 0);
        m.set_nw_dst_prefix(16);
        assert!(m.matches(0, &udp_frame(Ipv4Addr::new(10, 1, 200, 9), 1).parse()));
        assert!(!m.matches(0, &udp_frame(Ipv4Addr::new(10, 2, 0, 9), 1).parse()));
    }

    #[test]
    fn udp_port_match() {
        let m = OfMatch::udp_dst_port(9001);
        assert!(m.matches(0, &udp_frame(Ipv4Addr::new(1, 1, 1, 1), 9001).parse()));
        assert!(!m.matches(0, &udp_frame(Ipv4Addr::new(1, 1, 1, 1), 9002).parse()));
    }

    #[test]
    fn in_port_match() {
        let mut m = OfMatch::any();
        m.in_port = 2;
        m.wildcards &= !wildcards::IN_PORT;
        let p = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 1);
        assert!(m.matches(2, &p.parse()));
        assert!(!m.matches(3, &p.parse()));
    }

    #[test]
    fn specificity_ranks_exactness() {
        assert_eq!(OfMatch::any().specificity(), 0);
        let m = OfMatch::ipv4_dst(Ipv4Addr::new(1, 1, 1, 1));
        let n = OfMatch::udp_dst_port(80);
        assert!(m.specificity() > 0);
        assert!(n.specificity() > 0);
        // dst /32 + dl_type = 33 exact bits vs dl_type+proto+port = 3.
        assert!(m.specificity() > n.specificity());
    }

    #[test]
    fn non_ip_frame_fails_ip_matches() {
        let m = OfMatch::ipv4_dst(Ipv4Addr::new(1, 1, 1, 1));
        let arp = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::BROADCAST)
            .raw_ethertype(0x0806)
            .payload(&[0u8; 46])
            .build();
        assert!(!m.matches(0, &arp.parse()));
    }
}
