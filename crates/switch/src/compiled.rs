//! OpenFlow 1.0 matches lowered onto `osnt_packet` flow-key words.
//!
//! [`crate::flowtable::FlowTable::lookup`] walks every entry's
//! [`OfMatch::matches`] per packet — a branchy re-walk of the parse for
//! each TCAM row. This module lowers an `ofp_match` onto the same
//! [`KeyMatch`] value/mask substrate the monitor's compiled filters use,
//! so the tuple-space index ([`crate::tuple_space`]) can group rules by
//! mask signature and hash their value words against a pre-extracted
//! [`osnt_packet::FlowKey`].
//!
//! The lowering is exact: a table holding one rule finds it for
//! `(in_port, key)` precisely when `of_match.matches(in_port, &parsed)`,
//! for every frame and ingress port (pinned by the corpus test below).
//! Two `ofp_match` quirks need care:
//!
//! * `dl_vlan == 0xffff` (`OFP_VLAN_NONE`) means "untagged", which
//!   lowers to *forbidding* the VLAN presence flag rather than matching
//!   a vid value;
//! * `in_port` is ingress metadata, not a header field, so it lives
//!   beside the key words and is checked separately.

use osnt_openflow::match_field::wildcards;
use osnt_openflow::OfMatch;
use osnt_packet::{IpPrefix, KeyMatch};
use std::net::IpAddr;

/// An [`OfMatch`] lowered to masked-word compares over a [`FlowKey`],
/// plus the out-of-band ingress-port requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledOfMatch {
    key: KeyMatch,
    in_port: Option<u16>,
}

impl CompiledOfMatch {
    /// Lower `m`. Exact: matches the same `(in_port, frame)` pairs as
    /// [`OfMatch::matches`]. (`dl_vlan_pcp` and `nw_tos` wildcard bits
    /// are ignored, exactly as the interpreter ignores those fields.)
    pub fn compile(m: &OfMatch) -> CompiledOfMatch {
        let w = m.wildcards;
        let mut key = KeyMatch::new();
        if w & wildcards::DL_SRC == 0 {
            key.require_src_mac(m.dl_src);
        }
        if w & wildcards::DL_DST == 0 {
            key.require_dst_mac(m.dl_dst);
        }
        if w & wildcards::DL_VLAN == 0 {
            if m.dl_vlan == 0xffff {
                key.forbid_vlan();
            } else {
                key.require_vlan(m.dl_vlan);
            }
        }
        if w & wildcards::DL_TYPE == 0 {
            key.require_ethertype(m.dl_type);
        }
        if w & wildcards::NW_PROTO == 0 {
            key.require_ip_protocol(m.nw_proto);
        }
        let src_shift = (w >> wildcards::NW_SRC_SHIFT) & 0x3f;
        if src_shift < 32 {
            key.require_src_ip(IpPrefix::new(IpAddr::V4(m.nw_src), (32 - src_shift) as u8));
        }
        let dst_shift = (w >> wildcards::NW_DST_SHIFT) & 0x3f;
        if dst_shift < 32 {
            key.require_dst_ip(IpPrefix::new(IpAddr::V4(m.nw_dst), (32 - dst_shift) as u8));
        }
        if w & wildcards::TP_SRC == 0 {
            key.require_src_port(m.tp_src);
        }
        if w & wildcards::TP_DST == 0 {
            key.require_dst_port(m.tp_dst);
        }
        let in_port = (w & wildcards::IN_PORT == 0).then_some(m.in_port);
        CompiledOfMatch { key, in_port }
    }

    /// The lowered value/mask requirement over the key words. Exposed
    /// so classification structures (the tuple-space engine) can group
    /// rows by mask signature and hash their value words.
    #[inline]
    pub fn key_match(&self) -> &KeyMatch {
        &self.key
    }

    /// The out-of-band ingress-port requirement (`None` = any port).
    #[inline]
    pub fn in_port_req(&self) -> Option<u16> {
        self.in_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtable::{FlowEntry, FlowTable};
    use osnt_packet::{FlowKey, MacAddr, Packet, PacketBuilder};
    use osnt_time::SimTime;
    use std::net::Ipv4Addr;

    /// Frames covering every header shape an `ofp_match` can
    /// discriminate on: plain/tagged, IPv4/IPv6/ARP/raw, porty and
    /// portless transports, plus a runt.
    fn corpus() -> Vec<Packet> {
        let mut frames = vec![
            PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 168, 1, 2))
                .udp(5000, 9000)
                .build(),
            PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 2))
                .udp(0, 0)
                .build(),
            PacketBuilder::ethernet(MacAddr::local(3), MacAddr::local(4))
                .vlan(42)
                .ipv4(Ipv4Addr::new(10, 0, 0, 7), Ipv4Addr::new(10, 0, 0, 2))
                .udp(53, 53)
                .build(),
            PacketBuilder::ethernet(MacAddr::local(3), MacAddr::local(4))
                .vlan(7)
                .ipv4(Ipv4Addr::new(172, 16, 0, 1), Ipv4Addr::new(172, 16, 0, 2))
                .udp(80, 443)
                .build(),
            PacketBuilder::ethernet(MacAddr::local(9), MacAddr::BROADCAST)
                .raw_ethertype(0x0806)
                .payload(&[0u8; 46])
                .build(),
            PacketBuilder::ethernet(MacAddr::local(5), MacAddr::local(6))
                .ipv6(
                    "2001:db8::1".parse().unwrap(),
                    "2001:db8::2".parse().unwrap(),
                )
                .udp(5000, 9000)
                .build(),
            Packet::zeroed(64),
            Packet::from_vec(vec![0u8; 5]),
        ];
        // Non-IP experimental ethertype.
        frames.push(
            PacketBuilder::ethernet(MacAddr::local(9), MacAddr::local(1))
                .raw_ethertype(0x88B5)
                .payload(&[0u8; 50])
                .build(),
        );
        frames
    }

    fn matches_shapes() -> Vec<OfMatch> {
        let mut out = vec![OfMatch::any()];
        out.push(OfMatch::ipv4_dst(Ipv4Addr::new(192, 168, 1, 2)));
        out.push(OfMatch::udp_dst_port(9000));
        out.push(OfMatch::udp_dst_port(0));
        // Exact in_port.
        let mut m = OfMatch::any();
        m.in_port = 2;
        m.wildcards &= !wildcards::IN_PORT;
        out.push(m);
        // Exact MACs (including the all-zero aliasing trap).
        for mac in [MacAddr::local(1), MacAddr([0; 6])] {
            let mut m = OfMatch::any();
            m.dl_src = mac;
            m.wildcards &= !wildcards::DL_SRC;
            out.push(m);
            let mut m = OfMatch::any();
            m.dl_dst = mac;
            m.wildcards &= !wildcards::DL_DST;
            out.push(m);
        }
        // VLAN: tagged vids, vid 0, and OFP_VLAN_NONE (untagged).
        for vid in [42u16, 7, 0, 0xffff] {
            let mut m = OfMatch::any();
            m.dl_vlan = vid;
            m.wildcards &= !wildcards::DL_VLAN;
            out.push(m);
        }
        // EtherTypes (IPv4, ARP, zero).
        for t in [0x0800u16, 0x0806, 0x86dd, 0] {
            let mut m = OfMatch::any();
            m.dl_type = t;
            m.wildcards &= !wildcards::DL_TYPE;
            out.push(m);
        }
        // nw_proto (UDP, zero).
        for p in [17u8, 0] {
            let mut m = OfMatch::any();
            m.nw_proto = p;
            m.wildcards &= !wildcards::NW_PROTO;
            out.push(m);
        }
        // Source/dest prefixes at several lengths (0 is the family-only
        // degenerate, 32 is exact).
        for plen in [0u8, 8, 16, 24, 32] {
            let mut m = OfMatch::any();
            m.nw_src = Ipv4Addr::new(10, 0, 0, 1);
            m.set_nw_src_prefix(plen);
            out.push(m);
            let mut m = OfMatch::any();
            m.nw_dst = Ipv4Addr::new(192, 168, 1, 2);
            m.set_nw_dst_prefix(plen);
            out.push(m);
        }
        // Transport ports, including zero.
        for port in [5000u16, 9000, 0] {
            let mut m = OfMatch::any();
            m.tp_src = port;
            m.wildcards &= !wildcards::TP_SRC;
            out.push(m);
            let mut m = OfMatch::any();
            m.tp_dst = port;
            m.wildcards &= !wildcards::TP_DST;
            out.push(m);
        }
        // A kitchen-sink conjunction.
        let mut m = OfMatch::udp_dst_port(9000);
        m.dl_src = MacAddr::local(1);
        m.wildcards &= !wildcards::DL_SRC;
        m.nw_src = Ipv4Addr::new(10, 0, 0, 0);
        m.set_nw_src_prefix(24);
        m.in_port = 1;
        m.wildcards &= !wildcards::IN_PORT;
        out.push(m);
        out
    }

    #[test]
    fn lowered_match_classifies_like_the_interpreter() {
        for m in matches_shapes() {
            let mut table = FlowTable::new(1);
            table
                .add(FlowEntry::new(m, 1, vec![], SimTime::ZERO))
                .expect("one rule fits");
            for frame in corpus() {
                let parsed = frame.parse();
                let key = FlowKey::extract(&parsed);
                for in_port in [0u16, 1, 2, 3] {
                    assert_eq!(
                        table.lookup_key_idx(in_port, &key).is_some(),
                        m.matches(in_port, &parsed),
                        "divergence: {m:?} on port {in_port}, frame {:02x?}",
                        frame.data()
                    );
                }
            }
        }
    }
}
