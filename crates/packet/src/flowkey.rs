//! Compiled wildcard matching: fixed-width flow keys and masked-word
//! rules.
//!
//! [`crate::WildcardRule::matches`] re-walks a [`ParsedPacket`]'s
//! `Option` fields per rule — fine for a handful of rules, ruinous for a
//! filter-heavy monitor table where every frame pays the whole walk at
//! line rate. This module lowers both sides of the comparison to flat
//! machine words:
//!
//! * [`FlowKey::of_bytes`] packs every filterable header field of one
//!   frame into eight `u64` words in a single pass over its bytes (one
//!   extraction per packet, shared by every rule); [`FlowKey::extract`]
//!   builds the same key from a [`ParsedPacket`] a caller already holds;
//!   and
//! * [`CompiledRule::compile`] lowers a `WildcardRule` into a
//!   value/mask pair over the same words, so a match is eight
//!   `(key & mask) == value` compares with no branches on header shape.
//!
//! `Option` semantics ("a named field requires its layer to exist")
//! survive lowering through the presence-flag word: a rule naming
//! `dst_port` also demands the `HAS_L4` bit, so an ARP frame whose key
//! holds zeroed port bits can never match a `dst_port == 0` rule by
//! accident. [`CompiledRule::compile`] is exact by construction —
//! `compiled.matches(&FlowKey::extract(&p)) == rule.matches(&p)` for
//! every frame, pinned by the corpus test below and the proptest suite.

use crate::ethernet::{self, ethertype};
use crate::ipv4::{self, protocol};
use crate::mac::MacAddr;
use crate::parser::{ParsedPacket, L3};
use crate::wildcard::WildcardRule;
use crate::{checksum, ipv6, vlan};
use core::net::IpAddr;

/// Number of `u64` words in a [`FlowKey`].
pub const KEY_WORDS: usize = 8;

// Word layout (field → word, bit position):
//   w0: src MAC (bits 0..48) | effective EtherType (bits 48..64)
//   w1: dst MAC (bits 0..48) | VLAN vid (bits 48..64)
//   w2: src IP high 64 bits (IPv6; zero for IPv4)
//   w3: src IP low 64 bits (IPv6) or the IPv4 address (bits 0..32)
//   w4: dst IP high 64 bits
//   w5: dst IP low 64 bits / IPv4 address
//   w6: src port (bits 0..16) | dst port (bits 16..32) | IP proto (32..40)
//   w7: presence flags (see the `flag` constants)
const W_SRC: usize = 0;
const W_DST: usize = 1;
const W_SIP_HI: usize = 2;
const W_SIP_LO: usize = 3;
const W_DIP_HI: usize = 4;
const W_DIP_LO: usize = 5;
const W_L4: usize = 6;
const W_FLAGS: usize = 7;

const MAC_MASK: u64 = (1 << 48) - 1;
const ETHERTYPE_SHIFT: u32 = 48;
const VID_SHIFT: u32 = 48;
const DPORT_SHIFT: u32 = 16;
const PROTO_SHIFT: u32 = 32;

/// Presence flags stored in word 7 of a [`FlowKey`]. A compiled rule
/// that names a field also requires the flag of the layer carrying it,
/// which is how `Option`-field semantics survive the lowering.
pub mod flag {
    /// An Ethernet header was parsed.
    pub const HAS_ETH: u64 = 1 << 0;
    /// An 802.1Q tag is present.
    pub const HAS_VLAN: u64 = 1 << 1;
    /// The frame is IP (v4 or v6).
    pub const HAS_IP: u64 = 1 << 2;
    /// The frame is IPv4.
    pub const IS_V4: u64 = 1 << 3;
    /// The frame is IPv6.
    pub const IS_V6: u64 = 1 << 4;
    /// A transport summary exists (every IP frame has one; ports are
    /// zero when the transport header is truncated or portless).
    pub const HAS_L4: u64 = 1 << 5;
}

#[inline]
fn mac_bits(m: MacAddr) -> u64 {
    m.octets().iter().fold(0u64, |a, &b| (a << 8) | b as u64)
}

/// The big-endian word at `b[at..at + 8]`.
#[inline]
fn be64(b: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&b[at..at + 8]);
    u64::from_be_bytes(word)
}

/// Every filterable header field of one frame, pre-extracted into
/// fixed-width words. Extract once per packet, match against any number
/// of [`CompiledRule`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// The packed field words (layout documented in the module source).
    pub words: [u64; KEY_WORDS],
}

impl FlowKey {
    /// Pack `p`'s header fields, for callers that already hold a parse.
    /// Absent layers leave their words zero and their presence flags
    /// clear.
    pub fn extract(p: &ParsedPacket<'_>) -> FlowKey {
        let mut w = [0u64; KEY_WORDS];
        let mut flags = 0u64;
        if let Some(eth) = p.ethernet {
            flags |= flag::HAS_ETH;
            w[W_SRC] = mac_bits(eth.src);
            w[W_DST] = mac_bits(eth.dst);
            // `effective_ethertype` is Some exactly when ethernet is.
            if let Some(t) = p.effective_ethertype() {
                w[W_SRC] |= (t as u64) << ETHERTYPE_SHIFT;
            }
        }
        if let Some(tag) = p.vlan {
            flags |= flag::HAS_VLAN;
            w[W_DST] |= (tag.vid as u64) << VID_SHIFT;
        }
        match p.l3 {
            Some(L3::Ipv4(h)) => {
                flags |= flag::HAS_IP | flag::IS_V4;
                w[W_SIP_LO] = u32::from(h.src) as u64;
                w[W_DIP_LO] = u32::from(h.dst) as u64;
            }
            Some(L3::Ipv6(h)) => {
                flags |= flag::HAS_IP | flag::IS_V6;
                let (s, d) = (u128::from(h.src), u128::from(h.dst));
                w[W_SIP_HI] = (s >> 64) as u64;
                w[W_SIP_LO] = s as u64;
                w[W_DIP_HI] = (d >> 64) as u64;
                w[W_DIP_LO] = d as u64;
            }
            _ => {}
        }
        if let Some(l4) = p.l4 {
            flags |= flag::HAS_L4;
            w[W_L4] = l4.src_port as u64
                | (l4.dst_port as u64) << DPORT_SHIFT
                | (l4.protocol as u64) << PROTO_SHIFT;
        }
        w[W_FLAGS] = flags;
        FlowKey { words: w }
    }

    /// The key of the frame `bytes`, written in one pass over the header
    /// bytes with no [`ParsedPacket`] in between: the extractor the
    /// OpenFlow switch runs on every frame.
    ///
    /// It accepts exactly what [`ParsedPacket::parse`] accepts — Ethernet,
    /// at most one 802.1Q tag, IPv4 only with version 4, IHL 5 and a
    /// verifying header checksum, IPv6 with version 6, ports when UDP or
    /// TCP leaves four bytes — so the key equals
    /// `FlowKey::extract(&ParsedPacket::parse(bytes))` word for word. A
    /// frame cut inside its tag keys as Ethernet with EtherType 0x8100.
    pub fn of_bytes(bytes: &[u8]) -> FlowKey {
        let mut w = [0u64; KEY_WORDS];
        let Some((eth, mut rest)) = bytes.split_first_chunk::<{ ethernet::HEADER_LEN }>() else {
            return FlowKey { words: w };
        };
        let mut flags = flag::HAS_ETH;
        // Bytes 0..8 hold the destination MAC and the first two source
        // bytes; bytes 6..14 the source MAC and the EtherType.
        w[W_DST] = be64(eth, 0) >> 16;
        let src_type = be64(eth, 6);
        let mut ethertype = src_type as u16;
        if ethertype == ethertype::VLAN {
            if let Some((tag, inner)) = rest.split_first_chunk::<{ vlan::TAG_LEN }>() {
                flags |= flag::HAS_VLAN;
                let vid = u16::from_be_bytes([tag[0], tag[1]]) & 0x0fff;
                w[W_DST] |= (vid as u64) << VID_SHIFT;
                ethertype = u16::from_be_bytes([tag[2], tag[3]]);
                rest = inner;
            }
        }
        w[W_SRC] = src_type >> 16 | (ethertype as u64) << ETHERTYPE_SHIFT;
        // The transport protocol and the bytes behind the IP header.
        let l4 = match ethertype {
            ethertype::IPV4 => match rest.split_first_chunk::<{ ipv4::HEADER_LEN }>() {
                Some((ip, l4)) if ip[0] == 0x45 && checksum::verify(ip) => {
                    flags |= flag::HAS_IP | flag::IS_V4;
                    // Bytes 12..20: source address, then destination.
                    let addrs = be64(ip, 12);
                    w[W_SIP_LO] = addrs >> 32;
                    w[W_DIP_LO] = addrs & 0xffff_ffff;
                    Some((ip[9], l4))
                }
                _ => None,
            },
            ethertype::IPV6 => match rest.split_first_chunk::<{ ipv6::HEADER_LEN }>() {
                Some((ip, l4)) if ip[0] >> 4 == 6 => {
                    flags |= flag::HAS_IP | flag::IS_V6;
                    w[W_SIP_HI] = be64(ip, 8);
                    w[W_SIP_LO] = be64(ip, 16);
                    w[W_DIP_HI] = be64(ip, 24);
                    w[W_DIP_LO] = be64(ip, 32);
                    Some((ip[6], l4))
                }
                _ => None,
            },
            _ => None,
        };
        if let Some((proto, l4)) = l4 {
            flags |= flag::HAS_L4;
            w[W_L4] = (proto as u64) << PROTO_SHIFT;
            if let (protocol::UDP | protocol::TCP, Some(ports)) = (proto, l4.first_chunk::<4>()) {
                w[W_L4] |= u16::from_be_bytes([ports[0], ports[1]]) as u64
                    | (u16::from_be_bytes([ports[2], ports[3]]) as u64) << DPORT_SHIFT;
            }
        }
        w[W_FLAGS] = flags;
        FlowKey { words: w }
    }

    /// The key with `mask` applied word-wise: the canonical form a
    /// tuple-space classifier hashes. For any [`KeyMatch`] whose mask is
    /// `mask`, the match succeeds exactly when this equals the rule's
    /// value words — so grouping rules by mask turns wildcard matching
    /// into exact-match hashing on the masked key.
    #[inline]
    pub fn masked(&self, mask: &[u64; KEY_WORDS]) -> [u64; KEY_WORDS] {
        let mut out = [0u64; KEY_WORDS];
        for (o, (&k, &m)) in out.iter_mut().zip(self.words.iter().zip(mask)) {
            *o = k & m;
        }
        out
    }
}

/// A raw value/mask requirement over [`FlowKey`] words — the shared
/// substrate every compiled rule language lowers onto.
///
/// [`CompiledRule`] (the monitor's [`WildcardRule`] lowering) is a thin
/// wrapper over it, and foreign rule languages — the switch crate's
/// OpenFlow 1.0 `ofp_match` — compile onto the same key layout through
/// the named `require_*` methods, without this module having to export
/// its private word layout. Every `require_*` call ANDs one more field
/// constraint into the value/mask pair; the presence-flag discipline
/// (naming a field also demands the flag of the layer carrying it) is
/// applied by each method, so `Option`-field semantics survive any
/// lowering built on this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyMatch {
    value: [u64; KEY_WORDS],
    mask: [u64; KEY_WORDS],
}

impl Default for KeyMatch {
    fn default() -> Self {
        KeyMatch::new()
    }
}

impl KeyMatch {
    /// The unconstrained match (accepts every key).
    pub fn new() -> Self {
        KeyMatch {
            value: [0u64; KEY_WORDS],
            mask: [0u64; KEY_WORDS],
        }
    }

    #[inline]
    fn require(&mut self, w: usize, mask: u64, value: u64) {
        debug_assert_eq!(value & !mask, 0, "value bits outside the mask");
        self.mask[w] |= mask;
        self.value[w] |= value;
    }

    #[inline]
    fn require_flags(&mut self, flags: u64) {
        self.require(W_FLAGS, flags, flags);
    }

    /// Demand an Ethernet source address.
    pub fn require_src_mac(&mut self, m: MacAddr) {
        self.require_flags(flag::HAS_ETH);
        self.require(W_SRC, MAC_MASK, mac_bits(m));
    }

    /// Demand an Ethernet destination address.
    pub fn require_dst_mac(&mut self, m: MacAddr) {
        self.require_flags(flag::HAS_ETH);
        self.require(W_DST, MAC_MASK, mac_bits(m));
    }

    /// Demand an effective EtherType (the inner type when VLAN-tagged).
    pub fn require_ethertype(&mut self, t: u16) {
        self.require_flags(flag::HAS_ETH);
        self.require(
            W_SRC,
            0xFFFF << ETHERTYPE_SHIFT,
            (t as u64) << ETHERTYPE_SHIFT,
        );
    }

    /// Demand an 802.1Q tag carrying `vid`.
    pub fn require_vlan(&mut self, vid: u16) {
        self.require_flags(flag::HAS_VLAN);
        self.require(W_DST, 0xFFFF << VID_SHIFT, (vid as u64) << VID_SHIFT);
    }

    /// Demand the *absence* of an 802.1Q tag (OpenFlow's
    /// `OFP_VLAN_NONE`) — something [`WildcardRule`] cannot express.
    pub fn forbid_vlan(&mut self) {
        self.require(W_FLAGS, flag::HAS_VLAN, 0);
    }

    /// Demand an IP protocol / next-header value (implies the frame is
    /// IP).
    pub fn require_ip_protocol(&mut self, proto: u8) {
        self.require_flags(flag::HAS_IP);
        self.require(W_L4, 0xFF << PROTO_SHIFT, (proto as u64) << PROTO_SHIFT);
    }

    /// Demand a transport source port.
    pub fn require_src_port(&mut self, port: u16) {
        self.require_flags(flag::HAS_L4);
        self.require(W_L4, 0xFFFF, port as u64);
    }

    /// Demand a transport destination port.
    pub fn require_dst_port(&mut self, port: u16) {
        self.require_flags(flag::HAS_L4);
        self.require(W_L4, 0xFFFF << DPORT_SHIFT, (port as u64) << DPORT_SHIFT);
    }

    /// Demand a source address inside `prefix` (implies the matching
    /// address family). A zero-length prefix keeps only the family
    /// requirement — exactly
    /// [`crate::wildcard::IpPrefix::contains`]'s behaviour.
    pub fn require_src_ip(&mut self, prefix: crate::wildcard::IpPrefix) {
        self.require_prefix(prefix, W_SIP_HI, W_SIP_LO);
    }

    /// Demand a destination address inside `prefix`.
    pub fn require_dst_ip(&mut self, prefix: crate::wildcard::IpPrefix) {
        self.require_prefix(prefix, W_DIP_HI, W_DIP_LO);
    }

    fn require_prefix(&mut self, prefix: crate::wildcard::IpPrefix, w_hi: usize, w_lo: usize) {
        match prefix.addr {
            IpAddr::V4(base) => {
                self.require_flags(flag::IS_V4);
                let plen = prefix.prefix_len.min(32) as u32;
                if plen > 0 {
                    let m = (!0u32) << (32 - plen);
                    self.require(w_lo, m as u64, (u32::from(base) & m) as u64);
                }
            }
            IpAddr::V6(base) => {
                self.require_flags(flag::IS_V6);
                let plen = prefix.prefix_len.min(128) as u32;
                if plen > 0 {
                    let m = (!0u128) << (128 - plen);
                    let v = u128::from(base) & m;
                    self.require(w_hi, (m >> 64) as u64, (v >> 64) as u64);
                    self.require(w_lo, m as u64, v as u64);
                }
            }
        }
    }

    /// The mask words — which key bits the match constrains. Two
    /// `KeyMatch`es with equal masks differ only in value: the
    /// "tuple" of tuple-space search.
    #[inline]
    pub fn mask_words(&self) -> &[u64; KEY_WORDS] {
        &self.mask
    }

    /// The value words. Invariant (kept by [`KeyMatch::require`]):
    /// `value & !mask == 0`, so for a key `k`, `matches(k)` ⇔
    /// `k.masked(mask) == value` — the identity that lets a hash table
    /// keyed on masked keys answer wildcard lookups exactly.
    #[inline]
    pub fn value_words(&self) -> &[u64; KEY_WORDS] {
        &self.value
    }

    /// Whether `key` satisfies every requirement: eight masked compares.
    #[inline]
    pub fn matches(&self, key: &FlowKey) -> bool {
        let mut diff = 0u64;
        for i in 0..KEY_WORDS {
            diff |= (key.words[i] & self.mask[i]) ^ self.value[i];
        }
        diff == 0
    }
}

/// A [`WildcardRule`] lowered to value/mask words over a [`FlowKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledRule {
    km: KeyMatch,
}

impl CompiledRule {
    /// Lower `rule`. Exact: matches the same packets as
    /// [`WildcardRule::matches`].
    pub fn compile(rule: &WildcardRule) -> CompiledRule {
        let mut km = KeyMatch::new();
        if let Some(m) = rule.src_mac {
            km.require_src_mac(m);
        }
        if let Some(m) = rule.dst_mac {
            km.require_dst_mac(m);
        }
        if let Some(t) = rule.ethertype {
            km.require_ethertype(t);
        }
        if let Some(vid) = rule.vlan {
            km.require_vlan(vid);
        }
        if let Some(prefix) = rule.src_ip {
            km.require_src_ip(prefix);
        }
        if let Some(prefix) = rule.dst_ip {
            km.require_dst_ip(prefix);
        }
        if let Some(proto) = rule.ip_protocol {
            km.require_ip_protocol(proto);
        }
        if let Some(port) = rule.src_port {
            km.require_src_port(port);
        }
        if let Some(port) = rule.dst_port {
            km.require_dst_port(port);
        }
        CompiledRule { km }
    }

    /// Whether `key` satisfies every named field: eight masked compares.
    #[inline]
    pub fn matches(&self, key: &FlowKey) -> bool {
        self.km.matches(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ethernet::EthernetHeader;
    use crate::ipv4::protocol;
    use crate::wildcard::IpPrefix;
    use crate::Packet;
    use core::net::{Ipv4Addr, Ipv6Addr};

    /// A shape-diverse frame corpus: every layer combination the parser
    /// can produce.
    fn corpus() -> Vec<Packet> {
        let v4 = |s: u8, sp: u16, dp: u16| {
            PacketBuilder::ethernet(MacAddr::local(s), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, s), Ipv4Addr::new(192, 168, 1, 2))
                .udp(sp, dp)
                .build()
        };
        let mut frames = vec![
            v4(1, 5000, 9000),
            v4(1, 0, 0),
            v4(7, 53, 53),
            PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
                .vlan(42)
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                .udp(1, 2)
                .build(),
            PacketBuilder::ethernet(MacAddr::local(3), MacAddr::local(4))
                .ipv6(
                    Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
                    Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
                )
                .udp(5000, 9000)
                .build(),
            // A zeroed frame: MACs 00:…:00, EtherType 0 — the aliasing
            // trap presence flags exist to defuse.
            Packet::zeroed(64),
        ];
        // Non-IP ethertype, and a truncated-at-IP frame (ports zeroed).
        let mut raw = Vec::new();
        EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::local(9),
            ethertype: 0x88B5,
        }
        .write_to(&mut raw);
        raw.extend_from_slice(&[0u8; 50]);
        frames.push(Packet::from_vec(raw));
        frames.push(Packet::from_vec(vec![0u8; 5]));
        frames
    }

    fn rules() -> Vec<WildcardRule> {
        let any = WildcardRule::any;
        vec![
            any(),
            any().with_src_mac(MacAddr::local(1)),
            any().with_src_mac(MacAddr([0; 6])),
            any().with_dst_mac(MacAddr::local(2)),
            any().with_ethertype(crate::ethernet::ethertype::IPV4),
            any().with_ethertype(0),
            any().with_vlan(42),
            any().with_vlan(0),
            any().with_src_ip(IpPrefix::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)), 24)),
            any().with_src_ip(IpPrefix::new(IpAddr::V4(Ipv4Addr::UNSPECIFIED), 0)),
            any().with_src_ip(IpPrefix::host(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)))),
            any().with_dst_ip(IpPrefix::new(IpAddr::V4(Ipv4Addr::new(192, 168, 0, 0)), 16)),
            any().with_src_ip(IpPrefix::new(
                IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0)),
                32,
            )),
            any().with_src_ip(IpPrefix::new(IpAddr::V6(Ipv6Addr::UNSPECIFIED), 0)),
            any().with_ip_protocol(protocol::UDP),
            any().with_ip_protocol(0),
            any().with_src_port(5000),
            any().with_dst_port(9000),
            any().with_src_port(0),
            any().with_dst_port(0),
            any()
                .with_src_mac(MacAddr::local(1))
                .with_ethertype(crate::ethernet::ethertype::IPV4)
                .with_src_ip(IpPrefix::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)), 8))
                .with_ip_protocol(protocol::UDP)
                .with_dst_port(9000),
        ]
    }

    #[test]
    fn compiled_rules_match_exactly_like_interpreted() {
        for rule in rules() {
            let compiled = CompiledRule::compile(&rule);
            for frame in corpus() {
                let parsed = frame.parse();
                let key = FlowKey::extract(&parsed);
                assert_eq!(FlowKey::of_bytes(frame.data()), key);
                assert_eq!(
                    compiled.matches(&key),
                    rule.matches(&parsed),
                    "divergence: rule {rule:?} on frame {:02x?}",
                    frame.data()
                );
            }
        }
    }

    #[test]
    fn presence_flags_defuse_zero_field_aliasing() {
        // A 5-byte runt parses to nothing; its key is all-zero words.
        // Rules naming zero-valued fields must still miss it.
        let key = FlowKey::of_bytes(&[0u8; 5]);
        assert_eq!(key.words, [0u64; KEY_WORDS]);
        for rule in [
            WildcardRule::any().with_src_mac(MacAddr([0; 6])),
            WildcardRule::any().with_ethertype(0),
            WildcardRule::any().with_vlan(0),
            WildcardRule::any().with_ip_protocol(0),
            WildcardRule::any().with_dst_port(0),
        ] {
            assert!(!CompiledRule::compile(&rule).matches(&key));
        }
        // The all-wildcard rule still matches everything.
        assert!(CompiledRule::compile(&WildcardRule::any()).matches(&key));
    }

    #[test]
    fn masked_key_equality_is_exactly_matching() {
        // The tuple-space identity: for every rule and frame,
        // `km.matches(key)` ⇔ `key.masked(km.mask) == km.value`.
        for rule in rules() {
            let km = CompiledRule::compile(&rule).km;
            for frame in corpus() {
                let key = FlowKey::extract(&frame.parse());
                assert_eq!(
                    km.matches(&key),
                    &key.masked(km.mask_words()) == km.value_words(),
                    "identity broke: rule {rule:?} frame {:02x?}",
                    frame.data()
                );
            }
        }
    }

    #[test]
    fn one_extraction_serves_many_rules() {
        let frame = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(5000, 9000)
            .build();
        let key = FlowKey::extract(&frame.parse());
        assert!(CompiledRule::compile(&WildcardRule::any().with_dst_port(9000)).matches(&key));
        assert!(!CompiledRule::compile(&WildcardRule::any().with_dst_port(9001)).matches(&key));
        assert!(
            CompiledRule::compile(&WildcardRule::any().with_ip_protocol(protocol::UDP))
                .matches(&key)
        );
    }
}
