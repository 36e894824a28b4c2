//! Probe traffic for rule-level measurements.

use osnt_gen::Workload;
use osnt_packet::{MacAddr, Packet, PacketBuilder};
use std::net::Ipv4Addr;

/// How many consecutive rule numbers [`rule_ip`] keeps apart.
pub const RULE_IP_PERIOD: usize = 1 << 16;

/// The destination address that exercises rule number `i` in the
/// per-rule modules (one /32 per rule): `10.1.x.y` with `x.y` the low
/// 16 bits of `i + 1`. Rule 0 is `10.1.0.1`, so small rule sets stay
/// clear of `10.1.0.0`; the mapping has period [`RULE_IP_PERIOD`]
/// (`rule_ip(65_535)` *is* `10.1.0.0`, `rule_ip(65_536)` is rule 0's
/// address again), so a module may hold at most that many consecutive
/// rules live at once. Pinned by recorded digests — it cannot widen.
pub fn rule_ip(i: usize) -> Ipv4Addr {
    let v = (i + 1) as u16;
    Ipv4Addr::new(10, 1, (v >> 8) as u8, v as u8)
}

/// A workload that cycles deterministically through the destination
/// addresses of `n_rules` rules, so every rule is probed at a known
/// period. Frames are UDP to port 9001 and long enough to carry the TX
/// timestamp at the default offset.
#[derive(Debug, Clone)]
pub struct RoundRobinDst {
    n_rules: usize,
    frame_len: usize,
    /// Frame `i` of the cycle, built the first time it is asked for and
    /// handed out as clones from then on (the generator's stamp then
    /// copies on write, the one copy a probe frame costs).
    frames: Vec<Option<Packet>>,
}

impl RoundRobinDst {
    /// Probe `n_rules` destinations with `frame_len`-byte frames.
    pub fn new(n_rules: usize, frame_len: usize) -> Self {
        assert!(n_rules > 0);
        assert!(frame_len >= 64);
        RoundRobinDst {
            n_rules,
            frame_len,
            frames: Vec::new(),
        }
    }
}

impl Workload for RoundRobinDst {
    fn next_frame(&mut self, seq: u64) -> Packet {
        let i = (seq as usize) % self.n_rules;
        if self.frames.is_empty() {
            self.frames.resize(self.n_rules, None);
        }
        let frame_len = self.frame_len;
        self.frames[i]
            .get_or_insert_with(|| {
                PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
                    .ipv4(Ipv4Addr::new(10, 0, 0, 1), rule_ip(i))
                    .udp(5001, 9001)
                    .pad_to_frame(frame_len)
                    .build()
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ips_are_distinct_within_one_period_and_wrap_after_it() {
        let mut set = std::collections::HashSet::new();
        for i in 0..RULE_IP_PERIOD {
            assert!(set.insert(rule_ip(i)), "rule {i} aliases an earlier one");
        }
        assert_eq!(rule_ip(0), Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(rule_ip(RULE_IP_PERIOD - 1), Ipv4Addr::new(10, 1, 0, 0));
        for i in [0, 1, 49_999, RULE_IP_PERIOD - 1] {
            assert_eq!(rule_ip(i + RULE_IP_PERIOD), rule_ip(i));
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut w = RoundRobinDst::new(3, 128);
        let ips: Vec<_> = (0..6)
            .map(|s| w.next_frame(s).parse().dst_ip().unwrap())
            .collect();
        assert_eq!(ips[0], ips[3]);
        assert_eq!(ips[1], ips[4]);
        assert_ne!(ips[0], ips[1]);
    }

    #[test]
    fn a_written_frame_leaves_the_next_cycle_clean() {
        // The generator stamps the frame it is handed; the copy-on-write
        // must keep that out of the frame the next cycle gets.
        let mut w = RoundRobinDst::new(2, 128);
        let first = w.next_frame(0);
        let mut stamped = w.next_frame(2);
        stamped.data_mut()[60] ^= 0xff;
        assert_ne!(stamped, first);
        assert_eq!(w.next_frame(4), first);
    }
}
