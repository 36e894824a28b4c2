//! The wildcard filter table of the monitoring datapath.
//!
//! Rules are evaluated in order; the first match decides whether the
//! packet is captured (forwarded toward the host) or dropped. An empty
//! table captures everything — the hardware's reset behaviour.

use osnt_packet::{CompiledRule, FlowKey, ParsedPacket, WildcardRule};

/// What a matching rule does with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Forward toward the host capture path.
    Capture,
    /// Discard in hardware.
    Drop,
}

/// One filter entry.
#[derive(Debug, Clone)]
pub struct FilterEntry {
    /// The match.
    pub rule: WildcardRule,
    /// The action on match.
    pub action: FilterAction,
    /// Packets that matched this entry.
    pub hits: u64,
}

/// An ordered filter table with a default action.
#[derive(Debug, Clone)]
pub struct FilterTable {
    entries: Vec<FilterEntry>,
    /// Action when no rule matches. Defaults to `Capture` (hardware
    /// reset state: capture everything).
    pub default_action: FilterAction,
    /// Packets that fell through to the default action.
    pub default_hits: u64,
}

impl FilterTable {
    /// An empty, capture-everything table.
    pub fn capture_all() -> Self {
        FilterTable {
            entries: Vec::new(),
            default_action: FilterAction::Capture,
            default_hits: 0,
        }
    }

    /// An empty table that drops unmatched packets — the usual shape for
    /// targeted capture: add `Capture` rules for the traffic of interest.
    pub fn drop_by_default() -> Self {
        FilterTable {
            entries: Vec::new(),
            default_action: FilterAction::Drop,
            default_hits: 0,
        }
    }

    /// Append a rule.
    pub fn push(&mut self, rule: WildcardRule, action: FilterAction) {
        self.entries.push(FilterEntry {
            rule,
            action,
            hits: 0,
        });
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries (to read hit counters).
    pub fn entries(&self) -> &[FilterEntry] {
        &self.entries
    }

    /// Classify a parsed packet, updating hit counters.
    pub fn classify(&mut self, packet: &ParsedPacket<'_>) -> FilterAction {
        for e in &mut self.entries {
            if e.rule.matches(packet) {
                e.hits += 1;
                return e.action;
            }
        }
        self.default_hits += 1;
        self.default_action
    }

    /// Lower the current rule list into a [`FilterProgram`] — a snapshot
    /// of the *rules and order* at compile time. Rules pushed afterwards
    /// are invisible to the program until it is recompiled; the default
    /// action and all hit counters stay live in the table, so flipping
    /// [`FilterTable::default_action`] mid-run takes effect immediately
    /// and counters accumulate seamlessly across any number of
    /// `compile()` calls.
    pub fn compile(&self) -> FilterProgram {
        FilterProgram {
            rules: self
                .entries
                .iter()
                .map(|e| (CompiledRule::compile(&e.rule), e.action))
                .collect(),
        }
    }

    /// Classify a pre-extracted flow key against a compiled `program`,
    /// updating this table's hit counters — same first-match-wins
    /// semantics and same counter updates as [`FilterTable::classify`],
    /// minus the per-rule `Option` walk. `program` must have been
    /// compiled from this table (rules are only ever appended, so an
    /// older program's indices remain valid).
    #[inline]
    pub fn classify_compiled(&mut self, program: &FilterProgram, key: &FlowKey) -> FilterAction {
        match program.matches(key) {
            Some((i, action)) => {
                debug_assert!(i < self.entries.len(), "program from a different table");
                self.entries[i].hits += 1;
                action
            }
            None => {
                self.default_hits += 1;
                self.default_action
            }
        }
    }
}

/// A [`FilterTable`]'s rule list lowered to masked-word compares over a
/// [`FlowKey`] — the compiled half of the fast classification path.
/// Holds no counters and no default action: those stay canonical in the
/// table (see [`FilterTable::classify_compiled`]).
#[derive(Debug, Clone, Default)]
pub struct FilterProgram {
    rules: Vec<(CompiledRule, FilterAction)>,
}

impl FilterProgram {
    /// First-match lookup: the index and action of the first rule `key`
    /// satisfies, or `None` for a default-action fall-through.
    #[inline]
    pub fn matches(&self, key: &FlowKey) -> Option<(usize, FilterAction)> {
        self.rules
            .iter()
            .position(|(r, _)| r.matches(key))
            .map(|i| (i, self.rules[i].1))
    }

    /// Number of compiled rules (the table's length at compile time).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the program holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_packet::wildcard::IpPrefix;
    use osnt_packet::{MacAddr, PacketBuilder};
    use std::net::{IpAddr, Ipv4Addr};

    fn udp(dst_port: u16) -> osnt_packet::Packet {
        PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1000, dst_port)
            .build()
    }

    #[test]
    fn empty_table_captures_everything() {
        let mut t = FilterTable::capture_all();
        let p = udp(80);
        assert_eq!(t.classify(&p.parse()), FilterAction::Capture);
        assert_eq!(t.default_hits, 1);
    }

    #[test]
    fn first_match_wins() {
        let mut t = FilterTable::capture_all();
        t.push(WildcardRule::any().with_dst_port(80), FilterAction::Drop);
        t.push(WildcardRule::any(), FilterAction::Capture);
        let p80 = udp(80);
        let p81 = udp(81);
        assert_eq!(t.classify(&p80.parse()), FilterAction::Drop);
        assert_eq!(t.classify(&p81.parse()), FilterAction::Capture);
        assert_eq!(t.entries()[0].hits, 1);
        assert_eq!(t.entries()[1].hits, 1);
        assert_eq!(t.default_hits, 0);
    }

    #[test]
    fn drop_by_default_with_capture_rule() {
        let mut t = FilterTable::drop_by_default();
        t.push(
            WildcardRule::any()
                .with_src_ip(IpPrefix::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)), 24)),
            FilterAction::Capture,
        );
        assert_eq!(t.classify(&udp(5).parse()), FilterAction::Capture);
        let other = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(172, 16, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2)
            .build();
        assert_eq!(t.classify(&other.parse()), FilterAction::Drop);
    }

    /// The key the monitor's datapath classifies by.
    fn key(p: &osnt_packet::Packet) -> FlowKey {
        FlowKey::of_bytes(p.data())
    }

    #[test]
    fn compiled_program_matches_like_the_interpreter() {
        let mut interp = FilterTable::drop_by_default();
        interp.push(WildcardRule::any().with_dst_port(80), FilterAction::Drop);
        interp.push(
            WildcardRule::any()
                .with_src_ip(IpPrefix::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)), 24)),
            FilterAction::Capture,
        );
        let mut compiled = interp.clone();
        let program = compiled.compile();
        // At port 81 a frame keyed with its IPv4 header is captured and
        // one keyed without it is dropped by default: a keying slip
        // changes the verdict.
        let mut truncated = udp(81);
        truncated.truncate(14 + 19);
        let mut bad_checksum = udp(81);
        bad_checksum.data_mut()[14 + 10] ^= 0xff;
        let vlan = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .vlan(7)
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1000, 81)
            .build();
        let inputs = [
            ("port 80", udp(80)),
            ("port 81", udp(81)),
            ("port 9001", udp(9001)),
            ("port 0", udp(0)),
            ("truncated IPv4", truncated),
            ("bad IPv4 checksum", bad_checksum),
            ("VLAN-tagged", vlan),
        ];
        for (what, p) in inputs {
            assert_eq!(
                compiled.classify_compiled(&program, &key(&p)),
                interp.classify(&p.parse()),
                "{what}"
            );
        }
        assert_eq!(compiled.entries()[0].hits, interp.entries()[0].hits);
        assert_eq!(compiled.entries()[1].hits, interp.entries()[1].hits);
        assert_eq!(compiled.default_hits, interp.default_hits);
    }

    #[test]
    fn rule_pushed_after_counting_starts_fresh() {
        let mut t = FilterTable::capture_all();
        t.push(WildcardRule::any().with_dst_port(80), FilterAction::Drop);
        let program = t.compile();
        for _ in 0..3 {
            t.classify_compiled(&program, &key(&udp(80)));
        }
        assert_eq!(t.entries()[0].hits, 3);

        // A rule appended mid-run starts at zero and leaves the existing
        // counters intact…
        t.push(WildcardRule::any().with_dst_port(81), FilterAction::Drop);
        assert_eq!(t.entries()[0].hits, 3);
        assert_eq!(t.entries()[1].hits, 0);

        // …and a stale program is an honest snapshot: it cannot see the
        // new rule until recompiled.
        t.classify_compiled(&program, &key(&udp(81)));
        assert_eq!(t.entries()[1].hits, 0, "stale program misses new rule");
        assert_eq!(t.default_hits, 1);
        let fresh = t.compile();
        t.classify_compiled(&fresh, &key(&udp(81)));
        assert_eq!(t.entries()[1].hits, 1);
    }

    #[test]
    fn default_action_flip_mid_run_is_honored() {
        let mut t = FilterTable::drop_by_default();
        let program = t.compile();
        let p = key(&udp(5));
        assert_eq!(t.classify_compiled(&program, &p), FilterAction::Drop);
        // The default action lives in the table, not the program, so a
        // flip takes effect without recompiling.
        t.default_action = FilterAction::Capture;
        assert_eq!(t.classify_compiled(&program, &p), FilterAction::Capture);
        assert_eq!(t.default_hits, 2);
    }

    #[test]
    fn hit_counters_are_stable_across_compile() {
        let mut t = FilterTable::capture_all();
        t.push(WildcardRule::any().with_dst_port(80), FilterAction::Drop);
        t.classify(&udp(80).parse());
        let p1 = t.compile();
        t.classify_compiled(&p1, &key(&udp(80)));
        let p2 = t.compile();
        t.classify_compiled(&p2, &key(&udp(80)));
        // Interpreted and compiled hits accumulate in one counter, and
        // recompiling never resets it.
        assert_eq!(t.entries()[0].hits, 3);
    }
}
