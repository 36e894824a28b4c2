//! The OpenFlow switch's flow table.
//!
//! Storage is a dense vector with `swap_remove` deletion, indexed by a
//! [`TupleSpace`]: packet lookups probe once per distinct wildcard mask
//! (not per rule) and strict `(match, priority)` flow_mods are single
//! probes of the same narrow index. The rule interpreter
//! ([`FlowTable::lookup_idx`]) is the semantic reference the index must
//! reproduce byte-for-byte, including the priority/specificity/
//! insertion-order tie-break, which installation sequence numbers keep
//! exact even after `swap_remove` disturbs the vector order.

use crate::compiled::CompiledOfMatch;
use crate::tuple_space::{Rank, TupleSpace};
use osnt_openflow::match_field::wildcards;
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_packet::{FlowKey, ParsedPacket};
use osnt_time::SimTime;

/// Returned when an ADD would exceed the table capacity
/// (`OFPET_FLOW_MOD_FAILED` / `ALL_TABLES_FULL` on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl From<TableFull> for osnt_error::OsntError {
    /// Lift the wire-level rejection into the workspace taxonomy: one
    /// more entry was needed and none were available.
    fn from(_: TableFull) -> Self {
        osnt_error::OsntError::Capacity {
            what: "flow table",
            needed: 1,
            available: 0,
        }
    }
}

/// One installed flow entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    /// Match fields.
    pub of_match: OfMatch,
    /// Priority (higher wins among overlapping entries).
    pub priority: u16,
    /// Actions.
    pub actions: ActionList,
    /// Controller cookie.
    pub cookie: u64,
    /// Flow-mod flag bits (bit 0 = send FLOW_REMOVED).
    pub flags: u16,
    /// Idle timeout, seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout, seconds (0 = none).
    pub hard_timeout: u16,
    /// Installation instant.
    pub installed_at: SimTime,
    /// Last instant the entry matched a packet.
    pub last_match: SimTime,
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
}

impl FlowEntry {
    /// A fresh entry installed at `now`.
    pub fn new(
        of_match: OfMatch,
        priority: u16,
        actions: impl Into<ActionList>,
        now: SimTime,
    ) -> Self {
        FlowEntry {
            of_match,
            priority,
            actions: actions.into(),
            cookie: 0,
            flags: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            installed_at: now,
            last_match: now,
            packets: 0,
            bytes: 0,
        }
    }

    /// The entry's tie-break rank: `(priority, specificity)`.
    fn rank(&self) -> Rank {
        (self.priority, self.of_match.specificity())
    }

    /// Whether a timeout can remove the entry: 1 when it has an idle or
    /// a hard timeout, else 0.
    fn timed(&self) -> usize {
        usize::from(self.idle_timeout > 0 || self.hard_timeout > 0)
    }
}

/// Why an entry was removed (OpenFlow 1.0 `ofp_flow_removed_reason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalReason {
    /// Idle timeout elapsed.
    IdleTimeout,
    /// Hard timeout elapsed.
    HardTimeout,
    /// An explicit DELETE.
    Delete,
}

impl RemovalReason {
    /// The wire code.
    pub fn code(self) -> u8 {
        match self {
            RemovalReason::IdleTimeout => 0,
            RemovalReason::HardTimeout => 1,
            RemovalReason::Delete => 2,
        }
    }
}

/// A bounded, priority-ordered flow table.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    /// Installation sequence numbers, parallel to `entries`. The
    /// tie-break authority: equal-rank overlaps resolve to the lowest
    /// seq (earliest install), independent of vector position.
    seqs: Vec<u64>,
    next_seq: u64,
    capacity: usize,
    space: TupleSpace,
    /// Entries with an idle or hard timeout. [`FlowTable::expire`] has
    /// nothing to find while it is 0. Every write that can change an
    /// entry's timeouts goes through `add` or `remove_at`, which keep it;
    /// so no public path hands out `&mut FlowEntry`.
    timed: usize,
}

impl FlowTable {
    /// A table holding at most `capacity` entries (a TCAM budget).
    pub fn new(capacity: usize) -> Self {
        FlowTable {
            capacity,
            ..FlowTable::default()
        }
    }

    /// A table whose index keeps only the top `bits` bits of every hash,
    /// so that unrelated rules share chains.
    #[cfg(test)]
    fn with_index_hash_bits(capacity: usize, bits: u32) -> Self {
        FlowTable {
            space: TupleSpace::with_hash_bits(bits),
            ..Self::new(capacity)
        }
    }

    /// Installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate over entries.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// The units of simulated work a lookup costs: distinct tuples
    /// probed.
    pub fn lookup_cost_units(&self) -> usize {
        self.space.active_tuples()
    }

    /// The entry installed under exactly `(of_match, priority)`.
    fn find_strict(&self, of_match: &OfMatch, priority: u16) -> Option<usize> {
        let compiled = CompiledOfMatch::compile(of_match);
        self.space
            .find(self.space.locate(&compiled), &compiled, priority, |i| {
                self.entries[i].of_match == *of_match
            })
    }

    /// ADD semantics: identical (match, priority) replaces in place;
    /// otherwise append, failing when full.
    pub fn add(&mut self, entry: FlowEntry) -> Result<(), TableFull> {
        // A replaced entry keeps its rank, seq and compiled form, so the
        // index stays valid. The probe that looks for it is the probe
        // that indexes the newcomer.
        let compiled = CompiledOfMatch::compile(&entry.of_match);
        let slot = self.space.locate(&compiled);
        let entries = &self.entries;
        let replaced = self.space.find(slot, &compiled, entry.priority, |i| {
            entries[i].of_match == entry.of_match
        });
        match replaced {
            Some(i) => {
                self.timed = self.timed - self.entries[i].timed() + entry.timed();
                self.entries[i] = entry;
            }
            None => {
                if self.entries.len() >= self.capacity {
                    return Err(TableFull);
                }
                self.space
                    .insert(slot, self.next_seq, entry.rank(), &compiled);
                self.timed += entry.timed();
                self.entries.push(entry);
                self.seqs.push(self.next_seq);
                self.next_seq += 1;
            }
        }
        Ok(())
    }

    /// Remove the entry at `idx` (`swap_remove`: the tail entry slides
    /// into the hole) and move the index with it — O(1) in table size.
    fn remove_at(&mut self, idx: usize) -> FlowEntry {
        let gone = self.entries.swap_remove(idx);
        self.seqs.swap_remove(idx);
        self.space.remove(idx as u32);
        self.timed -= gone.timed();
        gone
    }

    /// Best-match lookup for a frame arriving on `in_port`. Ties on
    /// priority break toward more exact-match bits, then earlier
    /// installation — deterministic, like a TCAM's fixed row order.
    pub fn lookup(&self, in_port: u16, packet: &ParsedPacket<'_>) -> Option<&FlowEntry> {
        self.lookup_idx(in_port, packet).map(|i| &self.entries[i])
    }

    /// Index form of [`FlowTable::lookup`], for callers that need to
    /// release the borrow between lookup and accounting. This is the
    /// interpreter — the semantic reference the index must reproduce
    /// byte-for-byte.
    pub fn lookup_idx(&self, in_port: u16, packet: &ParsedPacket<'_>) -> Option<usize> {
        let mut best: Option<(Rank, u64, usize)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.of_match.matches(in_port, packet) {
                continue;
            }
            let (rank, seq) = (e.rank(), self.seqs[i]);
            let wins = match &best {
                None => true,
                Some((br, bs, _)) => rank > *br || (rank == *br && seq < *bs),
            };
            if wins {
                best = Some((rank, seq, i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// The entry at an index returned by [`FlowTable::lookup_idx`] or
    /// [`FlowTable::lookup_key_idx`].
    /// Indices are invalidated by any table mutation. The caller must
    /// leave the entry's timeouts as they are.
    pub(crate) fn entry_mut(&mut self, idx: usize) -> &mut FlowEntry {
        &mut self.entries[idx]
    }

    /// [`FlowTable::lookup_idx`] over a pre-extracted [`FlowKey`]
    /// through the tuple-space index. Same result, same tie-break;
    /// O(masks) probes instead of O(rules) interpretation.
    pub fn lookup_key_idx(&mut self, in_port: u16, key: &FlowKey) -> Option<usize> {
        self.space.lookup(in_port, key)
    }

    /// Record that a frame of `frame_bytes` matched the entry at `idx`
    /// (updates counters and idle state). `idx` comes from
    /// [`FlowTable::lookup_idx`] or [`FlowTable::lookup_key_idx`].
    pub fn account(&mut self, idx: usize, now: SimTime, frame_bytes: usize) {
        let entry = &mut self.entries[idx];
        entry.packets += 1;
        entry.bytes += frame_bytes as u64;
        entry.last_match = now;
    }

    /// MODIFY semantics: replace the actions of covered entries
    /// (strict: exact match + priority, resolved by one hash probe).
    /// Returns how many entries changed; OpenFlow adds a new entry when
    /// none matched — the caller handles that case. Actions don't
    /// participate in classification, so the index is not touched.
    pub fn modify(
        &mut self,
        of_match: &OfMatch,
        priority: u16,
        strict: bool,
        actions: &[Action],
    ) -> usize {
        if strict {
            return match self.find_strict(of_match, priority) {
                Some(i) => {
                    self.entries[i].actions = actions.into();
                    1
                }
                None => 0,
            };
        }
        let mut n = 0;
        for e in &mut self.entries {
            if covers(of_match, &e.of_match) {
                e.actions = actions.into();
                n += 1;
            }
        }
        n
    }

    /// Strict DELETE: remove and return the entry installed under
    /// exactly `(of_match, priority)`. One index probe, nothing scanned.
    pub fn delete_strict(&mut self, of_match: &OfMatch, priority: u16) -> Option<FlowEntry> {
        let i = self.find_strict(of_match, priority)?;
        Some(self.remove_at(i))
    }

    /// DELETE semantics. Returns the removed entries in table-scan
    /// order. Strict deletes are [`FlowTable::delete_strict`]; non-strict
    /// deletes scan for covering (inherently a wildcard-containment
    /// question).
    pub fn delete(&mut self, of_match: &OfMatch, priority: u16, strict: bool) -> Vec<FlowEntry> {
        if strict {
            return self.delete_strict(of_match, priority).into_iter().collect();
        }
        let hits: Vec<usize> = (0..self.entries.len())
            .filter(|&i| covers(of_match, &self.entries[i].of_match))
            .collect();
        self.remove_all(&hits)
    }

    /// Remove the entries at ascending positions `hits`, reporting them
    /// in that order. Removal walks the positions *descending* so each
    /// `swap_remove` only ever moves a non-victim tail entry.
    fn remove_all(&mut self, hits: &[usize]) -> Vec<FlowEntry> {
        let mut out: Vec<FlowEntry> = hits.iter().rev().map(|&i| self.remove_at(i)).collect();
        out.reverse();
        out
    }

    /// Remove entries whose idle or hard timeout has elapsed at `now`.
    /// Scans the table only when some entry has a timeout.
    pub fn expire(&mut self, now: SimTime) -> Vec<(FlowEntry, RemovalReason)> {
        debug_assert_eq!(
            self.timed,
            self.entries.iter().map(FlowEntry::timed).sum::<usize>(),
            "the count of entries with a timeout drifted"
        );
        if self.timed == 0 {
            return Vec::new();
        }
        let mut hits: Vec<(usize, RemovalReason)> = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if e.hard_timeout > 0 {
                let deadline =
                    e.installed_at + osnt_time::SimDuration::from_secs(e.hard_timeout as u64);
                if now >= deadline {
                    hits.push((i, RemovalReason::HardTimeout));
                    continue;
                }
            }
            if e.idle_timeout > 0 {
                let deadline =
                    e.last_match + osnt_time::SimDuration::from_secs(e.idle_timeout as u64);
                if now >= deadline {
                    hits.push((i, RemovalReason::IdleTimeout));
                }
            }
        }
        let mut out: Vec<(FlowEntry, RemovalReason)> = hits
            .iter()
            .rev()
            .map(|&(i, reason)| (self.remove_at(i), reason))
            .collect();
        out.reverse();
        out
    }
}

/// Whether wildcard description `filter` covers `entry` (every packet the
/// entry can match is also matched by the filter) — the OpenFlow 1.0
/// non-strict MODIFY/DELETE rule.
pub fn covers(filter: &OfMatch, entry: &OfMatch) -> bool {
    // For each exact-match bit in the filter, the entry must also be
    // exact with the same value.
    type FieldGet = fn(&OfMatch) -> u64;
    let exact_bits: [(u32, FieldGet); 6] = [
        (wildcards::IN_PORT, |m| m.in_port as u64),
        (wildcards::DL_VLAN, |m| m.dl_vlan as u64),
        (wildcards::DL_TYPE, |m| m.dl_type as u64),
        (wildcards::NW_PROTO, |m| m.nw_proto as u64),
        (wildcards::TP_SRC, |m| m.tp_src as u64),
        (wildcards::TP_DST, |m| m.tp_dst as u64),
    ];
    for (bit, get) in exact_bits {
        let filter_exact = filter.wildcards & bit == 0;
        let entry_exact = entry.wildcards & bit == 0;
        if filter_exact && (!entry_exact || get(filter) != get(entry)) {
            return false;
        }
    }
    if filter.wildcards & wildcards::DL_SRC == 0
        && (entry.wildcards & wildcards::DL_SRC != 0 || filter.dl_src != entry.dl_src)
    {
        return false;
    }
    if filter.wildcards & wildcards::DL_DST == 0
        && (entry.wildcards & wildcards::DL_DST != 0 || filter.dl_dst != entry.dl_dst)
    {
        return false;
    }
    // IP prefixes: the filter prefix must contain the entry prefix.
    let prefix_covers = |f_addr: u32, f_shift: u32, e_addr: u32, e_shift: u32| {
        if f_shift >= 32 {
            return true; // filter fully wildcards the address
        }
        if e_shift > f_shift {
            return false; // entry is less specific than the filter
        }
        (f_addr ^ e_addr) >> f_shift == 0
    };
    let f_src_shift = (filter.wildcards >> wildcards::NW_SRC_SHIFT) & 0x3f;
    let e_src_shift = (entry.wildcards >> wildcards::NW_SRC_SHIFT) & 0x3f;
    if !prefix_covers(
        u32::from(filter.nw_src),
        f_src_shift,
        u32::from(entry.nw_src),
        e_src_shift,
    ) {
        return false;
    }
    let f_dst_shift = (filter.wildcards >> wildcards::NW_DST_SHIFT) & 0x3f;
    let e_dst_shift = (entry.wildcards >> wildcards::NW_DST_SHIFT) & 0x3f;
    prefix_covers(
        u32::from(filter.nw_dst),
        f_dst_shift,
        u32::from(entry.nw_dst),
        e_dst_shift,
    )
}

// Panic audit: every `unwrap()` below is test-only. The production API
// is fully `Result`/`Option`-typed — `add` returns `Err(TableFull)` (and
// lifts into `OsntError::Capacity` via `From`), `lookup` returns
// `Option` — so the unwraps assert *test fixtures* (tables sized to fit
// their inserts, lookups of entries the test just installed), never
// runtime input.
#[cfg(test)]
mod tests {
    use super::*;
    use osnt_openflow::actions::Action;
    use osnt_packet::{MacAddr, PacketBuilder};
    use std::net::Ipv4Addr;

    fn udp_frame(dst_ip: Ipv4Addr, dst_port: u16) -> osnt_packet::Packet {
        PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), dst_ip)
            .udp(1000, dst_port)
            .build()
    }

    fn out(port: u16) -> ActionList {
        ActionList::one(Action::Output { port, max_len: 0 })
    }

    #[test]
    fn add_and_lookup() {
        let mut t = FlowTable::new(10);
        t.add(FlowEntry::new(
            OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 0, 1)),
            10,
            out(2),
            SimTime::ZERO,
        ))
        .unwrap();
        let hit = udp_frame(Ipv4Addr::new(10, 1, 0, 1), 5);
        let miss = udp_frame(Ipv4Addr::new(10, 1, 0, 2), 5);
        assert!(t.lookup(0, &hit.parse()).is_some());
        assert!(t.lookup(0, &miss.parse()).is_none());
    }

    #[test]
    fn higher_priority_wins() {
        let mut t = FlowTable::new(10);
        t.add(FlowEntry::new(OfMatch::any(), 1, out(1), SimTime::ZERO))
            .unwrap();
        t.add(FlowEntry::new(
            OfMatch::udp_dst_port(9001),
            100,
            out(2),
            SimTime::ZERO,
        ))
        .unwrap();
        let pkt = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 9001);
        let e = t.lookup(0, &pkt.parse()).unwrap();
        assert_eq!(e.actions, out(2));
        let other = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 80);
        let e = t.lookup(0, &other.parse()).unwrap();
        assert_eq!(e.actions, out(1));
    }

    #[test]
    fn equal_priority_breaks_by_specificity() {
        let mut t = FlowTable::new(10);
        t.add(FlowEntry::new(OfMatch::any(), 5, out(1), SimTime::ZERO))
            .unwrap();
        t.add(FlowEntry::new(
            OfMatch::udp_dst_port(9001),
            5,
            out(2),
            SimTime::ZERO,
        ))
        .unwrap();
        let pkt = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 9001);
        assert_eq!(t.lookup(0, &pkt.parse()).unwrap().actions, out(2));
    }

    #[test]
    fn capacity_is_enforced_and_replace_is_free() {
        let mut t = FlowTable::new(2);
        let m1 = OfMatch::udp_dst_port(1);
        t.add(FlowEntry::new(m1, 1, out(1), SimTime::ZERO)).unwrap();
        t.add(FlowEntry::new(
            OfMatch::udp_dst_port(2),
            1,
            out(1),
            SimTime::ZERO,
        ))
        .unwrap();
        assert_eq!(
            t.add(FlowEntry::new(
                OfMatch::udp_dst_port(3),
                1,
                out(1),
                SimTime::ZERO
            )),
            Err(TableFull)
        );
        // Same (match, priority) replaces without needing space.
        t.add(FlowEntry::new(m1, 1, out(9), SimTime::ZERO)).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn table_full_lifts_into_the_workspace_taxonomy() {
        let e: osnt_error::OsntError = TableFull.into();
        assert!(matches!(e, osnt_error::OsntError::Capacity { .. }));
        assert!(e.to_string().contains("flow table full"));
    }

    #[test]
    fn strict_delete_removes_only_exact() {
        let mut t = FlowTable::new(10);
        t.add(FlowEntry::new(
            OfMatch::udp_dst_port(1),
            5,
            out(1),
            SimTime::ZERO,
        ))
        .unwrap();
        t.add(FlowEntry::new(
            OfMatch::udp_dst_port(1),
            9,
            out(1),
            SimTime::ZERO,
        ))
        .unwrap();
        let removed = t.delete(&OfMatch::udp_dst_port(1), 5, true);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].priority, 5);
        assert_eq!(t.len(), 1);
        // The survivor stays findable through every path.
        let pkt = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 1);
        assert_eq!(t.lookup(0, &pkt.parse()).unwrap().priority, 9);
        assert!(t.delete(&OfMatch::udp_dst_port(1), 5, true).is_empty());
    }

    #[test]
    fn nonstrict_delete_uses_covering() {
        let mut t = FlowTable::new(10);
        for port in 1..=5 {
            t.add(FlowEntry::new(
                OfMatch::udp_dst_port(port),
                5,
                out(1),
                SimTime::ZERO,
            ))
            .unwrap();
        }
        // Delete-all (any covers everything), reported in scan order.
        let removed = t.delete(&OfMatch::any(), 0, false);
        assert_eq!(removed.len(), 5);
        let ports: Vec<u16> = removed.iter().map(|e| e.of_match.tp_dst).collect();
        assert_eq!(ports, vec![1, 2, 3, 4, 5]);
        assert!(t.is_empty());
    }

    #[test]
    fn covering_respects_fields_and_prefixes() {
        let any = OfMatch::any();
        let port = OfMatch::udp_dst_port(80);
        assert!(covers(&any, &port));
        assert!(!covers(&port, &any));
        assert!(covers(&port, &port));

        let mut wide = OfMatch::any();
        wide.dl_type = 0x0800;
        wide.wildcards &= !wildcards::DL_TYPE;
        wide.nw_dst = Ipv4Addr::new(10, 0, 0, 0);
        wide.set_nw_dst_prefix(8);
        let narrow = OfMatch::ipv4_dst(Ipv4Addr::new(10, 3, 4, 5));
        assert!(covers(&wide, &narrow));
        assert!(!covers(&narrow, &wide));
        let outside = OfMatch::ipv4_dst(Ipv4Addr::new(11, 0, 0, 1));
        assert!(!covers(&wide, &outside));
    }

    #[test]
    fn modify_replaces_actions() {
        let mut t = FlowTable::new(10);
        t.add(FlowEntry::new(
            OfMatch::udp_dst_port(1),
            5,
            out(1),
            SimTime::ZERO,
        ))
        .unwrap();
        let n = t.modify(&OfMatch::udp_dst_port(1), 5, true, &out(7));
        assert_eq!(n, 1);
        let pkt = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 1);
        assert_eq!(t.lookup(0, &pkt.parse()).unwrap().actions, out(7));
        // Strict modify of an absent pair changes nothing.
        assert_eq!(t.modify(&OfMatch::udp_dst_port(1), 6, true, &out(8)), 0);
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new(10);
        let mut e = FlowEntry::new(OfMatch::any(), 1, out(1), SimTime::ZERO);
        e.hard_timeout = 2;
        t.add(e).unwrap();
        assert!(t.expire(SimTime::from_secs(1)).is_empty());
        let gone = t.expire(SimTime::from_secs(2));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].1, RemovalReason::HardTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_match() {
        let mut t = FlowTable::new(10);
        let mut e = FlowEntry::new(OfMatch::any(), 1, out(1), SimTime::ZERO);
        e.idle_timeout = 2;
        t.add(e).unwrap();
        // A match at t=1.5s pushes the idle deadline to 3.5s.
        let pkt = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 1);
        let i = t.lookup_idx(0, &pkt.parse()).unwrap();
        t.account(i, SimTime::from_ms(1500), 64);
        assert!(t.expire(SimTime::from_secs(3)).is_empty());
        let gone = t.expire(SimTime::from_ms(3600));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].1, RemovalReason::IdleTimeout);
    }

    #[test]
    fn index_lookup_matches_interpreted_including_ties() {
        use osnt_packet::FlowKey;
        let mut t = FlowTable::new(32);
        // Overlapping entries: wildcards, port matches, prefixes, an
        // exact-priority tie (two distinct matches, same priority and
        // specificity, both hitting port-9001 frames to 10.0.0.0/8 —
        // earliest row must win), and an in_port-constrained row.
        t.add(FlowEntry::new(OfMatch::any(), 1, out(1), SimTime::ZERO))
            .unwrap();
        t.add(FlowEntry::new(
            OfMatch::udp_dst_port(9001),
            5,
            out(2),
            SimTime::ZERO,
        ))
        .unwrap();
        let mut src8 = OfMatch::any();
        src8.nw_src = Ipv4Addr::new(10, 0, 0, 0);
        src8.set_nw_src_prefix(8);
        t.add(FlowEntry::new(src8, 5, out(3), SimTime::ZERO))
            .unwrap();
        let mut dst8 = OfMatch::any();
        dst8.nw_dst = Ipv4Addr::new(10, 0, 0, 0);
        dst8.set_nw_dst_prefix(8);
        t.add(FlowEntry::new(dst8, 5, out(4), SimTime::ZERO))
            .unwrap();
        let mut inport = OfMatch::any();
        inport.in_port = 2;
        inport.wildcards &= !wildcards::IN_PORT;
        t.add(FlowEntry::new(inport, 7, out(5), SimTime::ZERO))
            .unwrap();

        let frames: Vec<osnt_packet::Packet> = vec![
            udp_frame(Ipv4Addr::new(10, 1, 0, 1), 9001),
            udp_frame(Ipv4Addr::new(10, 1, 0, 1), 80),
            udp_frame(Ipv4Addr::new(192, 168, 0, 1), 9001),
            udp_frame(Ipv4Addr::new(192, 168, 0, 1), 80),
            PacketBuilder::ethernet(MacAddr::local(1), MacAddr::BROADCAST)
                .raw_ethertype(0x0806)
                .payload(&[0u8; 46])
                .build(),
        ];
        for in_port in [1u16, 2, 3] {
            for frame in &frames {
                let parsed = frame.parse();
                let key = FlowKey::extract(&parsed);
                let interp = t.lookup_idx(in_port, &parsed);
                assert_eq!(t.lookup_key_idx(in_port, &key), interp);
            }
        }
    }

    #[test]
    fn swap_remove_keeps_seq_tie_break_and_indices_coherent() {
        // Install three equal-rank overlapping entries, delete the
        // first: the vector reorders (tail slides into slot 0) but the
        // tie-break must still pick the *earliest surviving install*,
        // on every lookup path.
        let mut t = FlowTable::new(8);
        // Three overlapping matches of strictly increasing
        // specificity at one priority.
        let mut m1 = OfMatch::any();
        m1.tp_src = 1000;
        m1.wildcards &= !wildcards::TP_SRC;
        let mut m2 = m1;
        m2.dl_type = 0x0800;
        m2.wildcards &= !wildcards::DL_TYPE;
        let mut m3 = m2;
        m3.nw_proto = 17;
        m3.wildcards &= !wildcards::NW_PROTO;
        t.add(FlowEntry::new(m1, 5, out(1), SimTime::ZERO)).unwrap();
        t.add(FlowEntry::new(m2, 5, out(2), SimTime::ZERO)).unwrap();
        t.add(FlowEntry::new(m3, 5, out(3), SimTime::ZERO)).unwrap();
        let pkt = udp_frame(Ipv4Addr::new(9, 9, 9, 9), 7);
        // m3 is most specific → wins; delete it, m2 wins; delete
        // m2 (slot churn from swap_remove), m1 wins.
        let parsed = pkt.parse();
        let key = osnt_packet::FlowKey::extract(&parsed);
        for (victim, expect_port) in [(None, 3u16), (Some(m3), 2), (Some(m2), 1)] {
            if let Some(v) = victim {
                assert_eq!(t.delete(&v, 5, true).len(), 1);
            }
            let i = t.lookup_idx(0, &parsed).unwrap();
            assert_eq!(t.entry_mut(i).actions, out(expect_port));
            let j = t.lookup_key_idx(0, &key).unwrap();
            assert_eq!(j, i);
        }
    }

    #[test]
    fn colliding_index_hashes_change_nothing_observable() {
        // 4000 flow_mods over 64 /32 rules × 2 priorities plus 16 port
        // rules, with the index hash cut to one and to three bits: every
        // chain holds dozens of unrelated rules, so strict ADD / MODIFY /
        // DELETE walk past strangers, unlink from mid-chain and move
        // chained tails. A plain vector scanned for the equal
        // `(match, priority)` pair is the reference, op by op, and the
        // interpreter the reference for every verdict.
        for bits in [1, 3] {
            let mut reference: Vec<FlowEntry> = Vec::new();
            let mut t = FlowTable::with_index_hash_bits(96, bits);
            let mut r = 0x9e37_79b9_7f4a_7c15u64;
            for step in 0..4000u16 {
                r = r
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = (r >> 33) as u8;
                let m = if pick & 0x40 != 0 {
                    OfMatch::udp_dst_port((pick & 0xf) as u16)
                } else {
                    OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 0, pick & 0x3f))
                };
                let priority = [5, 9][(r >> 41) as usize & 1];
                let at = reference
                    .iter()
                    .position(|e| e.of_match == m && e.priority == priority);
                match (r >> 45) % 4 {
                    0 | 1 => {
                        let e = FlowEntry::new(m, priority, out(step), SimTime::ZERO);
                        let expect = match at {
                            None if reference.len() >= 96 => Err(TableFull),
                            Some(i) => {
                                reference[i] = e.clone();
                                Ok(())
                            }
                            None => {
                                reference.push(e.clone());
                                Ok(())
                            }
                        };
                        assert_eq!(t.add(e), expect, "step {step}");
                    }
                    2 => assert_eq!(
                        t.delete_strict(&m, priority),
                        at.map(|i| reference.swap_remove(i)),
                        "step {step}"
                    ),
                    _ => {
                        if let Some(i) = at {
                            reference[i].actions = out(step);
                        }
                        assert_eq!(
                            t.modify(&m, priority, true, &out(step)),
                            at.is_some() as usize,
                            "step {step}"
                        );
                    }
                }
                assert!(t.iter().eq(reference.iter()), "step {step}");
                let frame = udp_frame(Ipv4Addr::new(10, 1, 0, pick & 0x3f), (pick & 0xf) as u16);
                let parsed = frame.parse();
                assert_eq!(
                    t.lookup_key_idx(0, &osnt_packet::FlowKey::extract(&parsed)),
                    t.lookup_idx(0, &parsed),
                    "step {step}"
                );
            }
            assert!(t.len() > 48, "the table must stay well filled");
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new(10);
        t.add(FlowEntry::new(OfMatch::any(), 1, out(1), SimTime::ZERO))
            .unwrap();
        let pkt = udp_frame(Ipv4Addr::new(1, 1, 1, 1), 1);
        for us in 0..5 {
            let i = t.lookup_idx(0, &pkt.parse()).unwrap();
            t.account(i, SimTime::from_us(us), 64);
        }
        let e = t.iter().next().unwrap();
        assert_eq!(e.packets, 5);
        assert_eq!(e.bytes, 320);
    }
}
