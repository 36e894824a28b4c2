//! Tuple-space search: sublinear wildcard classification.
//!
//! The interpreter ([`crate::flowtable::FlowTable::lookup_idx`]) walks
//! O(n) rows per packet, and a strict `flow_mod` resolved by scanning
//! walks O(n) rows to find its victim — hopeless at the 10^6 wildcard
//! entries the ROADMAP demands. This module is the classical
//! fix (Srinivasan/Suri/Varghese's tuple-space search, the same engine
//! Open vSwitch ships): group rules by their wildcard **mask signature**
//! (a "tuple"), so every rule inside a tuple masks the same key bits.
//! Within one tuple a wildcard match degenerates to an *exact* match on
//! the masked key words — a hash probe — because the lowering invariant
//! (`value & !mask == 0`, see [`osnt_packet::KeyMatch::mask_words`])
//! makes `rule.matches(key)` ⇔ `key & mask == value`.
//!
//! A lookup probes each distinct tuple once: mask the key, hash, compare.
//! Rule count stops mattering; only *mask diversity* does, and real rule
//! sets have tens of masks for millions of rules. Two refinements keep
//! the probe loop short and the verdict byte-identical to the
//! interpreter's:
//!
//! * **Rank pruning** — tuples are visited in descending order of their
//!   best `(priority, specificity)` rank. Once the best hit so far
//!   *strictly* outranks everything a tuple can hold, the loop exits.
//!   The exit must be strict: an equal-rank entry in a later tuple can
//!   still win the tie-break by earlier installation (lower seq).
//! * **Seq tie-break** — every entry carries its installation sequence
//!   number, so equal `(priority, specificity)` collisions resolve to
//!   the earliest install, exactly like the interpreter's first-wins
//!   scan.
//!
//! The index itself is narrow on purpose. Each rule's classification
//! record (masked value words, port, rank, seq) sits in one dense vector
//! at the rule's entry id, in lock-step with the flow table's own
//! `swap_remove` storage. A tuple's table maps the 64-bit Fx hash of
//! (value words, port) to the id of the first rule indexed under it —
//! 16-byte slots, keyed by the hash itself, so growing the table never
//! hashes a key again — and rules that share a hash (the same lowered
//! match at another priority, or a true collision) chain through their
//! records. A probe is one table access and one record compare; the
//! record, not the hash, decides a match.
//!
//! The same probe serves `flow_mod`s: the table resolves a strict
//! ADD/MODIFY/DELETE with [`TupleSpace::locate`] + [`TupleSpace::find`]
//! (one compile, one hash) and removal needs neither, because a record
//! remembers its tuple and hash. The per-tuple rank multiset (a
//! `BTreeMap` counter) keeps the pruning bound exact under churn.

use crate::compiled::CompiledOfMatch;
use osnt_packet::{FlowKey, FxBuildHasher, FxHasher64, KEY_WORDS};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A classification rank: `(priority, specificity)`, compared
/// lexicographically, higher wins. Ties break toward the lower
/// installation sequence number.
pub type Rank = (u16, u32);

/// A tuple's mask signature: the masked key words plus whether the rule
/// constrains the ingress port (which lives beside the key words).
type Signature = ([u64; KEY_WORDS], bool);

/// "No rule": the end of a chain, or a [`Slot`] whose mask signature no
/// tuple holds yet.
const NIL: u32 = u32::MAX;

/// Hasher for tables keyed by a value that already is a hash.
#[derive(Debug, Default, Clone, Copy)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("prehashed tables are keyed by u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Index hash → id of the first rule chained under it.
type Heads = HashMap<u64, u32, BuildHasherDefault<Prehashed>>;

/// One rule's classification record, stored at the rule's entry id.
/// Self-contained — lookups never touch the flow-entry storage.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// The rule's value words: what a key must equal under the tuple's
    /// mask.
    words: [u64; KEY_WORDS],
    /// Index hash of (`words`, `port`): the key of this rule's chain.
    hash: u64,
    /// Installation sequence (tie-break: lowest wins among equal rank).
    seq: u64,
    rank: Rank,
    /// The next rule chained under the same hash, or [`NIL`].
    next: u32,
    /// The owning tuple.
    tuple: u32,
    /// The required ingress port when the tuple constrains it, else 0
    /// (so port-wildcarding tuples collapse all ports into one chain).
    port: u16,
}

/// All rules sharing one wildcard mask signature.
#[derive(Debug, Clone, Default)]
struct Tuple {
    mask: [u64; KEY_WORDS],
    port_masked: bool,
    heads: Heads,
    /// Multiset of resident ranks; `last_key_value` is the pruning
    /// bound. Kept exact under churn so the bound never goes stale.
    ranks: BTreeMap<Rank, u32>,
    len: usize,
}

impl Tuple {
    /// The best rank any resident holds, or `None` when empty.
    #[inline]
    fn max_rank(&self) -> Option<Rank> {
        self.ranks.last_key_value().map(|(r, _)| *r)
    }
}

/// Where a compiled match belongs in the index: its tuple ([`NIL`] when
/// no rule with that mask signature was ever indexed) and index hash.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    tuple: u32,
    hash: u64,
}

/// Winner of a probe: `(rank, Reverse-able seq, entry id)`. Candidate
/// `a` beats `b` when `a.rank > b.rank`, or ranks tie and `a.seq <
/// b.seq`.
#[derive(Debug, Clone, Copy)]
struct Best {
    rank: Rank,
    seq: u64,
    id: u32,
}

impl Best {
    #[inline]
    fn beats(&self, other: &Option<Best>) -> bool {
        match other {
            None => true,
            Some(o) => self.rank > o.rank || (self.rank == o.rank && self.seq < o.seq),
        }
    }
}

/// The tuple-space search engine. Owns no flow entries — it mirrors the
/// [`crate::flowtable::FlowTable`]'s dense entry vector id for id
/// (append on insert, `swap_remove` on remove) and is kept in lock-step
/// by the table's mutation paths.
#[derive(Debug, Clone, Default)]
pub struct TupleSpace {
    /// Record `i` classifies the table's entry `i`.
    records: Vec<Record>,
    tuples: Vec<Tuple>,
    by_sig: HashMap<Signature, u32, FxBuildHasher>,
    /// Tuple indices in descending `max_rank` order — the probe order
    /// that makes rank pruning sound. Rebuilt lazily: mask diversity is
    /// tiny next to rule count, so a rebuild is cheap and rare.
    order: Vec<u32>,
    order_dirty: bool,
    /// Non-empty tuple count — the simulated cost model charges per
    /// tuple probed, so this is the "units of work" a lookup costs.
    active: usize,
    #[cfg(test)]
    hash_drop_bits: u32,
}

/// The tuple `compiled` belongs to.
fn signature(compiled: &CompiledOfMatch) -> Signature {
    (
        *compiled.key_match().mask_words(),
        compiled.in_port_req().is_some(),
    )
}

/// What a rule's chain is keyed and compared by: its value words and
/// the ingress port it requires (0 when it takes any).
fn identity(compiled: &CompiledOfMatch) -> (&[u64; KEY_WORDS], u16) {
    (
        compiled.key_match().value_words(),
        compiled.in_port_req().unwrap_or(0),
    )
}

/// The rule whose chain link points at `target`, walking from `head`.
fn predecessor(records: &[Record], head: u32, target: u32) -> usize {
    let mut at = head as usize;
    while records[at].next != target {
        at = records[at].next as usize;
    }
    at
}

impl TupleSpace {
    /// An empty engine.
    pub fn new() -> Self {
        TupleSpace::default()
    }

    /// Indexed rules.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no rules are indexed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Distinct non-empty mask signatures — the number of hash probes a
    /// worst-case lookup performs (pruning can only shorten it).
    pub fn active_tuples(&self) -> usize {
        self.active
    }

    #[inline]
    fn index_hash(&self, words: &[u64; KEY_WORDS], port: u16) -> u64 {
        let mut h = FxHasher64::default();
        for &w in words {
            h.write_u64(w);
        }
        h.write_u16(port);
        h.finish() >> self.hash_drop_bits()
    }

    #[cfg(not(test))]
    #[inline]
    fn hash_drop_bits(&self) -> u32 {
        0
    }

    /// Index-hash bits thrown away, so tests can force long chains.
    #[cfg(test)]
    fn hash_drop_bits(&self) -> u32 {
        self.hash_drop_bits
    }

    /// An engine that keeps only the top `bits` bits of every index
    /// hash: most rules of a tuple then share a chain.
    #[cfg(test)]
    pub(crate) fn with_hash_bits(bits: u32) -> Self {
        TupleSpace {
            hash_drop_bits: 64 - bits,
            ..TupleSpace::default()
        }
    }

    /// Where `compiled` belongs: one signature lookup, one hash.
    pub fn locate(&self, compiled: &CompiledOfMatch) -> Slot {
        let (words, port) = identity(compiled);
        Slot {
            tuple: self
                .by_sig
                .get(&signature(compiled))
                .copied()
                .unwrap_or(NIL),
            hash: self.index_hash(words, port),
        }
    }

    /// The indexed rule at `slot` that lowers to `compiled`, holds
    /// `priority` and satisfies `same` — the strict flow_mod probe. Two
    /// matches that differ only under wildcarded fields lower alike, so
    /// the caller's `same` compares the matches themselves.
    pub fn find(
        &self,
        slot: Slot,
        compiled: &CompiledOfMatch,
        priority: u16,
        mut same: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let t = self.tuples.get(slot.tuple as usize)?;
        let (words, port) = identity(compiled);
        let mut id = t.heads.get(&slot.hash).copied().unwrap_or(NIL);
        while id != NIL {
            let r = &self.records[id as usize];
            if r.rank.0 == priority && r.port == port && r.words == *words && same(id as usize) {
                return Some(id as usize);
            }
            id = r.next;
        }
        None
    }

    /// Index the table's next entry (its id is the number of rules
    /// indexed so far) at `slot`, which [`TupleSpace::locate`] returned
    /// for `compiled` with no mutation since.
    pub fn insert(&mut self, slot: Slot, seq: u64, rank: Rank, compiled: &CompiledOfMatch) {
        let id = self.records.len() as u32;
        let ti = if slot.tuple != NIL {
            slot.tuple
        } else {
            let ti = self.tuples.len() as u32;
            let (mask, port_masked) = signature(compiled);
            self.by_sig.insert((mask, port_masked), ti);
            self.tuples.push(Tuple {
                mask,
                port_masked,
                ..Tuple::default()
            });
            self.order_dirty = true;
            ti
        };
        let t = &mut self.tuples[ti as usize];
        let before = t.max_rank();
        let (words, port) = identity(compiled);
        self.records.push(Record {
            words: *words,
            hash: slot.hash,
            seq,
            rank,
            next: t.heads.insert(slot.hash, id).unwrap_or(NIL),
            tuple: ti,
            port,
        });
        *t.ranks.entry(rank).or_insert(0) += 1;
        if t.len == 0 {
            self.active += 1;
        }
        t.len += 1;
        if t.max_rank() != before {
            self.order_dirty = true;
        }
    }

    /// Un-index rule `id` the way the table's `swap_remove` drops its
    /// entry: the last rule takes over `id`. Nothing is compiled or
    /// hashed — a record knows its tuple and its chain.
    pub fn remove(&mut self, id: u32) {
        let gone = self.records[id as usize];
        let t = &mut self.tuples[gone.tuple as usize];
        let before = t.max_rank();
        match t.heads.entry(gone.hash) {
            Entry::Occupied(mut head) => {
                if *head.get() != id {
                    let pred = predecessor(&self.records, *head.get(), id);
                    self.records[pred].next = gone.next;
                } else if gone.next != NIL {
                    *head.get_mut() = gone.next;
                } else {
                    head.remove();
                }
            }
            Entry::Vacant(_) => unreachable!("tuple-space remove: rule has no chain"),
        }
        match t.ranks.get_mut(&gone.rank) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                t.ranks.remove(&gone.rank);
            }
        }
        t.len -= 1;
        if t.len == 0 {
            self.active -= 1;
        }
        if t.max_rank() != before {
            self.order_dirty = true;
        }

        let last = self.records.len() as u32 - 1;
        self.records.swap_remove(id as usize);
        if id != last {
            let moved = self.records[id as usize];
            let head = self.tuples[moved.tuple as usize]
                .heads
                .get_mut(&moved.hash)
                .expect("tuple-space remove: moved rule has no chain");
            if *head == last {
                *head = id;
            } else {
                let pred = predecessor(&self.records, *head, last);
                self.records[pred].next = id;
            }
        }
    }

    /// Probe order: tuple indices, descending `max_rank`, empties
    /// dropped. Deterministic — ties sort by tuple creation index.
    fn ensure_order(&mut self) {
        if self.order_dirty {
            let tuples = &self.tuples;
            self.order = (0..tuples.len() as u32)
                .filter(|&i| tuples[i as usize].len > 0)
                .collect();
            self.order.sort_by_key(|&i| {
                std::cmp::Reverse((tuples[i as usize].max_rank(), std::cmp::Reverse(i)))
            });
            self.order_dirty = false;
        }
    }

    /// Fold every rule of `t` that a key with these masked `words`
    /// arriving on `in_port` matches into `best`.
    #[inline]
    fn probe(&self, t: &Tuple, words: [u64; KEY_WORDS], in_port: u16, best: &mut Option<Best>) {
        let port = if t.port_masked { in_port } else { 0 };
        let mut id = t
            .heads
            .get(&self.index_hash(&words, port))
            .copied()
            .unwrap_or(NIL);
        while id != NIL {
            let r = &self.records[id as usize];
            if r.port == port && r.words == words {
                let cand = Best {
                    rank: r.rank,
                    seq: r.seq,
                    id,
                };
                if cand.beats(best) {
                    *best = Some(cand);
                }
            }
            id = r.next;
        }
    }

    /// Best-match lookup: probe tuples in descending max-rank order,
    /// early-exit once the best hit strictly outranks every remaining
    /// tuple. Returns the winning entry id.
    pub fn lookup(&mut self, in_port: u16, key: &FlowKey) -> Option<usize> {
        self.ensure_order();
        let mut best: Option<Best> = None;
        for &ti in &self.order {
            let t = &self.tuples[ti as usize];
            if t.len == 0 {
                continue;
            }
            let bound = t.max_rank().expect("non-empty tuple has a max rank");
            if let Some(b) = &best {
                // Strict: an equal-rank resident can still win by seq.
                if b.rank > bound {
                    break;
                }
            }
            self.probe(t, key.masked(&t.mask), in_port, &mut best);
        }
        best.map(|b| b.id as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_openflow::OfMatch;
    use osnt_packet::{MacAddr, PacketBuilder};
    use std::net::Ipv4Addr;

    fn key_of(dst_ip: Ipv4Addr, dst_port: u16) -> FlowKey {
        let p = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), dst_ip)
            .udp(1000, dst_port)
            .build();
        FlowKey::extract(&p.parse())
    }

    /// Index `m` as the next entry, installed `seq`-th at `priority`.
    fn index(ts: &mut TupleSpace, seq: u64, m: &OfMatch, priority: u16) {
        let compiled = CompiledOfMatch::compile(m);
        let slot = ts.locate(&compiled);
        ts.insert(slot, seq, (priority, m.specificity()), &compiled);
    }

    #[test]
    fn exact_probe_and_rank_order() {
        let mut ts = TupleSpace::new();
        index(&mut ts, 0, &OfMatch::any(), 1);
        index(&mut ts, 1, &OfMatch::udp_dst_port(9001), 5);
        assert_eq!(ts.active_tuples(), 2);
        assert_eq!(
            ts.lookup(0, &key_of(Ipv4Addr::new(1, 1, 1, 1), 9001)),
            Some(1)
        );
        assert_eq!(
            ts.lookup(0, &key_of(Ipv4Addr::new(1, 1, 1, 1), 80)),
            Some(0)
        );
    }

    #[test]
    fn equal_rank_breaks_by_seq_across_tuples() {
        // Two rules, equal (priority, specificity), different masks —
        // so they live in different tuples. The earlier install must
        // win, which is exactly why pruning can't exit on rank equality.
        let mut src = OfMatch::any();
        src.nw_src = Ipv4Addr::new(10, 0, 0, 0);
        src.set_nw_src_prefix(8);
        let mut dst = OfMatch::any();
        dst.nw_dst = Ipv4Addr::new(10, 0, 0, 0);
        dst.set_nw_dst_prefix(8);
        assert_eq!(src.specificity(), dst.specificity());

        // Install in both orders; the winner must follow seq, not
        // tuple-creation order.
        for flip in [false, true] {
            let mut ts = TupleSpace::new();
            let (first, second) = if flip { (&dst, &src) } else { (&src, &dst) };
            index(&mut ts, 0, first, 5);
            index(&mut ts, 1, second, 5);
            // 10.0.0.1 -> 10.9.9.9 hits both prefixes.
            let k = key_of(Ipv4Addr::new(10, 9, 9, 9), 80);
            assert_eq!(ts.lookup(0, &k), Some(0), "flip={flip}");
        }
    }

    #[test]
    fn remove_moves_the_last_rule_into_the_hole() {
        let mut ts = TupleSpace::new();
        let porty = OfMatch::udp_dst_port(9001);
        index(&mut ts, 0, &porty, 5);
        index(&mut ts, 1, &OfMatch::udp_dst_port(80), 5);
        index(&mut ts, 2, &OfMatch::any(), 1);
        let k = key_of(Ipv4Addr::new(1, 1, 1, 1), 9001);
        assert_eq!(ts.lookup(0, &k), Some(0));
        // Like the table's swap_remove: `any` (id 2) becomes id 0.
        ts.remove(0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.active_tuples(), 2);
        assert_eq!(ts.lookup(0, &k), Some(0));
        assert_eq!(
            ts.lookup(0, &key_of(Ipv4Addr::new(1, 1, 1, 1), 80)),
            Some(1)
        );
        // Dropping the last id moves nothing; its tuple empties.
        ts.remove(1);
        assert_eq!(ts.active_tuples(), 1);
        let compiled = CompiledOfMatch::compile(&porty);
        assert_eq!(ts.find(ts.locate(&compiled), &compiled, 5, |_| true), None);
    }

    #[test]
    fn find_tells_priorities_and_the_callers_notion_of_same_apart() {
        let mut ts = TupleSpace::new();
        let m = OfMatch::udp_dst_port(9001);
        index(&mut ts, 0, &m, 5);
        index(&mut ts, 1, &m, 9);
        let compiled = CompiledOfMatch::compile(&m);
        let slot = ts.locate(&compiled);
        assert_eq!(ts.find(slot, &compiled, 5, |_| true), Some(0));
        assert_eq!(ts.find(slot, &compiled, 9, |_| true), Some(1));
        assert_eq!(ts.find(slot, &compiled, 7, |_| true), None);
        assert_eq!(ts.find(slot, &compiled, 9, |_| false), None);
        // A mask no rule uses has no tuple to look in.
        let other = CompiledOfMatch::compile(&OfMatch::ipv4_dst(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(ts.find(ts.locate(&other), &other, 5, |_| true), None);
    }

    /// Every rule of a 48-rule, two-tuple set stays reachable — by
    /// lookup and by `find` — while rules leave from the front, the
    /// middle and the back, at full hash width and with the hash cut to
    /// 1–2 bits so that chains hold a dozen rules: insert behind a head,
    /// unlink from mid-chain and a moved rule that is itself chained all
    /// happen.
    #[test]
    fn long_chains_survive_churn() {
        for bits in [1, 2, 64] {
            let mut ts = TupleSpace::with_hash_bits(bits);
            // The model: entry id -> (match, priority, seq).
            let mut model: Vec<(OfMatch, u16, u64)> = Vec::new();
            for i in 0..48u16 {
                let m = if i % 3 == 0 {
                    OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 0, i as u8))
                } else {
                    OfMatch::udp_dst_port(i)
                };
                // Every fourth rule twice: same words, another priority.
                for priority in [5u16, 9].into_iter().take(1 + usize::from(i % 4 == 0)) {
                    index(&mut ts, model.len() as u64, &m, priority);
                    model.push((m, priority, model.len() as u64));
                }
            }
            let mut step = 0usize;
            while !model.is_empty() {
                for (id, (m, priority, _)) in model.iter().enumerate() {
                    let compiled = CompiledOfMatch::compile(m);
                    let slot = ts.locate(&compiled);
                    assert_eq!(
                        ts.find(slot, &compiled, *priority, |_| true),
                        Some(id),
                        "bits={bits}"
                    );
                    // The key that hits exactly this rule's words.
                    let k = if m.tp_dst != 0 {
                        key_of(Ipv4Addr::new(9, 9, 9, 9), m.tp_dst)
                    } else {
                        key_of(m.nw_dst, 0)
                    };
                    let want = model
                        .iter()
                        .enumerate()
                        .filter(|(_, (o, _, _))| o == m)
                        .max_by_key(|(_, (_, p, _))| *p)
                        .map(|(i, _)| i);
                    assert_eq!(ts.lookup(0, &k), want, "bits={bits}");
                }
                let victim = (step * 7) % model.len();
                step += 1;
                ts.remove(victim as u32);
                model.swap_remove(victim);
                assert_eq!(ts.len(), model.len());
            }
            assert_eq!(ts.active_tuples(), 0);
        }
    }
}
