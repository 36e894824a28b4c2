//! Conservative parallel (sharded) execution of the event kernel.
//!
//! The component graph is partitioned into *shards*; each shard runs
//! the ordinary single-threaded [`Kernel`] + timer-wheel dispatch loop
//! on its own worker thread. Shards synchronise with a conservative
//! time-window barrier in the CMB (Chandy–Misra–Bryant) tradition:
//! each round, every shard publishes the time of its earliest pending
//! event — which is also the earliest instant it could possibly hand
//! a frame to a cross-shard link — and every shard derives its window
//! bound from its **incoming influence channels only**:
//!
//! ```text
//! bound(s) = min over shards p that can influence s of
//!                published_min(p) + D(p→s)
//! ```
//!
//! where `D(p→s)` is the minimum *path* delay from a component on `p`
//! to a component on `s` — the all-pairs shortest path (computed once
//! at build time) over the graph whose edge `p→q` is the minimum
//! propagation delay of the cross-shard links from `p` to `q`. Any
//! event chain that eventually lands on `s` starts at some event
//! currently pending on some shard `p` (at time `≥ published_min(p)`),
//! and every boundary it crosses — including hops through relay shards
//! that are idle *right now* — adds at least that channel's lookahead,
//! so the chain cannot deliver to `s` before `published_min(p) +
//! D(p→s)`. The diagonal `D(s→s)` is the minimum cycle through `s`
//! (a shard's own sends can come back to it), not zero. `s` may
//! therefore dispatch every event strictly below `bound(s)` without
//! ever receiving an event that belongs inside the window it is
//! executing. Because the bound starts from each *peer's next event*
//! rather than the global minimum, windows automatically jump over
//! provably empty regions: an idle peer (published min = ∞, or far in
//! the future) contributes a huge bound, and a shard whose only busy
//! influencers are far away executes thousands of local events in one
//! round instead of marching in global-minimum-lookahead steps. The
//! unsharded [`crate::Sim`] is the oracle every shard-parity test
//! compares against; DESIGN.md §5k has the full safety argument.
//!
//! Cross-shard events are posted into a mutex-guarded mailbox per
//! ordered shard pair and folded into the destination wheel at the next
//! window boundary. The lock is taken once per crossing and is never
//! contended — the consumer only empties a mailbox while its producer
//! is parked at the barrier — and never held across a handler call.
//! Per-shard [`ShardStats`] counters (windows, barrier waits, crossings) are
//! deterministic — functions of the topology and traffic only, never
//! of host scheduling — and feed both the `e17_windows` bench gate and
//! the chaos auditor's window-accounting ledger.
//!
//! # Determinism
//!
//! The kernel's total event order is ascending `(time, event_key)`
//! where the key packs `(source component, per-source sequence)` — see
//! [`crate::kernel::event_key`]. The key is computed from the
//! *source's own* scheduling history only, so a sharded run produces
//! byte-identical keys to the single-threaded run, and each shard's
//! wheel dispatches its local restriction of the same global order.
//! Per-component state (ports, counters, the component itself) is only
//! ever touched by the owning shard, so every handler observes exactly
//! the state it would have observed single-threaded. Channel arrival
//! order is irrelevant: entries are keyed and the wheel re-sorts them.
//! Window *boundaries* affect only how the same totally ordered event
//! sequence is sliced across rounds, never which events run or in what
//! order — which is why any shard count produces byte-identical
//! results.
//!
//! # Safety model
//!
//! Components are plain `Box<dyn Component>` — deliberately **not**
//! `Send`-bounded, because the single-threaded simulator's idiom is
//! `Rc<RefCell<...>>` result sharing. [`ShardSlot`] asserts `Send`
//! under a confinement contract documented on the type; the practical
//! rules for users are on [`crate::SimBuilder::build_sharded`].

use crate::component::{Component, ComponentId};
use crate::engine::{dispatch_events, run_kernel_until};
use crate::event::EventKind;
use crate::kernel::Kernel;
use crate::stats::{PortCounters, ShardStats};
use crate::sync::SpinBarrier;
use osnt_error::OsntError;
use osnt_packet::pool::PacketPool;
use osnt_packet::SendPacket;
use osnt_time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The cross-shard channel of one ordered (producer, consumer) shard
/// pair: entries posted during a window, emptied by the consumer at the
/// next barrier.
type Mailbox = Arc<Mutex<Vec<CrossEntry>>>;

/// Sentinel for "no pending events" in the published per-shard minima,
/// and for "no channel" in the lookahead matrix.
const IDLE: u64 = u64::MAX;

/// A thread-portable event: what crosses a shard boundary. `Deliver`
/// flattens its [`osnt_packet::Packet`] into a [`SendPacket`] (stealing
/// the buffer when uniquely owned) because pool-backed packets hold
/// `Rc`s into their shard-local pool.
pub(crate) enum CrossKind {
    Deliver {
        dst: ComponentId,
        port: usize,
        packet: SendPacket,
    },
    /// A whole [`crate::PacketBurst`] crossing as one entry: member
    /// arrival times in ps, keys reconstructed as `entry.key + i`.
    DeliverBurst {
        dst: ComponentId,
        port: usize,
        members: Vec<(u64, SendPacket)>,
    },
    TxDone {
        src: ComponentId,
        port: usize,
        frame_len: usize,
    },
    Timer {
        target: ComponentId,
        tag: u64,
    },
}

/// A keyed, timestamped cross-shard event in transit.
pub(crate) struct CrossEntry {
    time_ps: u64,
    key: u64,
    kind: CrossKind,
}

impl CrossEntry {
    fn from_event(time: SimTime, key: u64, kind: EventKind) -> Self {
        let kind = match kind {
            EventKind::Deliver { dst, port, packet } => CrossKind::Deliver {
                dst,
                port,
                packet: packet.into_send(),
            },
            EventKind::DeliverBurst { dst, port, burst } => CrossKind::DeliverBurst {
                dst,
                port,
                members: burst
                    .into_members()
                    .map(|(t, p)| (t.as_ps(), p.into_send()))
                    .collect(),
            },
            EventKind::TxDone {
                src,
                port,
                frame_len,
            } => CrossKind::TxDone {
                src,
                port,
                frame_len,
            },
            EventKind::Timer { target, tag } => CrossKind::Timer { target, tag },
        };
        CrossEntry {
            time_ps: time.as_ps(),
            key,
            kind,
        }
    }

    /// Reconstruct the kernel event on the receiving shard. Packet
    /// buffers are rehomed into `pool` — the receiving shard's local
    /// pool — so the eventual retirement of a frame that crossed a
    /// shard boundary recycles shard-locally instead of handing the
    /// buffer back to whichever core's allocator arena produced it.
    fn into_event(self, pool: &PacketPool) -> (SimTime, u64, EventKind) {
        let kind = match self.kind {
            CrossKind::Deliver { dst, port, packet } => EventKind::Deliver {
                dst,
                port,
                packet: packet.into_packet_pooled(pool),
            },
            CrossKind::DeliverBurst { dst, port, members } => {
                let mut burst = Box::new(crate::burst::PacketBurst::new(self.key));
                for (t, p) in members {
                    burst.push(SimTime::from_ps(t), p.into_packet_pooled(pool));
                }
                EventKind::DeliverBurst { dst, port, burst }
            }
            CrossKind::TxDone {
                src,
                port,
                frame_len,
            } => EventKind::TxDone {
                src,
                port,
                frame_len,
            },
            CrossKind::Timer { target, tag } => EventKind::Timer { target, tag },
        };
        (SimTime::from_ps(self.time_ps), self.key, kind)
    }
}

/// Routes events whose target lives on another shard. Installed into
/// each shard's [`Kernel`]; `None` on single-threaded simulations.
pub(crate) struct ShardRouter {
    shard_of: Arc<Vec<usize>>,
    my_shard: usize,
    /// `outboxes[s]` is this shard's mailbox to shard `s`; `None` at
    /// `s == my_shard`.
    outboxes: Vec<Option<Mailbox>>,
    /// Entries posted so far ([`ShardStats::ring_pushes`]).
    pushes: u64,
}

impl ShardRouter {
    #[inline]
    pub(crate) fn is_remote(&self, c: ComponentId) -> bool {
        self.shard_of[c.index()] != self.my_shard
    }

    pub(crate) fn send(&mut self, time: SimTime, key: u64, kind: EventKind) {
        let dst_shard = self.shard_of[kind.target().index()];
        debug_assert_ne!(dst_shard, self.my_shard, "send() called for a local event");
        let entry = CrossEntry::from_event(time, key, kind);
        self.outboxes[dst_shard]
            .as_ref()
            .expect("outbox exists for every remote shard")
            .lock()
            .expect("mailbox lock poisoned: a peer panicked while posting")
            .push(entry);
        self.pushes += 1;
    }
}

/// Assignment of every component to a shard.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    assign: Vec<usize>,
    n_shards: usize,
}

impl ShardPlan {
    /// A plan over `n_components` components and `n_shards` shards,
    /// with every component initially on shard 0.
    pub fn new(n_components: usize, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        ShardPlan {
            assign: vec![0; n_components],
            n_shards,
        }
    }

    /// Put `c` on `shard`.
    pub fn assign(&mut self, c: ComponentId, shard: usize) {
        assert!(shard < self.n_shards, "shard {shard} out of range");
        self.assign[c.index()] = shard;
    }

    /// The shard `c` is assigned to.
    pub fn shard_of(&self, c: ComponentId) -> usize {
        self.assign[c.index()]
    }

    /// Number of shards (some may end up empty).
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Partition `n_components` into at most `n_shards` shards by
    /// wire-connectivity: components joined (transitively) by a link
    /// stay on one shard, and the resulting connected groups are packed
    /// largest-first onto the least-loaded shard. Deterministic for a
    /// given topology. `edges` lists `(a, b)` component pairs that
    /// share a link.
    pub fn auto(
        n_components: usize,
        n_shards: usize,
        edges: &[(ComponentId, ComponentId)],
    ) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        // Union-find over component ids.
        let mut parent: Vec<usize> = (0..n_components).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, b) in edges {
            let (ra, rb) = (find(&mut parent, a.index()), find(&mut parent, b.index()));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        // Collect groups keyed by root, ordered by first-member id.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for c in 0..n_components {
            let root = find(&mut parent, c);
            match groups.iter_mut().find(|(r, _)| *r == root) {
                Some((_, members)) => members.push(c),
                None => groups.push((root, vec![c])),
            }
        }
        // Largest group first (ties: lowest root id) onto the
        // least-loaded shard (ties: lowest shard id).
        groups.sort_by(|(ra, ma), (rb, mb)| mb.len().cmp(&ma.len()).then(ra.cmp(rb)));
        let mut plan = ShardPlan::new(n_components, n_shards);
        let mut load = vec![0usize; n_shards];
        for (_, members) in groups {
            let shard = (0..n_shards)
                .min_by_key(|&s| (load[s], s))
                .expect(">=1 shard");
            load[shard] += members.len();
            for m in members {
                plan.assign[m] = shard;
            }
        }
        plan
    }
}

/// One shard's worth of simulation state: a full [`Kernel`] replica
/// (only the rows of components this shard owns are ever mutated) plus
/// the owned components, the inbound mailboxes, a shard-local packet
/// pool and the shard's deterministic counters.
pub(crate) struct ShardSlot {
    pub(crate) kernel: Kernel,
    /// Indexed by global component id; `Some` only for owned ids.
    pub(crate) components: Vec<Option<Box<dyn Component>>>,
    /// `inboxes[p]` is the mailbox shard `p` posts into for this shard.
    inboxes: Vec<Option<Mailbox>>,
    /// Drain scratch buffer, reused across windows.
    scratch: Vec<CrossEntry>,
    /// Shard-local recycling pool: every packet buffer that crosses
    /// into this shard is rehomed here, so frame retirement never
    /// touches another core's allocator state.
    pool: PacketPool,
    /// Window, barrier and drain counters (the push count lives on the
    /// kernel's [`ShardRouter`] and is merged in by
    /// [`ShardedSim::shard_stats`]).
    stats: ShardStats,
}

// SAFETY: `ShardSlot` contains non-`Send` state (`Box<dyn Component>`
// holding `Rc` handles, pool-backed packets queued in the wheel, the
// shard-local `PacketPool`). It is sound to move a `&mut ShardSlot` to
// a worker thread because the executive enforces *confinement with
// hand-off*:
//
// 1. Each slot is borrowed by exactly one worker per run; workers are
//    scoped threads, so the main thread is blocked until every worker
//    has joined. Spawn and join provide the happens-before edges that
//    make the alternating (main ↔ worker) access sequential.
// 2. No `Rc` graph spans two slots: the partitioning contract (see
//    `SimBuilder::build_sharded`) requires components sharing non-Send
//    state to be co-sharded, cross-shard packets are flattened to
//    owned buffers (`SendPacket`) before entering a mailbox, and the
//    shard-local pool is created inside the slot and never handed out,
//    so its `Rc`/`Weak` graph (pool ↔ packets homed into it) is
//    confined to this slot by construction.
// 3. Harness-side `Rc` aliases (result vectors etc.) are only touched
//    by the main thread between runs, never during one — the same
//    discipline `thread::scope` users apply to captured `&mut`.
#[allow(unsafe_code)]
unsafe impl Send for ShardSlot {}

impl ShardSlot {
    /// Fold every event waiting in the inbound mailboxes into the wheel.
    /// Called at a window barrier, when all producers are parked.
    fn drain_inboxes(&mut self) {
        for mailbox in self.inboxes.iter().flatten() {
            self.scratch.append(
                &mut mailbox
                    .lock()
                    .expect("mailbox lock poisoned: a peer panicked while posting"),
            );
        }
        self.stats.ring_drains += self.scratch.len() as u64;
        for entry in self.scratch.drain(..) {
            let (time, key, kind) = entry.into_event(&self.pool);
            self.kernel.inject(time, key, kind);
        }
    }
}

/// State shared by all workers of one run.
struct RunShared {
    barrier: SpinBarrier,
    /// Per-shard earliest pending event time (ps), [`IDLE`] when none.
    /// This doubles as the shard's earliest-possible-cross-shard-send
    /// floor: a shard cannot transmit anything before it dispatches an
    /// event, and it cannot dispatch before its earliest pending event.
    mins: Vec<AtomicU64>,
    /// Cumulative events dispatched across shards this run.
    dispatched: AtomicU64,
    /// Coordinated abort decision. Worker 0 samples the supervision
    /// probe's flag once per window (between barriers, while its peers
    /// are quiescent) and publishes it here, so every worker reads the
    /// *same* decision after the next barrier and the loop stays in
    /// lockstep — workers sampling the probe directly could diverge on
    /// a flag raised mid-read and deadlock the barrier.
    abort: std::sync::atomic::AtomicBool,
}

/// Deterministic xorshift for the yield-stress harness (no external
/// RNG dependency; quality is irrelevant, divergence is the point).
struct YieldStress(u64);

impl YieldStress {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn jitter(&mut self) {
        for _ in 0..(self.next() % 4) {
            std::thread::yield_now();
        }
    }
}

/// Poisons the barrier if the worker unwinds, so peers stop waiting.
struct PoisonGuard<'a> {
    barrier: &'a SpinBarrier,
    armed: bool,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.barrier.poison();
        }
    }
}

/// Window-sizing inputs shared by all workers of a run (read-only).
struct WindowConfig {
    /// `matrix[p * n + s]` = minimum influence-path delay `D(p→s)` in
    /// ps ([`IDLE`] when no path exists); the diagonal holds the
    /// minimum cycle through each shard. See the module docs.
    matrix: Arc<Vec<u64>>,
    n_shards: usize,
}

impl WindowConfig {
    /// This shard's window end (inclusive) for a round with published
    /// minima `mins`, capped at `limit_ps`: `min over incoming channels
    /// p→my of mins[p] + D[p][my]`, exclusive, so subtract one — the
    /// module-level bound. A shard with no incoming channels is never
    /// sent anything and may run to the horizon.
    fn window_end(&self, my_shard: usize, mins: &[u64], limit_ps: u64) -> u64 {
        let n = self.n_shards;
        let mut bound = IDLE;
        // All shards, *including* our own: `matrix[my][my]` is the
        // minimum cycle through this shard, bounding how soon our own
        // sends can boomerang back to us.
        for (p, &peer_min) in mins.iter().enumerate() {
            let d = self.matrix[p * n + my_shard];
            if d == IDLE {
                continue;
            }
            bound = bound.min(peer_min.saturating_add(d));
        }
        limit_ps.min(bound.saturating_sub(1))
    }
}

/// The per-worker window loop. All workers compute the identical
/// global-minimum decision from the shared minima, so control flow
/// stays in lockstep without a coordinator thread; each worker's
/// *window end* is its own (deterministic) per-channel bound.
fn run_windows(
    slot: &mut ShardSlot,
    my_shard: usize,
    shared: &RunShared,
    windows: &WindowConfig,
    limit_ps: u64,
    max_events: Option<u64>,
    stress_seed: Option<u64>,
) {
    let mut guard = PoisonGuard {
        barrier: &shared.barrier,
        armed: true,
    };
    let mut sense = false;
    let mut stress = stress_seed.map(|s| {
        // Distinct, nonzero stream per shard.
        YieldStress(s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (my_shard as u64 + 1))
    });
    // Reused snapshot of the published minima (read once per round;
    // the adaptive bound needs the individual values, not just the
    // minimum).
    let mut mins = vec![IDLE; windows.n_shards];
    loop {
        // Window boundary A: every worker has finished the previous
        // window, so every mailbox's producer is quiescent.
        slot.stats.barrier_waits += 1;
        if shared.barrier.wait(&mut sense).is_err() {
            std::panic::panic_any("shard worker aborted: a peer worker panicked");
        }
        if let Some(st) = stress.as_mut() {
            st.jitter();
        }
        slot.drain_inboxes();
        shared.mins[my_shard].store(slot.kernel.peek_next_ps().unwrap_or(IDLE), Ordering::SeqCst);
        if my_shard == 0 {
            shared
                .abort
                .store(slot.kernel.abort_requested(), Ordering::SeqCst);
        }
        // Window boundary B: every minimum (and the abort decision) is
        // published. Between here and the next boundary A no worker
        // re-publishes, so all read the same values and take the same
        // branch.
        slot.stats.barrier_waits += 1;
        if shared.barrier.wait(&mut sense).is_err() {
            std::panic::panic_any("shard worker aborted: a peer worker panicked");
        }
        if shared.abort.load(Ordering::SeqCst) {
            // Supervised abort: leave the clock where it stopped so the
            // probe's last_progress stays honest.
            guard.armed = false;
            return;
        }
        for (p, v) in mins.iter_mut().enumerate() {
            *v = shared.mins[p].load(Ordering::SeqCst);
        }
        let m = mins.iter().copied().min().expect(">=1 shard");
        if m == IDLE || m > limit_ps {
            break;
        }
        // Dispatch every event in [now, end] — this shard's
        // conservative window. The bound is strictly below every
        // possible cross-shard arrival (see `WindowConfig::window_end`
        // and DESIGN.md §5k), so nothing that lands later belongs
        // inside it. Progress is guaranteed: the shard owning the
        // global minimum `m` has `end >= m` (every incoming bound is
        // `>= m + lookahead > m`), so `m` strictly advances each round.
        let end_inclusive = windows.window_end(my_shard, &mins, limit_ps);
        if mins[my_shard] <= end_inclusive {
            slot.stats.windows_executed += 1;
            let n = dispatch_events(
                &mut slot.kernel,
                &mut slot.components,
                SimTime::from_ps(end_inclusive),
            );
            let total = shared.dispatched.fetch_add(n, Ordering::SeqCst) + n;
            if let Some(cap) = max_events {
                assert!(
                    total <= cap,
                    "simulation did not quiesce within {cap} events"
                );
            }
        } else {
            // Nothing of ours inside the window: an empty round this
            // shard deterministically sits out (counted — the e17 gate
            // and the chaos ledger both consume these).
            slot.stats.windows_skipped += 1;
        }
        if let Some(st) = stress.as_mut() {
            st.jitter();
        }
    }
    slot.kernel.advance_now(SimTime::from_ps(limit_ps));
    guard.armed = false;
}

/// A simulation partitioned across worker threads. Built with
/// [`crate::SimBuilder::build_sharded`]; produces byte-identical
/// per-component state, counters and event streams to [`crate::Sim`]
/// for any shard plan.
pub struct ShardedSim {
    slots: Vec<ShardSlot>,
    shard_of: Arc<Vec<usize>>,
    /// Influence matrix `D`, `matrix[p * n + s]` = minimum path delay
    /// p→s in ps ([`IDLE`] where no influence path exists); diagonal =
    /// minimum cycle. See the module docs.
    lookahead_matrix: Arc<Vec<u64>>,
    names: Vec<String>,
    started: bool,
    stress_seed: Option<u64>,
}

impl ShardedSim {
    pub(crate) fn build(
        kernel: Kernel,
        mut components: Vec<Option<Box<dyn Component>>>,
        names: Vec<String>,
        plan: ShardPlan,
    ) -> ShardedSim {
        assert_eq!(
            plan.assign.len(),
            components.len(),
            "shard plan covers a different component count than the builder"
        );
        assert!(
            kernel.pending_events() == 0,
            "build_sharded before scheduling events"
        );
        let n = plan.n_shards;
        let shard_of = Arc::new(plan.assign);

        // Single-hop lookahead: for every ordered shard pair (p, s),
        // the minimum propagation delay over links from a component on
        // `p` to one on `s`. A zero-delay cross link would make some
        // window empty — reject it at build time.
        let mut matrix = vec![IDLE; n * n];
        for (src, peer, propagation) in kernel.wire_endpoints() {
            let (sp, dp) = (shard_of[src.index()], shard_of[peer.index()]);
            if sp == dp {
                continue;
            }
            let ps = propagation.as_ps();
            assert!(
                ps > 0,
                "link between component {} (shard {}) and {} (shard {}) has zero \
                 propagation delay: cross-shard links need nonzero delay for lookahead",
                src.index(),
                sp,
                peer.index(),
                dp,
            );
            let cell = &mut matrix[sp * n + dp];
            *cell = (*cell).min(ps);
        }
        // Close it into the influence matrix D (all-pairs shortest
        // path, Floyd–Warshall): an event chain can reach `s` from `p`
        // through relay shards, and the safe bound for that chain is
        // the minimum total delay along *any* path, not the direct
        // hop. The diagonal deliberately starts at IDLE (not zero) so
        // D[s][s] comes out as the minimum cycle through `s` — the
        // earliest a shard's own sends can return to it. Shard counts
        // are tiny (≤ core count), so O(n³) here is noise.
        for via in 0..n {
            for p in 0..n {
                let a = matrix[p * n + via];
                if a == IDLE {
                    continue;
                }
                for s in 0..n {
                    let b = matrix[via * n + s];
                    if b == IDLE {
                        continue;
                    }
                    let through = a.saturating_add(b);
                    let cell = &mut matrix[p * n + s];
                    *cell = (*cell).min(through);
                }
            }
        }

        // One mailbox per ordered (producer, consumer) shard pair.
        let mailboxes: Vec<Vec<Option<Mailbox>>> = (0..n)
            .map(|p| (0..n).map(|c| (p != c).then(Mailbox::default)).collect())
            .collect();

        let slots = (0..n)
            .map(|s| {
                let mut k = kernel.replicate_for_shard();
                k.router = Some(ShardRouter {
                    shard_of: shard_of.clone(),
                    my_shard: s,
                    outboxes: mailboxes[s].clone(),
                    pushes: 0,
                });
                let comps = components
                    .iter_mut()
                    .enumerate()
                    .map(|(id, c)| if shard_of[id] == s { c.take() } else { None })
                    .collect();
                ShardSlot {
                    kernel: k,
                    components: comps,
                    inboxes: (0..n).map(|p| mailboxes[p][s].clone()).collect(),
                    scratch: Vec::new(),
                    pool: PacketPool::new(),
                    stats: ShardStats::default(),
                }
            })
            .collect();

        ShardedSim {
            slots,
            shard_of,
            lookahead_matrix: Arc::new(matrix),
            names,
            started: false,
            stress_seed: None,
        }
    }

    /// Number of shards (worker threads used per run).
    pub fn n_shards(&self) -> usize {
        self.slots.len()
    }

    /// The influence lookahead from shard `from` to shard `to`: the
    /// minimum total propagation delay over any cross-shard path
    /// `from`→…→`to` (with `from == to` the minimum cycle), `None`
    /// when no such path exists — `from` can never influence `to`, so
    /// it never bounds `to`'s window.
    pub fn lookahead_between(&self, from: usize, to: usize) -> Option<SimDuration> {
        let n = self.slots.len();
        assert!(from < n && to < n, "shard index out of range");
        let ps = self.lookahead_matrix[from * n + to];
        (ps != IDLE).then(|| SimDuration::from_ps(ps))
    }

    /// Test harness: make every worker yield a pseudo-random number of
    /// times (a stream per shard, derived from `seed`) around each
    /// barrier, so host interleavings that a quiet machine never
    /// produces get exercised. Results must not change. `None` (the
    /// default) turns it off.
    #[doc(hidden)]
    pub fn set_yield_stress(&mut self, seed: Option<u64>) {
        self.stress_seed = seed;
    }

    /// Current simulated time (all shards agree between runs).
    pub fn now(&self) -> SimTime {
        self.slots[0].kernel.now()
    }

    /// A component's registered name.
    pub fn name_of(&self, id: ComponentId) -> &str {
        &self.names[id.index()]
    }

    /// Counter snapshot for (`comp`, `port`), read from the owning
    /// shard (the only one that ever updates it).
    pub fn counters(&self, comp: ComponentId, port: usize) -> PortCounters {
        self.slots[self.shard_of[comp.index()]]
            .kernel
            .counters(comp, port)
    }

    /// Set (or clear) a port's output-buffer capacity — see
    /// [`Kernel::set_tx_buffer`]. Routed to the owning shard.
    pub fn set_tx_buffer(&mut self, comp: ComponentId, port: usize, bytes: Option<usize>) {
        self.slots[self.shard_of[comp.index()]]
            .kernel
            .set_tx_buffer(comp, port, bytes);
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.kernel.events_dispatched())
            .sum()
    }

    /// Per-shard executive counters, cumulative over every run so far
    /// (window, barrier and drain counts from the worker loops, pushes
    /// from each shard's router). Deterministic — see [`ShardStats`] — and therefore
    /// **not** part of any experiment report that is byte-compared
    /// across shard counts: a 4-shard ledger legitimately differs from
    /// a 1-shard one. Read it between runs (never mid-run).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.slots
            .iter()
            .map(|slot| ShardStats {
                ring_pushes: slot.kernel.router.as_ref().map_or(0, |r| r.pushes),
                ..slot.stats
            })
            .collect()
    }

    /// Events pending across all shards (mailboxes are empty between
    /// runs).
    pub fn pending_events(&self) -> usize {
        debug_assert!(
            self.slots.iter().all(|s| s
                .inboxes
                .iter()
                .flatten()
                .all(|m| m.lock().is_ok_and(|m| m.is_empty()))),
            "cross-shard mailboxes must be drained between runs"
        );
        self.slots.iter().map(|s| s.kernel.pending_events()).sum()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Run `on_start` in global component-id order, each on its
        // owning shard's kernel, on this thread (workers not yet
        // spawned). Cross-shard sends from on_start land in mailboxes
        // and are folded in at the first window boundary.
        for id in 0..self.shard_of.len() {
            let slot = &mut self.slots[self.shard_of[id]];
            let cid = ComponentId(id);
            let mut c = slot.components[id].take().expect("component in place");
            c.on_start(&mut slot.kernel, cid);
            slot.components[id] = Some(c);
        }
    }

    /// Attach a supervision probe to every shard's kernel: workers
    /// publish their simulated-time high-water mark into it, and a
    /// raised abort flag stops the run at the next coordinated window
    /// boundary. Attach before the first `run_*` call.
    pub fn attach_progress(&mut self, probe: Arc<osnt_time::ProgressProbe>) {
        for slot in &mut self.slots {
            slot.kernel.progress = Some(probe.clone());
        }
    }

    /// Run every event scheduled at or before `limit` on all shards,
    /// then advance every shard's clock to `limit`. Returns the number
    /// of events dispatched. Byte-identical outcome to
    /// [`crate::Sim::run_until`] on the same topology. Panics if a
    /// worker panicked — use [`ShardedSim::try_run_until`] to contain
    /// worker panics as typed errors instead.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        self.try_run_until(limit).unwrap_or_else(|e| match e {
            OsntError::Panicked { reason, .. } => panic!("{reason}"),
            other => panic!("{other}"),
        })
    }

    /// Drain every pending event; panics if more than `max_events`
    /// dispatch before quiescence — see
    /// [`crate::Sim::run_to_quiescence`].
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.try_run_to_quiescence(max_events)
            .unwrap_or_else(|e| match e {
                OsntError::Panicked { reason, .. } => panic!("{reason}"),
                other => panic!("{other}"),
            })
    }

    /// [`ShardedSim::run_until`] with panic containment: a panicking
    /// shard worker (a component bug, a blown invariant) is caught at
    /// the worker boundary, poisons the window barrier so its peers
    /// stop instead of deadlocking, and surfaces as
    /// [`OsntError::Panicked`] — the supervisor journals it as a
    /// partial report instead of the process dying.
    pub fn try_run_until(&mut self, limit: SimTime) -> Result<u64, OsntError> {
        self.run_internal(limit.as_ps(), None)
    }

    /// [`ShardedSim::run_to_quiescence`] with panic containment — see
    /// [`ShardedSim::try_run_until`]. The `max_events` overrun is also
    /// reported as an [`OsntError::Panicked`] rather than unwinding.
    pub fn try_run_to_quiescence(&mut self, max_events: u64) -> Result<u64, OsntError> {
        self.run_internal(u64::MAX, Some(max_events))
    }

    fn run_internal(&mut self, limit_ps: u64, max_events: Option<u64>) -> Result<u64, OsntError> {
        self.start_if_needed();
        if self.slots.len() == 1 {
            // Single shard: no threads, no barriers — `Sim`'s own loop,
            // with the same containment contract as the threaded path.
            let slot = &mut self.slots[0];
            let dispatched = run_kernel_until(
                &mut slot.kernel,
                &mut slot.components,
                SimTime::from_ps(limit_ps),
            );
            if dispatched > 0 {
                slot.stats.windows_executed += 1;
            }
            return match max_events {
                Some(cap) if dispatched > cap => Err(OsntError::Panicked {
                    context: "shard worker",
                    reason: format!("simulation did not quiesce within {cap} events"),
                }),
                _ => Ok(dispatched),
            };
        }

        let n = self.slots.len();
        let shared = RunShared {
            barrier: SpinBarrier::new(n),
            mins: (0..n).map(|_| AtomicU64::new(IDLE)).collect(),
            dispatched: AtomicU64::new(0),
            abort: std::sync::atomic::AtomicBool::new(false),
        };
        let windows = WindowConfig {
            matrix: self.lookahead_matrix.clone(),
            n_shards: n,
        };
        let stress_seed = self.stress_seed;
        let mut failures: Vec<String> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let shared = &shared;
                    let windows = &windows;
                    scope.spawn(move || {
                        // Containment boundary: a panicking worker is
                        // caught here; its `PoisonGuard` has already
                        // poisoned the barrier during the unwind, so
                        // peers return instead of spinning forever.
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_windows(slot, i, shared, windows, limit_ps, max_events, stress_seed)
                        }))
                        .map_err(|p| {
                            match OsntError::from_panic("shard worker", p.as_ref()) {
                                OsntError::Panicked { reason, .. } => reason,
                                _ => unreachable!("from_panic always yields Panicked"),
                            }
                        })
                    })
                })
                .collect();
            for h in handles {
                if let Ok(Err(reason)) = h.join() {
                    failures.push(reason);
                }
            }
        });
        if !failures.is_empty() {
            // Surface the most informative failure: a real panic, not
            // the secondary "peer worker panicked" echoes.
            let idx = failures
                .iter()
                .position(|r| !r.contains("peer worker panicked"))
                .unwrap_or(0);
            return Err(OsntError::Panicked {
                context: "shard worker",
                reason: failures.swap_remove(idx),
            });
        }
        Ok(shared.dispatched.load(Ordering::SeqCst))
    }
}
