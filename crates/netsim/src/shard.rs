//! Parallel execution of wire-disjoint component groups.
//!
//! A *shard* is a union of wire-connected component groups: every link
//! has both ends on one shard, so no event ever leaves the shard that
//! scheduled it (timers target their own component, a delivery the far
//! end of one of its wires; MAC completions never leave their port).
//! Each shard therefore runs the ordinary single-threaded [`Kernel`]
//! dispatch loop on its own worker thread straight to the limit, with
//! nothing to wait for: no windows, no barrier, no channel between
//! shards. This is the paper's four independent 10 GbE ports, one core
//! each.
//!
//! A connected topology is one group and so one shard; cutting through
//! links is not supported (the conservative-window executive that did
//! it ran the product's only cut topology 9–10× slower than one kernel —
//! DESIGN.md §5d has the numbers).
//!
//! # Determinism
//!
//! The kernel's total event order is ascending `(time, event_key)`
//! where the key packs `(source component, per-source sequence)` — see
//! [`crate::kernel::event_key`]. The key is computed from the *source's
//! own* scheduling history only, so each shard's queue dispatches its
//! restriction of the order the unsharded [`crate::Sim`] would, and
//! since per-component state is only ever touched by the owning shard,
//! every handler observes exactly the state it would have observed
//! single-threaded: any shard count produces byte-identical results.
//!
//! # Safety model
//!
//! Components are plain `Box<dyn Component>` — deliberately **not**
//! `Send`-bounded, because the single-threaded simulator's idiom is
//! `Rc<RefCell<...>>` result sharing. [`ShardSlot`] asserts `Send`
//! under a confinement contract documented on the type; the rule for
//! users is on [`crate::SimBuilder::build_auto_sharded`].

use crate::component::{Component, ComponentId};
use crate::engine::run_kernel_until;
use crate::kernel::Kernel;
use crate::stats::{PortCounters, QueueCounts};
use osnt_error::OsntError;
use osnt_time::SimTime;
use std::sync::Arc;

/// Assign every component to one of at most `n_shards` shards by
/// wire-connectivity: components joined (transitively) by a link stay
/// on one shard, and the resulting connected groups are packed
/// largest-first onto the least-loaded shard. Deterministic for a given
/// topology. `edges` lists `(a, b)` component pairs that share a link.
/// Returns each component's shard and the number of shards used —
/// `min(n_shards, groups)`, every one of them non-empty.
fn partition(
    n_components: usize,
    n_shards: usize,
    edges: impl Iterator<Item = (ComponentId, ComponentId)>,
) -> (Vec<usize>, usize) {
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
    for (a, b) in edges {
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
    let used = n_shards.min(groups.len()).max(1);
    let mut assign = vec![0; n_components];
    let mut load = vec![0usize; used];
    for (_, members) in groups {
        let shard = (0..used).min_by_key(|&s| (load[s], s)).expect(">=1 shard");
        load[shard] += members.len();
        for m in members {
            assign[m] = shard;
        }
    }
    (assign, used)
}

/// One shard's worth of simulation state: a full [`Kernel`] replica
/// (only the rows of components this shard owns are ever touched) plus
/// the owned components.
struct ShardSlot {
    kernel: Kernel,
    /// Indexed by global component id; `Some` only for owned ids.
    components: Vec<Option<Box<dyn Component>>>,
}

// SAFETY: `ShardSlot` contains non-`Send` state (`Box<dyn Component>`
// holding `Rc` handles, pool-backed packets queued in the kernel). It is
// sound to move a `&mut ShardSlot` to a worker thread because the slot
// is *confined*:
//
// 1. Each slot is borrowed by exactly one worker per run; workers are
//    scoped threads, so the main thread is blocked until every worker
//    has joined. Spawn and join provide the happens-before edges that
//    make the alternating (main ↔ worker) access sequential.
// 2. Nothing crosses between slots during a run. A kernel schedules an
//    event only for the component that asked (timers) or across one of
//    its wires (`Deliver`, `DeliverBurst`), and `ShardedSim::build` asserts
//    that both ends of every wire are on one slot — the partition is
//    computed here, never supplied — so every packet, burst and pool
//    `Rc` created on a slot's thread is consumed and dropped on that
//    thread. There is no channel, queue or shared counter between
//    slots; the one shared object is the `Arc<ProgressProbe>`, which is
//    `Sync` (atomics only).
// 3. `Rc` graphs the wiring does not show are the caller's contract
//    (see `SimBuilder::build_auto_sharded`): components that share
//    non-`Send` state must be wire-connected, and harness-side `Rc`
//    aliases (result vectors etc.) are only touched by the main thread
//    between runs, never during one — the same discipline
//    `thread::scope` users apply to captured `&mut`.
#[allow(unsafe_code)]
unsafe impl Send for ShardSlot {}

/// A simulation partitioned across worker threads, one per group of
/// wire-connected components. Built with
/// [`crate::SimBuilder::build_auto_sharded`]; produces byte-identical
/// per-component state, counters and event streams to [`crate::Sim`].
pub struct ShardedSim {
    slots: Vec<ShardSlot>,
    shard_of: Vec<usize>,
    started: bool,
}

impl ShardedSim {
    pub(crate) fn build(
        kernel: Kernel,
        mut components: Vec<Option<Box<dyn Component>>>,
        n_shards: usize,
    ) -> ShardedSim {
        assert!(
            kernel.pending_events() == 0,
            "build_auto_sharded before scheduling events"
        );
        let (shard_of, used) = partition(components.len(), n_shards, kernel.wire_endpoints());
        // The confinement contract on `ShardSlot` rests on this.
        for (src, peer) in kernel.wire_endpoints() {
            assert_eq!(
                shard_of[src.index()],
                shard_of[peer.index()],
                "wire between components {} and {} leaves its shard",
                src.index(),
                peer.index(),
            );
        }
        let slots = (0..used)
            .map(|s| ShardSlot {
                kernel: kernel.replicate_for_shard(),
                components: components
                    .iter_mut()
                    .enumerate()
                    .map(|(id, c)| if shard_of[id] == s { c.take() } else { None })
                    .collect(),
            })
            .collect();
        ShardedSim {
            slots,
            shard_of,
            started: false,
        }
    }

    /// Number of shards (worker threads used per run): the requested
    /// count, or the number of wire-connected groups if that is smaller.
    pub fn n_shards(&self) -> usize {
        self.slots.len()
    }

    /// Current simulated time: the latest shard clock. All shards
    /// agree after a run to a limit; after a drain or an abort each
    /// stands at the last thing that happened on it.
    pub fn now(&self) -> SimTime {
        self.slots
            .iter()
            .map(|s| s.kernel.now())
            .max()
            .expect("at least one shard")
    }

    /// Counter snapshot for (`comp`, `port`), read from the owning
    /// shard (the only one that ever updates it).
    pub fn counters(&self, comp: ComponentId, port: usize) -> PortCounters {
        self.slots[self.shard_of[comp.index()]]
            .kernel
            .counters(comp, port)
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.kernel.events_dispatched())
            .sum()
    }

    /// Events pending across all shards.
    pub fn pending_events(&self) -> usize {
        self.slots.iter().map(|s| s.kernel.pending_events()).sum()
    }

    /// [`Kernel::queue_counts`] summed across all shards.
    pub fn queue_counts(&self) -> QueueCounts {
        let mut sum = QueueCounts::default();
        for slot in &self.slots {
            let counts = slot.kernel.queue_counts();
            sum.lane_pushes += counts.lane_pushes;
            sum.wheel_pushes += counts.wheel_pushes;
        }
        sum
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Run `on_start` in global component-id order, each on its
        // owning shard's kernel, on this thread (workers not yet
        // spawned).
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
    /// raised abort flag stops each worker at its next heartbeat.
    /// Attach before the first `run_*` call.
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
    /// the worker boundary and surfaces as [`OsntError::Panicked`]
    /// carrying the panic's own message, after its peers — which it
    /// cannot affect — have run to the limit.
    pub fn try_run_until(&mut self, limit: SimTime) -> Result<u64, OsntError> {
        self.run_internal(limit, u64::MAX)
    }

    /// [`ShardedSim::run_to_quiescence`] with panic containment — see
    /// [`ShardedSim::try_run_until`]. The `max_events` overrun is also
    /// reported as an [`OsntError::Panicked`] rather than unwinding.
    pub fn try_run_to_quiescence(&mut self, max_events: u64) -> Result<u64, OsntError> {
        self.run_internal(SimTime::MAX, max_events)
    }

    fn run_internal(&mut self, limit: SimTime, max_events: u64) -> Result<u64, OsntError> {
        self.start_if_needed();
        // Containment boundary: one worker's panic is that worker's
        // result. Every worker gets the whole event budget; the sum is
        // checked below.
        let run = move |slot: &mut ShardSlot| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_kernel_until(&mut slot.kernel, &mut slot.components, limit, max_events)
            }))
            .map_err(|p| OsntError::from_panic("shard worker", p.as_ref()))
        };
        let results: Vec<Result<u64, OsntError>> = match &mut self.slots[..] {
            // Single shard: no threads — `Sim`'s own loop.
            [only] => vec![run(only)],
            slots => std::thread::scope(|scope| {
                let handles: Vec<_> = slots
                    .iter_mut()
                    .map(|slot| scope.spawn(move || run(slot)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("worker panics are caught inside the worker")
                    })
                    .collect()
            }),
        };
        let dispatched = results.into_iter().sum::<Result<u64, _>>()?;
        if dispatched > max_events {
            return Err(OsntError::Panicked {
                context: "shard worker",
                reason: format!("simulation did not quiesce within {max_events} events"),
            });
        }
        Ok(dispatched)
    }
}
