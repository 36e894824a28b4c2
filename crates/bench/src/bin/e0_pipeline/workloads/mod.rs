//! The four workloads. Each has two entry points with one result type:
//!
//! * `timed` — one rep through the product's public API, nothing
//!   wrapped; the end-to-end metrics come from these reps only;
//! * `traced` — one rep on the same topology assembled from the public
//!   constructors with a [`crate::spanned::Spanned`] around every
//!   component. It must reproduce the timed rep's digest and op count,
//!   which is what keeps the rebuild honest about the product path.

use crate::alloc_count::AllocCounts;
use crate::spanned::Spans;
use osnt_time::SimTime;
use std::rc::Rc;
use std::time::{Duration, Instant};

pub mod burst_linerate;
pub mod p1_legacy_load;
pub mod p2_churn;
pub mod p2_consistency;
mod testbed;

/// Input size. The benchmark always runs [`Scale::FULL`]; the unit
/// tests shrink every workload by the same rule so they finish in a
/// debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Divisor applied to each workload's frame or round count.
    pub div: u64,
}

impl Scale {
    pub const FULL: Scale = Scale { div: 1 };
}

/// What one rep produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time before the timed call: inputs, templates, rule lists,
    /// topology build.
    pub setup: Duration,
    /// Wall time of the simulation run (for `p1_legacy_load`'s timed
    /// rep: of `run_legacy`, which also builds and analyzes).
    pub run: Duration,
    /// Wall time of the analysis after the run, still inside the timed
    /// call.
    pub analyze: Duration,
    /// Units of work attempted.
    pub ops: u64,
    /// Ops whose outcome breaks the workload's ledger.
    pub failed: u64,
    /// Events the kernel dispatched (`None` where the public API does
    /// not say).
    pub events: Option<u64>,
    /// Digest of every simulated result the rep produced.
    pub digest: u64,
    /// Allocations inside the timed call (traced reps only).
    pub allocs: Option<AllocCounts>,
}

impl Rep {
    /// Wall time of the timed call.
    pub fn wall(&self) -> Duration {
        self.run + self.analyze
    }
}

/// Called by a rep between the slices of its timed call, outside the
/// timed time: the caller runs the reference kernel there, so that the
/// machine's speed is sampled every few tens of milliseconds of the rep
/// (see [`crate::reference`]).
pub type Pace<'a> = &'a mut dyn FnMut();

/// Slices per rep, for the workloads that drive their simulation
/// themselves: ~40–60 ms of wall time each.
const SLICES: u64 = 4;

/// Run a simulation to `horizon` through its public `run_until`, in
/// [`SLICES`] steps: equal shares of the `active` window of simulated
/// time (where the traffic is), the last one on to the horizon. Returns
/// the wall time inside `run_until`; `pace` runs between the steps,
/// untimed. Stepping moves no simulated result: `run_until` is
/// resumable and the event order is total.
pub(crate) fn run_sliced(
    mut run_until: impl FnMut(SimTime),
    active: (SimTime, SimTime),
    horizon: SimTime,
    pace: Pace<'_>,
) -> Duration {
    let (from, to) = (active.0.as_ps(), active.1.as_ps());
    let mut wall = Duration::ZERO;
    for i in 1..=SLICES {
        let limit = match i {
            SLICES => horizon,
            _ => SimTime::from_ps(from + (to - from) / SLICES * i),
        };
        let t = Instant::now();
        run_until(limit);
        wall += t.elapsed();
        if i < SLICES {
            pace();
        }
    }
    wall
}

/// Which analysis a workload's `analyze` span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeLayer {
    Core,
    Oflops,
}

pub struct Workload {
    pub name: &'static str,
    pub analyze_layer: AnalyzeLayer,
    pub timed: fn(seed: u64, scale: Scale, pace: Pace<'_>) -> Rep,
    pub traced: fn(seed: u64, scale: Scale, spans: &Rc<Spans>, pace: Pace<'_>) -> Rep,
}

pub const WORKLOADS: [Workload; 4] = [
    p1_legacy_load::WORKLOAD,
    p2_consistency::WORKLOAD,
    p2_churn::WORKLOAD,
    burst_linerate::WORKLOAD,
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Build the rep's topology and time the build: the rep's set-up.
pub(crate) fn timed_setup<T>(build: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let built = build();
    (t.elapsed(), built)
}

/// A second, decorrelated seed from the run's one `--seed`.
pub(crate) fn derive_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser over (seed, stream).
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug build, large enough that every workload
    /// still reaches its steady state (rules installed, table window
    /// full, rewrite done).
    const SMALL: Scale = Scale { div: 25 };

    #[test]
    fn same_seed_same_digest_and_the_traced_rebuild_agrees() {
        for w in &WORKLOADS {
            let a = (w.timed)(3, SMALL, &mut || ());
            let b = (w.timed)(3, SMALL, &mut || ());
            assert!(a.ops > 0, "{}: no ops", w.name);
            assert_eq!(a.failed, 0, "{}: failed ops", w.name);
            assert_eq!((a.digest, a.ops), (b.digest, b.ops), "{}", w.name);
            let spans = Spans::new();
            let t = (w.traced)(3, SMALL, &spans, &mut || ());
            assert_eq!((t.digest, t.ops), (a.digest, a.ops), "{}", w.name);
            if let (Some(te), Some(ae)) = (t.events, a.events) {
                assert_eq!(te, ae, "{}: event count moved under spans", w.name);
            }
            assert!(spans.total_ns() > 0.0, "{}: no span recorded", w.name);
        }
    }

    #[test]
    fn different_seed_different_digest() {
        for w in &WORKLOADS {
            let a = (w.timed)(3, SMALL, &mut || ());
            let b = (w.timed)(4, SMALL, &mut || ());
            assert_ne!(a.digest, b.digest, "{}", w.name);
            assert_eq!(b.failed, 0, "{}: failed ops on the second seed", w.name);
        }
    }
}
