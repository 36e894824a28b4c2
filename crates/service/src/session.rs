//! Session vocabulary: what a tenant submits, what it is allowed to
//! consume, and how its run ends.
//!
//! A *session* is one supervised sweep owned by one tenant. The service
//! tracks it through a strict state machine:
//!
//! ```text
//! submitted ─┬─ rejected                      (never admitted)
//!            └─ queued ─┬─ shed               (overload policy)
//!                       └─ running ─┬─ completed → published (once)
//!                                   ├─ backoff → queued      (worker crash)
//!                                   └─ failed                (quota / abort /
//!                                                             retries exhausted)
//! ```
//!
//! Every terminal class is counted in the service's
//! [`SessionCounts`](osnt_chaos::SessionCounts) ledger, which the
//! [`InvariantAuditor`](osnt_chaos::InvariantAuditor) balances:
//! `admitted + rejected == submitted`, `completed + shed + failed ==
//! admitted`, and `published == completed` (at-most-once publication).

use std::time::Duration;

use osnt_core::SweepConfig;
use osnt_time::SimDuration;

/// A session identifier: assigned at submission, monotonically
/// increasing in submission order (which makes every admission and
/// shedding decision replayable from the submission sequence alone).
pub type SessionId = u64;

/// What a session may consume. Exceeding a budget cancels (or, for the
/// capture cap, degrades) *that session only* — never a sibling.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionQuota {
    /// Cumulative simulated-time budget across all of the session's
    /// phases (the discrete-event analogue of a CPU quota). Each phase's
    /// progress probe carries what is left of it as its sim limit, so an
    /// over-budget session aborts at its own next heartbeat and is
    /// classed `Failed`. `None` = unmetered.
    pub sim_budget: Option<SimDuration>,
    /// Wall-clock deadline measured from the session's first dispatch
    /// (crash backoff and retries count against it). `None` = no
    /// deadline.
    pub wall_deadline: Option<Duration>,
    /// Capture-memory cap (packets buffered by the monitor core),
    /// lowered onto `LatencyExperiment::capture_limit`. This quota
    /// degrades instead of cancelling: overflow frames are shed and
    /// accounted in the report's `capture_shed`. `None` = unbounded.
    pub capture_cap: Option<usize>,
}

/// A tenant's submission: who is asking, how it shares the service,
/// and what to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Tenant identity; queue bounds and weighted-fair scheduling are
    /// per tenant.
    pub tenant: String,
    /// Weighted-fair share (≥ 1). A weight-4 tenant drains its backlog
    /// at 4× the virtual rate of a weight-1 tenant.
    pub weight: u32,
    /// Shedding class: under overload, *queued* sessions with the
    /// lowest priority are shed first. Higher = more important.
    pub priority: u8,
    /// The supervised sweep to run.
    pub sweep: SweepConfig,
    /// Resource budgets.
    pub quota: SessionQuota,
    /// Chaos injection: kill the worker (SIGKILL-equivalent crash, see
    /// `SupervisorConfig::crash_after_appends`) at the k-th journal
    /// append of the session's *first* attempt. The retry resumes from
    /// the journal. Lowered from a chaos plan's `worker-kill` episode.
    pub kill_after_appends: Option<u64>,
}

impl SessionSpec {
    /// A session for `tenant` with default weight/priority/quota and a
    /// default sweep.
    pub fn new(tenant: impl Into<String>) -> Self {
        SessionSpec {
            tenant: tenant.into(),
            weight: 1,
            priority: 0,
            sweep: SweepConfig::default(),
            quota: SessionQuota::default(),
            kill_after_appends: None,
        }
    }
}

/// The admission decision, returned synchronously from `submit`.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Queued; the id retrieves the outcome.
    Admitted {
        /// The assigned session id.
        session: SessionId,
    },
    /// Not admitted — the queue bound would be violated and the
    /// session does not outrank any queued victim. `retry_after` is an
    /// honest backlog estimate (queue depth ahead of this submission,
    /// divided by worker parallelism, times the configured per-session
    /// cost), not a magic constant.
    Rejected {
        /// Suggested resubmission delay.
        retry_after: Duration,
    },
}

/// How an *admitted* session ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// Every phase ran; the report was published (exactly once).
    Completed,
    /// Dropped from the queue by the overload policy before it ever
    /// ran, with full accounting — shed is a *graceful* class, distinct
    /// from failure.
    Shed {
        /// Which policy decision shed it (stable, machine-matchable).
        reason: String,
    },
    /// Cancelled (quota escalation, stall abort) or crash retries
    /// exhausted.
    Failed {
        /// Root cause, e.g. `quota sim-budget: …`.
        reason: String,
    },
}

impl SessionOutcome {
    /// Stable class name for tables and wire encoding.
    pub fn class(&self) -> &'static str {
        match self {
            SessionOutcome::Completed => "completed",
            SessionOutcome::Shed { .. } => "shed",
            SessionOutcome::Failed { .. } => "failed",
        }
    }
}

/// The terminal record of an admitted session.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// The session id.
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: String,
    /// Shedding class it was submitted with.
    pub priority: u8,
    /// How it ended.
    pub outcome: SessionOutcome,
    /// Dispatch attempts (1 for a clean run; +1 per crash retry).
    pub attempts: u32,
    /// The rendered report for a completed session — deterministic
    /// text, byte-identical whether or not the run crashed and
    /// resumed. `None` unless completed.
    pub report: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classes_are_stable() {
        assert_eq!(SessionOutcome::Completed.class(), "completed");
        assert_eq!(SessionOutcome::Shed { reason: "x".into() }.class(), "shed");
        assert_eq!(
            SessionOutcome::Failed { reason: "y".into() }.class(),
            "failed"
        );
    }

    #[test]
    fn spec_defaults_are_sane() {
        let s = SessionSpec::new("alice");
        assert_eq!(s.weight, 1);
        assert_eq!(s.priority, 0);
        assert_eq!(s.quota, SessionQuota::default());
        assert!(s.kill_after_appends.is_none());
    }
}
