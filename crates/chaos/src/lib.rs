//! Deterministic chaos campaigns for the OSNT platform.
//!
//! This crate turns the platform's scattered fault knobs — the data
//! plane's [`FaultConfig`](osnt_netsim::FaultConfig), the control
//! plane's [`ControlFaultConfig`](oflops_turbo::ControlFaultConfig),
//! the timing layer's [`GpsSignal`](osnt_time::GpsSignal), the
//! monitor's capture bound, and the supervisor's crash injection —
//! into one declarative, seeded campaign:
//!
//! * [`plan`] — a [`ChaosPlan`] of composed fault episodes, parsed
//!   from a TOML subset or taken from the built-in corpus, *lowered*
//!   onto the existing knobs the way `FilterTable::compile()` lowers
//!   match rules. Conflicting or out-of-range episodes are typed
//!   configuration errors at lowering time, not surprises mid-run.
//! * [`audit`] — the [`InvariantAuditor`]: packet-conservation
//!   ledgers, timestamp monotonicity/causality, control ledgers, and
//!   journal integrity. Violations are structured
//!   [`OsntError`](osnt_error::OsntError) values, never panics.
//! * [`crash`] — the exhaustive crash-point sweep (kill at every
//!   journal append, resume, demand byte-identical-or-honestly-partial
//!   reports) and journal torture (torn tails + bit flips).
//! * [`campaign`] — the driver: plan × seeds, every
//!   report audited, [`FaultStats`](osnt_netsim::FaultStats) rolled up
//!   with `accumulate`.
//!
//! The determinism story is the point: the whole campaign is a pure
//! function of `(plan, seeds)`, so any violation reproduces exactly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod campaign;
pub mod crash;
pub mod plan;
pub mod toml;

pub use audit::{InvariantAuditor, SessionCounts, Violation};
pub use campaign::{
    classifier_parity_audit, run_campaign, CampaignConfig, CampaignReport, ScenarioResult,
};
pub use crash::{crash_point_sweep, journal_torture, CrashSweepReport, TortureReport};
pub use plan::{ChaosPlan, ChaosScenario, Episode, LoweredScenario, OverloadStorm};
