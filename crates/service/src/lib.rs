//! # Multi-tenant run service
//!
//! The paper's platform is a shared lab instrument: many users point
//! experiments at one tester and expect isolation, fairness, and a
//! straight answer when the box is full. This crate is that layer for
//! the simulated platform — a run *service* that schedules concurrent
//! experiment sessions across a bounded pool of workers, each session
//! a supervised sweep with the full journal/resume lifecycle
//! underneath it:
//!
//! * **Admission control** ([`scheduler`]) — bounded global and
//!   per-tenant queues. A full service answers an honest
//!   [`Rejected{retry_after}`](Admission::Rejected) derived from the
//!   actual backlog, never an unbounded queue or a silent drop.
//! * **Weighted-fair scheduling** ([`scheduler`]) — start-time fair
//!   queueing across tenants in integer virtual time; dispatch order
//!   is a deterministic function of the submission sequence.
//! * **Per-session quotas** ([`service`]) — a simulated-time budget, a
//!   wall deadline, and a capture-memory cap. The first two ride on
//!   the session's own progress probes, so an over-quota session stops
//!   *itself*; siblings on the same pool never feel it.
//! * **Crash retry** ([`service`]) — a worker crash re-queues the
//!   session with decorrelated-jitter backoff; the retry resumes from
//!   the session journal and reports **byte-identically** to an
//!   uninterrupted run, published at most once.
//! * **Graceful overload** ([`scheduler`]) — beyond the bounds, the
//!   lowest-priority *queued* sessions are shed deterministically with
//!   full accounting. The ledger balances by construction and is
//!   audited by the chaos crate's
//!   [`InvariantAuditor`](osnt_chaos::InvariantAuditor):
//!   `admitted + rejected == submitted`,
//!   `completed + shed + failed == admitted`,
//!   `published == completed`.
//! * **Wire front-end** ([`wire`], [`server`]) — CRC-framed messages
//!   over TCP (`osnt serve` / `osnt submit`), in the same binary
//!   dialect as the run journal.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod scheduler;
pub mod server;
pub mod service;
pub mod session;
pub mod wire;

pub use server::{
    serve, serve_listener, serve_on, shutdown_over_tcp, submit_over_tcp, SubmitReply,
};
pub use service::{RunService, ServiceConfig};
pub use session::{Admission, SessionId, SessionOutcome, SessionQuota, SessionRecord, SessionSpec};
pub use wire::{read_frame, write_frame, Message};
