//! The global invariant auditor.
//!
//! Chaos only proves something when the system's *books balance under
//! it*. The auditor cross-checks every report a campaign run produces
//! against the conservation laws the platform promises:
//!
//! * **packet conservation** — every probe frame is accounted exactly
//!   once: delivered to the capture buffer, rejected at the MAC (CRC),
//!   dropped on the host path, shed by backpressure, eaten by the fault
//!   injector, or queued to death inside the DUT. Frames may die; they
//!   may never be *conjured*.
//! * **latency sanity** — the summary's order statistics are ordered,
//!   the mean sits inside `[min, max]`, raw samples agree with the
//!   summary that claims to describe them.
//! * **fault ledger** — the injector's own tally balances
//!   (`delivered = offered − dropped + duplicated`).
//! * **control ledger** — every control frame offered is either dropped
//!   in a disconnect window or delivered (stalled frames are delivered
//!   late, truncated frames are delivered short — never lost).
//! * **journal integrity** — a finished run's journal recovers with its
//!   header, without truncation, and with a clean close.
//!
//! Violations are collected, not thrown: a campaign audits every run
//! and reports all failures as structured
//! [`OsntError::InvariantViolated`] values. Nothing here panics.

use oflops_turbo::ControlFaultStats;
use osnt_core::experiment::LatencyReport;
use osnt_error::OsntError;
use osnt_netsim::FaultStats;

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke (stable machine-matchable name).
    pub invariant: &'static str,
    /// What the books actually said.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Collects violations across a campaign. One auditor audits many
/// runs; [`InvariantAuditor::into_result`] turns the haul into a typed
/// error (never a panic).
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    violations: Vec<Violation>,
    audited: u64,
}

impl InvariantAuditor {
    /// A fresh auditor.
    pub fn new() -> Self {
        InvariantAuditor::default()
    }

    /// Record a failed check.
    pub fn violate(&mut self, invariant: &'static str, detail: String) {
        self.violations.push(Violation { invariant, detail });
    }

    fn check(&mut self, invariant: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.violate(invariant, detail());
        }
    }

    /// Number of reports audited so far.
    pub fn audited(&self) -> u64 {
        self.audited
    }

    /// The violations observed so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `Ok` if the books balanced everywhere; otherwise the first
    /// violation as a structured error (with the total count in the
    /// detail so a CI log shows the blast radius).
    pub fn into_result(self) -> Result<u64, OsntError> {
        match self.violations.first() {
            None => Ok(self.audited),
            Some(first) => Err(OsntError::InvariantViolated {
                invariant: first.invariant,
                detail: format!(
                    "{} ({} violation(s) across {} audited report(s))",
                    first.detail,
                    self.violations.len(),
                    self.audited
                ),
            }),
        }
    }

    /// Audit one latency report. `label` names the run in violation
    /// details; `dut_may_drop` permits an un-attributed shortfall
    /// *inside the DUT* (a saturating output queue) — scenarios that
    /// never oversubscribe the DUT pass `false` and the ledger must
    /// balance to zero.
    pub fn audit_latency(&mut self, label: &str, r: &LatencyReport, dut_may_drop: bool) {
        self.audited += 1;
        let f = r.fault_stats.unwrap_or_default();

        // The fault injector's own books must balance first.
        self.check(
            "fault-ledger",
            f.delivered == f.offered - f.dropped + f.duplicated,
            || {
                format!(
                    "{label}: delivered {} != offered {} - dropped {} + duplicated {}",
                    f.delivered, f.offered, f.dropped, f.duplicated
                )
            },
        );
        self.check("fault-ledger", f.dropped_in_burst <= f.dropped, || {
            format!(
                "{label}: dropped_in_burst {} exceeds dropped {}",
                f.dropped_in_burst, f.dropped
            )
        });
        // The injector link is bidirectional: the DUT may flood a
        // handful of frames back out its probe-ingress port (before MAC
        // learning converges), and those strays are offered to the
        // reverse direction. The injector must therefore see at least
        // every generated probe frame; the surplus bounds how far the
        // per-direction split is unknowable.
        let strays = if r.fault_stats.is_some() {
            self.check("fault-ledger", f.offered >= r.probe_sent, || {
                format!(
                    "{label}: injector saw {} frames but the generator sent {}",
                    f.offered, r.probe_sent
                )
            });
            f.offered.saturating_sub(r.probe_sent)
        } else {
            0
        };

        // Packet conservation: frames on the wire past the injector
        // vs frames accounted at the capture side. Drops/duplicates may
        // have hit reverse-direction strays instead of probe frames, so
        // the on-wire count is exact only up to `strays`.
        let on_wire = r.probe_sent as i128 - f.dropped as i128 + f.duplicated as i128;
        let accounted =
            (r.probe_received as u64 + r.crc_fail + r.host_drops + r.capture_shed) as i128;
        let strays = strays as i128;
        self.check("packet-conservation", accounted <= on_wire + strays, || {
            format!(
                "{label}: capture side accounts {accounted} frames but only {on_wire} (+{strays} strays) were on the wire (sent {} - fault-dropped {} + duplicated {})",
                r.probe_sent, f.dropped, f.duplicated
            )
        });
        if !dut_may_drop {
            self.check(
                "packet-conservation",
                accounted + strays >= on_wire && accounted <= on_wire + strays,
                || {
                    format!(
                        "{label}: frame(s) vanished without a ledger entry ({on_wire} on the wire +-{strays} strays, {accounted} accounted)",
                    )
                },
            );
        }

        // The loss field is derived, not free: recompute it.
        let loss = 1.0 - r.probe_received as f64 / r.probe_sent as f64;
        self.check(
            "loss-consistency",
            r.probe_sent > 0 && (r.loss - loss).abs() < 1e-9,
            || format!("{label}: reported loss {} != recomputed {loss}", r.loss),
        );

        // Latency summary sanity.
        if let Some(s) = &r.latency {
            let ordered = s.min_ns <= s.p50_ns
                && s.p50_ns <= s.p90_ns
                && s.p90_ns <= s.p99_ns
                && s.p99_ns <= s.max_ns * (1.0 + 1e-9);
            self.check("latency-order", ordered, || {
                format!(
                    "{label}: order statistics out of order: min {} p50 {} p90 {} p99 {} max {}",
                    s.min_ns, s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns
                )
            });
            self.check(
                "latency-order",
                s.mean_ns >= s.min_ns && s.mean_ns <= s.max_ns,
                || {
                    format!(
                        "{label}: mean {} outside [{}, {}]",
                        s.mean_ns, s.min_ns, s.max_ns
                    )
                },
            );
            self.check(
                "latency-order",
                s.stddev_ns >= 0.0 && s.jitter_ns >= 0.0,
                || {
                    format!(
                        "{label}: negative dispersion ({}, {})",
                        s.stddev_ns, s.jitter_ns
                    )
                },
            );
            self.check("latency-count", s.count <= r.probe_received, || {
                format!(
                    "{label}: {} summarised samples from {} captured frames",
                    s.count, r.probe_received
                )
            });
            if let Some(raw) = &r.raw_latencies_ps {
                self.check("latency-count", raw.len() == s.count, || {
                    format!(
                        "{label}: {} raw samples vs summary count {}",
                        raw.len(),
                        s.count
                    )
                });
                // Timestamp causality: every recorded latency is the
                // difference of a capture stamp and an earlier TX
                // stamp, within the summary's own envelope.
                let min_ps = s.min_ns * 1e3 - 1.0;
                let max_ps = s.max_ns * 1e3 + 1.0;
                if let Some(&bad) = raw
                    .iter()
                    .find(|&&d| (d as f64) < min_ps || (d as f64) > max_ps)
                {
                    self.violate(
                        "timestamp-causality",
                        format!(
                            "{label}: raw sample {bad} ps outside the summary envelope [{min_ps}, {max_ps}]"
                        ),
                    );
                }
            }
        } else {
            self.check(
                "latency-count",
                r.raw_latencies_ps.as_ref().is_none_or(Vec::is_empty),
                || format!("{label}: raw samples recorded but the summary says none survived"),
            );
        }

        // Backpressure accounting: shedding is explicit, never ambient.
        self.check(
            "shed-accounting",
            r.capture_shed == 0 || r.probe_received > 0,
            || {
                format!(
                    "{label}: {} frames shed but nothing captured — the bound starved the run",
                    r.capture_shed
                )
            },
        );
    }

    /// Audit the control-channel ledger after the harness drained
    /// (every stall window closed): offered frames are either dropped
    /// in a disconnect window or delivered — stalls delay, truncation
    /// shortens, neither loses.
    pub fn audit_control(&mut self, label: &str, s: &ControlFaultStats, sink_rx: u64) {
        self.audited += 1;
        self.check(
            "control-ledger",
            s.offered == s.dropped + s.delivered,
            || {
                format!(
                    "{label}: offered {} != dropped {} + delivered {}",
                    s.offered, s.dropped, s.delivered
                )
            },
        );
        self.check("control-ledger", s.truncated <= s.delivered, || {
            format!(
                "{label}: {} truncated frames but only {} delivered",
                s.truncated, s.delivered
            )
        });
        self.check("control-ledger", sink_rx == s.delivered, || {
            format!(
                "{label}: sink received {sink_rx} frames but the channel claims {} delivered",
                s.delivered
            )
        });
    }

    /// Audit a finished run's journal bytes: recovers, has its header,
    /// is not torn, closed cleanly, and every frame passed its CRC
    /// (recovery itself rejects bad frames — a shortfall here means a
    /// frame was silently mangled).
    pub fn audit_journal_bytes(&mut self, label: &str, bytes: &[u8]) {
        self.audited += 1;
        match osnt_supervisor::recover_bytes(bytes) {
            Err(e) => self.violate(
                "journal-integrity",
                format!("{label}: finished journal does not recover: {e}"),
            ),
            Ok(rec) => {
                self.check("journal-integrity", rec.header.is_some(), || {
                    format!("{label}: finished journal recovered without a header")
                });
                self.check("journal-integrity", !rec.truncated, || {
                    format!(
                        "{label}: finished journal is torn (valid to {} of {} bytes)",
                        rec.valid_len,
                        bytes.len()
                    )
                });
                self.check("journal-integrity", rec.clean_close, || {
                    format!("{label}: finished journal has no clean close")
                });
                self.check(
                    "journal-integrity",
                    rec.valid_len == bytes.len() as u64,
                    || {
                        format!(
                            "{label}: {} byte(s) of CRC-rejected tail in a finished journal",
                            bytes.len() as u64 - rec.valid_len
                        )
                    },
                );
            }
        }
    }

    /// Audit classifier parity: after an identical flow_mod history the
    /// flow table must hold exactly the rules its naive model
    /// (`reference`) holds.
    pub fn audit_classifier_parity(&mut self, label: &str, reference: &str, got: &str) {
        self.audited += 1;
        self.check("classifier-parity", reference == got, || {
            let at = reference
                .bytes()
                .zip(got.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(reference.len().min(got.len()));
            format!("{label}: flow-table contents diverge from the naive model at byte {at}")
        });
    }
}

/// The run service's session-conservation books, in plain counts so
/// the auditor stays independent of the service crate (the service
/// depends on chaos, not the other way around). Snapshot them *after*
/// the service drains — in-flight sessions are counted as admitted but
/// not yet settled, and the ledger only balances at rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Sessions the wire protocol accepted a submission for.
    pub submitted: u64,
    /// Sessions past admission control (queued or executed).
    pub admitted: u64,
    /// Sessions refused at the door (`Rejected{retry_after}`).
    pub rejected: u64,
    /// Sessions that ran to completion and produced a report.
    pub completed: u64,
    /// Queued sessions shed under overload, with notice.
    pub shed: u64,
    /// Sessions that failed terminally (quota kill, bad config,
    /// retries exhausted).
    pub failed: u64,
    /// Reports published to clients. At-most-once: never above
    /// `completed`, and exactly `completed` once the service drains.
    pub published: u64,
    /// Worker-crash retries (informational; not part of conservation —
    /// a retried session still settles exactly once).
    pub retries: u64,
}

impl InvariantAuditor {
    /// Audit the run service's session-conservation ledger after a
    /// drain: every submitted session settles exactly once — admitted
    /// sessions as completed, shed, or failed; the rest rejected at
    /// the door — and every completed session's report is published
    /// exactly once.
    pub fn audit_session_ledger(&mut self, label: &str, c: &SessionCounts) {
        self.audited += 1;
        self.check(
            "session-ledger",
            c.admitted + c.rejected == c.submitted,
            || {
                format!(
                    "{label}: admitted {} + rejected {} != submitted {}",
                    c.admitted, c.rejected, c.submitted
                )
            },
        );
        self.check(
            "session-ledger",
            c.completed + c.shed + c.failed == c.admitted,
            || {
                format!(
                    "{label}: completed {} + shed {} + failed {} != admitted {}",
                    c.completed, c.shed, c.failed, c.admitted
                )
            },
        );
        self.check("session-publication", c.published <= c.completed, || {
            format!(
                "{label}: {} reports published for {} completed sessions (at-most-once broken)",
                c.published, c.completed
            )
        });
        self.check("session-publication", c.published == c.completed, || {
            format!(
                "{label}: {} completed session(s) never published a report",
                c.completed.saturating_sub(c.published)
            )
        });
    }

    /// Audit the fault ledger of a merged roll-up (the campaign
    /// accumulates per-run [`FaultStats`] with
    /// [`FaultStats::accumulate`]; the merged books must still
    /// balance).
    pub fn audit_fault_rollup(&mut self, label: &str, f: &FaultStats) {
        self.check(
            "fault-ledger",
            f.delivered == f.offered - f.dropped + f.duplicated
                && f.dropped_in_burst <= f.dropped,
            || {
                format!(
                    "{label}: merged roll-up does not balance: offered {} dropped {} duplicated {} delivered {}",
                    f.offered, f.dropped, f.duplicated, f.delivered
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> LatencyReport {
        LatencyReport {
            background_load: 0.5,
            probe_sent: 100,
            probe_received: 100,
            loss: 0.0,
            background_sent: 0,
            latency: Some(osnt_core::latency::Summary {
                count: 90,
                min_ns: 800.0,
                max_ns: 900.0,
                mean_ns: 850.0,
                stddev_ns: 5.0,
                p50_ns: 848.0,
                p90_ns: 880.0,
                p99_ns: 895.0,
                jitter_ns: 2.0,
            }),
            probe_gen_dropped: 0,
            crc_fail: 0,
            filtered_out: 0,
            host_drops: 0,
            fault_stats: None,
            raw_latencies_ps: None,
            capture_shed: 0,
        }
    }

    #[test]
    fn balanced_books_pass() {
        let mut a = InvariantAuditor::new();
        a.audit_latency("clean", &clean_report(), false);
        assert!(a.violations().is_empty());
        assert_eq!(a.into_result().unwrap(), 1);
    }

    #[test]
    fn conjured_frames_are_caught() {
        let mut a = InvariantAuditor::new();
        let mut r = clean_report();
        r.probe_received = 120; // more captured than sent
        r.loss = 1.0 - 120.0 / 100.0;
        a.audit_latency("conjured", &r, true);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "packet-conservation"));
    }

    #[test]
    fn silent_loss_is_caught_when_the_dut_cannot_drop() {
        let mut a = InvariantAuditor::new();
        let mut r = clean_report();
        r.probe_received = 90; // 10 frames vanished, no ledger entry
        r.loss = 0.1;
        a.audit_latency("vanished", &r, false);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "packet-conservation"));
        // The same books pass when the DUT is allowed to drop.
        let mut b = InvariantAuditor::new();
        b.audit_latency("vanished", &r, true);
        assert!(b.violations().is_empty());
    }

    #[test]
    fn fault_ledger_imbalance_is_caught() {
        let mut a = InvariantAuditor::new();
        let mut r = clean_report();
        r.fault_stats = Some(FaultStats {
            offered: 100,
            dropped: 5,
            delivered: 96, // should be 95
            ..FaultStats::default()
        });
        r.probe_received = 95;
        r.loss = 0.05;
        a.audit_latency("imbalanced", &r, false);
        assert!(a.violations().iter().any(|v| v.invariant == "fault-ledger"));
    }

    #[test]
    fn disordered_summary_and_bad_raw_samples_are_caught() {
        let mut a = InvariantAuditor::new();
        let mut r = clean_report();
        let s = r.latency.as_mut().unwrap();
        s.p99_ns = s.p50_ns - 10.0;
        a.audit_latency("disorder", &r, false);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "latency-order"));

        let mut b = InvariantAuditor::new();
        let mut r = clean_report();
        r.latency.as_mut().unwrap().count = 2;
        r.raw_latencies_ps = Some(vec![850_000, 5_000_000_000]); // way past max
        b.audit_latency("causality", &r, false);
        assert!(b
            .violations()
            .iter()
            .any(|v| v.invariant == "timestamp-causality"));
    }

    #[test]
    fn loss_field_is_recomputed_not_trusted() {
        let mut a = InvariantAuditor::new();
        let mut r = clean_report();
        r.loss = 0.25; // books say 0
        a.audit_latency("lying-loss", &r, false);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "loss-consistency"));
    }

    #[test]
    fn control_ledger_balances_or_fails() {
        let mut a = InvariantAuditor::new();
        let ok = ControlFaultStats {
            offered: 50,
            dropped: 10,
            stalled: 5,
            truncated: 3,
            delivered: 40,
        };
        a.audit_control("ok", &ok, 40);
        assert!(a.violations().is_empty());
        a.audit_control("short-sink", &ok, 39);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "control-ledger"));
        let e = a.into_result().unwrap_err();
        assert!(matches!(e, OsntError::InvariantViolated { .. }));
    }

    #[test]
    fn session_ledger_balances_or_fails() {
        let mut a = InvariantAuditor::new();
        let ok = SessionCounts {
            submitted: 250,
            admitted: 230,
            rejected: 20,
            completed: 200,
            shed: 25,
            failed: 5,
            published: 200,
            retries: 7,
        };
        a.audit_session_ledger("ok", &ok);
        assert!(a.violations().is_empty(), "{:?}", a.violations());

        // A session that vanished without settling.
        let mut lost = ok;
        lost.shed = 24;
        a.audit_session_ledger("lost", &lost);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "session-ledger"));

        // Double publication breaks at-most-once.
        let mut a = InvariantAuditor::new();
        let mut twice = ok;
        twice.published = 201;
        a.audit_session_ledger("twice", &twice);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "session-publication"));

        // A completed session whose report never went out.
        let mut a = InvariantAuditor::new();
        let mut silent = ok;
        silent.published = 199;
        a.audit_session_ledger("silent", &silent);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "session-publication"));

        // Rejections hiding inside admission.
        let mut a = InvariantAuditor::new();
        let mut off_door = ok;
        off_door.rejected = 19;
        a.audit_session_ledger("door", &off_door);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "session-ledger"));
    }

    #[test]
    fn violations_become_structured_errors_never_panics() {
        let mut a = InvariantAuditor::new();
        a.audit_journal_bytes("garbage", b"not a journal at all");
        let err = a.into_result().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("journal-integrity"), "{msg}");
    }
}
