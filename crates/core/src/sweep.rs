//! # Supervised latency sweeps
//!
//! The standard multi-phase campaign — the load/latency curve of the
//! paper's Fig. 2 — run under the [`osnt_supervisor`] lifecycle: one
//! supervisor phase per background load, each phase stall-limited,
//! journaled, and resumable.
//!
//! The determinism contract does the heavy lifting: every phase is a
//! seeded, fully deterministic simulation, so a phase re-run after a
//! crash produces bit-for-bit the result the dead process would have —
//! which makes a resumed sweep's report **byte-identical** to an
//! uninterrupted one (pinned by `tests/supervised_sweep.rs` and the CI
//! kill-and-resume job).

use std::path::Path;

use crate::experiment::{LatencyExperiment, LatencyReport};
use crate::latency::Summary;
use osnt_error::OsntError;
use osnt_netsim::{Component, ComponentId, FaultStats, Kernel};
use osnt_packet::Packet;
use osnt_supervisor::{
    journal, Dec, Enc, PhaseCtx, PhasePayload, RunHeader, RunOutcome, Supervisor, SupervisorConfig,
};
use osnt_switch::LegacyConfig;
use osnt_time::{DriftModel, SimDuration};

/// The campaign configuration: everything that determines the sweep's
/// results. This is what the run journal's config digest covers —
/// resume refuses a journal whose digest does not match its own header.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Frame length of both streams.
    pub frame_len: usize,
    /// Probe rate as a fraction of line rate.
    pub probe_load: f64,
    /// The load axis: one supervisor phase per entry.
    pub loads: Vec<f64>,
    /// Generation window per phase.
    pub duration: SimDuration,
    /// Warm-up discarded at the head of each phase.
    pub warmup: SimDuration,
    /// RNG seed (shared by every phase; phases differ by load).
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            frame_len: 512,
            probe_load: 0.02,
            loads: vec![0.0, 0.5, 0.9],
            duration: SimDuration::from_ms(20),
            warmup: SimDuration::from_ms(5),
            seed: 1,
        }
    }
}

impl SweepConfig {
    /// Lossless binary encoding — the run header's opaque config bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.frame_len as u32);
        e.f64(self.probe_load);
        e.u64(self.duration.as_ps());
        e.u64(self.warmup.as_ps());
        e.u64(self.seed);
        e.u16(self.loads.len() as u16);
        for &l in &self.loads {
            e.f64(l);
        }
        e.into_bytes()
    }

    /// Decode what [`SweepConfig::encode`] wrote (e.g. from a journal
    /// header, to reconstruct the campaign on resume).
    pub fn decode(bytes: &[u8]) -> Result<Self, OsntError> {
        let mut d = Dec::new(bytes);
        let frame_len = d.u32()? as usize;
        let probe_load = d.f64()?;
        let duration = SimDuration::from_ps(d.u64()?);
        let warmup = SimDuration::from_ps(d.u64()?);
        let seed = d.u64()?;
        let n = d.u16()? as usize;
        let mut loads = Vec::with_capacity(n);
        for _ in 0..n {
            loads.push(d.f64()?);
        }
        Ok(SweepConfig {
            frame_len,
            probe_load,
            loads,
            duration,
            warmup,
            seed,
        })
    }

    /// The journal header for this campaign.
    pub fn header(&self) -> RunHeader {
        RunHeader {
            seed: self.seed,
            config: self.encode(),
            phases: self.loads.iter().map(|l| phase_name(*l)).collect(),
        }
    }
}

/// The supervisor phase name for a load point.
pub fn phase_name(load: f64) -> String {
    format!("load-{load:.4}")
}

/// `FaultStats` flattened into the journal's named-counter form.
pub fn fault_counters(f: &FaultStats) -> Vec<(String, u64)> {
    vec![
        ("offered".into(), f.offered),
        ("dropped".into(), f.dropped),
        ("dropped_in_burst".into(), f.dropped_in_burst),
        ("bursts".into(), f.bursts),
        ("duplicated".into(), f.duplicated),
        ("corrupted".into(), f.corrupted),
        ("reordered".into(), f.reordered),
        ("delivered".into(), f.delivered),
    ]
}

impl PhasePayload for LatencyReport {
    fn encode(&self, e: &mut Enc) {
        e.f64(self.background_load);
        e.u64(self.probe_sent);
        e.u64(self.probe_received as u64);
        e.f64(self.loss);
        e.u64(self.background_sent);
        match &self.latency {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                e.u64(s.count as u64);
                e.f64(s.min_ns);
                e.f64(s.max_ns);
                e.f64(s.mean_ns);
                e.f64(s.stddev_ns);
                e.f64(s.p50_ns);
                e.f64(s.p90_ns);
                e.f64(s.p99_ns);
                e.f64(s.jitter_ns);
            }
        }
        e.u64(self.probe_gen_dropped);
        e.u64(self.crc_fail);
        e.u64(self.filtered_out);
        e.u64(self.host_drops);
        match &self.fault_stats {
            None => e.u8(0),
            Some(f) => {
                e.u8(1);
                e.u64(f.offered);
                e.u64(f.dropped);
                e.u64(f.dropped_in_burst);
                e.u64(f.bursts);
                e.u64(f.duplicated);
                e.u64(f.corrupted);
                e.u64(f.reordered);
                e.u64(f.delivered);
            }
        }
        match &self.raw_latencies_ps {
            None => e.u8(0),
            Some(raw) => {
                e.u8(1);
                e.u32(raw.len() as u32);
                for &s in raw {
                    e.u64(s);
                }
            }
        }
        e.u64(self.capture_shed);
    }

    fn decode(d: &mut Dec) -> Result<Self, OsntError> {
        let background_load = d.f64()?;
        let probe_sent = d.u64()?;
        let probe_received = d.u64()? as usize;
        let loss = d.f64()?;
        let background_sent = d.u64()?;
        let latency = match d.u8()? {
            0 => None,
            _ => Some(Summary {
                count: d.u64()? as usize,
                min_ns: d.f64()?,
                max_ns: d.f64()?,
                mean_ns: d.f64()?,
                stddev_ns: d.f64()?,
                p50_ns: d.f64()?,
                p90_ns: d.f64()?,
                p99_ns: d.f64()?,
                jitter_ns: d.f64()?,
            }),
        };
        let probe_gen_dropped = d.u64()?;
        let crc_fail = d.u64()?;
        let filtered_out = d.u64()?;
        let host_drops = d.u64()?;
        let fault_stats = match d.u8()? {
            0 => None,
            _ => Some(FaultStats {
                offered: d.u64()?,
                dropped: d.u64()?,
                dropped_in_burst: d.u64()?,
                bursts: d.u64()?,
                duplicated: d.u64()?,
                corrupted: d.u64()?,
                reordered: d.u64()?,
                delivered: d.u64()?,
            }),
        };
        let raw_latencies_ps = match d.u8()? {
            0 => None,
            _ => {
                let n = d.u32()? as usize;
                let mut raw = Vec::with_capacity(n);
                for _ in 0..n {
                    raw.push(d.u64()?);
                }
                Some(raw)
            }
        };
        let capture_shed = d.u64()?;
        Ok(LatencyReport {
            background_load,
            probe_sent,
            probe_received,
            loss,
            background_sent,
            latency,
            probe_gen_dropped,
            crc_fail,
            filtered_out,
            host_drops,
            fault_stats,
            raw_latencies_ps,
            capture_shed,
        })
    }
}

/// A DUT that wedges: on the first frame it starts re-arming a
/// zero-delay timer forever, dispatching events without ever advancing
/// simulated time. Exactly the livelock class only a simulated-time
/// heartbeat can detect — event counts keep climbing. Demo/test
/// component for the stall-limit path (`--wedge-at-phase`).
pub struct WedgeDut;

impl Component for WedgeDut {
    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, _port: usize, _packet: Packet) {
        // Hop one picosecond so the first self-timer orders strictly
        // after the delivering event; from there the zero-delay chain in
        // `on_timer` keeps the queue's key order (same source, rising
        // counter) while virtual time stays frozen.
        kernel.schedule_timer(me, SimDuration::from_ps(1), 0);
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, _tag: u64) {
        kernel.schedule_timer(me, SimDuration::ZERO, 0);
    }

    fn name(&self) -> &str {
        "wedge-dut"
    }
}

/// The supervised campaign driver.
pub struct SupervisedSweep {
    /// What to measure.
    pub config: SweepConfig,
    /// Supervisor tuning (stall timeout, fsync batching).
    pub supervisor: SupervisorConfig,
    /// Crash injection: `abort()` the whole process immediately after
    /// this phase's start record hits the journal — deterministic
    /// SIGKILL-equivalent (no unwinding, no cleanup) for the
    /// kill-and-resume tests. Not part of the config digest: the
    /// resumed run must match an uninterrupted one.
    pub kill_at_phase: Option<u16>,
    /// Wedge injection: run this phase against [`WedgeDut`] instead of
    /// the legacy switch, livelocking it so the stall limit must abort.
    /// Not part of the config digest either.
    pub wedge_at_phase: Option<u16>,
}

impl SupervisedSweep {
    /// A sweep with default supervisor tuning and no injections.
    pub fn new(config: SweepConfig) -> Self {
        SupervisedSweep {
            config,
            supervisor: SupervisorConfig::default(),
            kill_at_phase: None,
            wedge_at_phase: None,
        }
    }

    fn run_phase(&self, phase: u16, ctx: &mut PhaseCtx<'_>) -> Result<LatencyReport, OsntError> {
        if self.kill_at_phase == Some(phase) {
            // The phase-start record is already committed; dying here
            // is indistinguishable from a SIGKILL mid-phase.
            eprintln!("osnt: crash injection armed: aborting process in phase {phase}");
            std::process::abort();
        }
        let exp = LatencyExperiment {
            frame_len: self.config.frame_len,
            probe_load: self.config.probe_load,
            background_load: self.config.loads[phase as usize],
            duration: self.config.duration,
            warmup: self.config.warmup,
            clock_model: DriftModel::ideal(),
            seed: self.config.seed,
            probe_faults: None,
            progress: Some(std::sync::Arc::clone(&ctx.probe)),
            record_raw: true,
            shards: None,
            gps_signal: None,
            capture_limit: None,
            shard_stats_sink: None,
        };
        let report = if self.wedge_at_phase == Some(phase) {
            exp.run_boxed(Box::new(WedgeDut), 3)
        } else {
            exp.run_legacy(LegacyConfig::default())
        }?;
        if let Some(raw) = &report.raw_latencies_ps {
            ctx.journal_samples(raw)?;
        }
        if let Some(f) = &report.fault_stats {
            ctx.journal_fault_counters(&fault_counters(f))?;
        }
        Ok(report)
    }

    /// Execute the campaign fresh, journaling to `journal_path`.
    pub fn run(&self, journal_path: &Path) -> Result<RunOutcome<LatencyReport>, OsntError> {
        Supervisor::new(self.supervisor).run(journal_path, &self.config.header(), |phase, ctx| {
            self.run_phase(phase, ctx)
        })
    }

    /// Resume a campaign from its journal: the configuration is
    /// reconstructed from the journal header (digest-verified),
    /// completed phases are replayed from their journaled results, and
    /// the interrupted phase onward is re-run.
    pub fn resume(
        journal_path: &Path,
        supervisor: SupervisorConfig,
    ) -> Result<(SweepConfig, RunOutcome<LatencyReport>), OsntError> {
        let rec = journal::recover(journal_path)?;
        let header = rec.header.as_ref().ok_or_else(|| {
            OsntError::decode(
                "run journal",
                "no run header survived; the sweep cannot be resumed",
            )
        })?;
        let config = SweepConfig::decode(&header.config)?;
        let sweep = SupervisedSweep {
            supervisor,
            ..SupervisedSweep::new(config.clone())
        };
        let (_, outcome) = Supervisor::new(supervisor).resume(
            journal_path,
            Some(&sweep.config.header()),
            |phase, ctx| sweep.run_phase(phase, ctx),
        )?;
        Ok((config, outcome))
    }
}

/// Render the campaign report as deterministic text: a resumed run's
/// report must be byte-identical to an uninterrupted one, so nothing
/// here may depend on wall clock, resume count, or journal history.
pub fn render_report(config: &SweepConfig, outcome: &RunOutcome<LatencyReport>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# OSNT supervised latency sweep");
    let _ = writeln!(
        out,
        "frame {} B | probe {:.4} | duration {} | warmup {} | seed {}",
        config.frame_len, config.probe_load, config.duration, config.warmup, config.seed
    );
    let _ = writeln!(
        out,
        "phases completed: {}/{}",
        outcome.phases.len(),
        config.loads.len()
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "load", "sent", "rcvd", "loss", "p50_ns", "p99_ns", "mean_ns"
    );
    for r in &outcome.phases {
        let (p50, p99, mean) = match &r.latency {
            Some(s) => (
                format!("{:.1}", s.p50_ns),
                format!("{:.1}", s.p99_ns),
                format!("{:.1}", s.mean_ns),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let _ = writeln!(
            out,
            "{:>8.4} {:>10} {:>10} {:>10.6} {:>12} {:>12} {:>12}",
            r.background_load, r.probe_sent, r.probe_received, r.loss, p50, p99, mean
        );
    }
    if let Some(info) = &outcome.aborted {
        let _ = writeln!(
            out,
            "RUN ABORTED in phase {} ({}) at simulated {} ps: {}",
            info.phase_index, info.phase, info.last_progress, info.reason
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_config_roundtrips_losslessly() {
        let cfg = SweepConfig {
            frame_len: 1514,
            probe_load: 0.012345678901234567,
            loads: vec![0.0, 0.5, 0.95, 1.0],
            duration: SimDuration::from_ps(123_456_789),
            warmup: SimDuration::from_ps(987),
            seed: u64::MAX,
        };
        let back = SweepConfig::decode(&cfg.encode()).unwrap();
        assert_eq!(cfg, back);
        // Bit-exact, not approximate: the digest depends on it.
        assert_eq!(cfg.probe_load.to_bits(), back.probe_load.to_bits());
    }

    #[test]
    fn latency_report_payload_roundtrips_exactly() {
        let full = LatencyReport {
            background_load: 0.9,
            probe_sent: 1000,
            probe_received: 998,
            loss: 0.002,
            background_sent: 123_456,
            latency: Some(Summary {
                count: 998,
                min_ns: 810.25,
                max_ns: 90_001.5,
                mean_ns: 1234.5678,
                stddev_ns: 12.000000001,
                p50_ns: 1200.0,
                p90_ns: 2000.0,
                p99_ns: 88_000.0,
                jitter_ns: 11.5,
            }),
            probe_gen_dropped: 2,
            crc_fail: 0,
            filtered_out: 7,
            host_drops: 1,
            fault_stats: Some(FaultStats {
                offered: 10,
                dropped: 1,
                dropped_in_burst: 0,
                bursts: 0,
                duplicated: 2,
                corrupted: 3,
                reordered: 4,
                delivered: 9,
            }),
            raw_latencies_ps: Some(vec![810_250, 1_200_000, u64::MAX]),
            capture_shed: 13,
        };
        let empty = LatencyReport {
            background_load: 0.0,
            probe_sent: 0,
            probe_received: 0,
            loss: 0.0,
            background_sent: 0,
            latency: None,
            probe_gen_dropped: 0,
            crc_fail: 0,
            filtered_out: 0,
            host_drops: 0,
            fault_stats: None,
            raw_latencies_ps: None,
            capture_shed: 0,
        };
        for report in [full, empty] {
            let mut e = Enc::new();
            report.encode(&mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let back = LatencyReport::decode(&mut d).unwrap();
            assert_eq!(d.remaining(), 0);
            assert_eq!(report, back);
        }
    }

    #[test]
    fn header_names_one_phase_per_load() {
        let cfg = SweepConfig::default();
        let h = cfg.header();
        assert_eq!(h.phases.len(), cfg.loads.len());
        assert_eq!(h.phases[1], "load-0.5000");
        assert_eq!(h.seed, cfg.seed);
        assert_eq!(SweepConfig::decode(&h.config).unwrap(), cfg);
    }
}
