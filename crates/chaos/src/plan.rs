//! Declarative chaos plans and their lowering.
//!
//! A [`ChaosPlan`] is a seeded schedule of *fault episodes* composed
//! over simulated time: link loss/corrupt/reorder bursts, control
//! channel stalls and disconnects, GPS holdover windows, capture-ring
//! pressure, supervisor crash-point sweeps and journal torture. The
//! plan itself is pure data — nothing here touches a kernel.
//!
//! Execution goes through [`ChaosScenario::lower`], which compiles the
//! episode list onto the knobs the platform already has — a
//! [`FaultConfig`] for the probe path, a [`GpsSignal`] outage schedule,
//! a [`ControlFaultConfig`] window script, a capture bound — the same
//! way `FilterTable::compile()` lowers match rules onto the fast path.
//! Lowering validates: episodes that contradict each other (two loss
//! processes on one wire) or fall outside the scenario window are typed
//! [`OsntError`]s before any event executes.

use crate::toml::{parse as parse_toml, TomlTable};
use oflops_turbo::ControlFaultConfig;
use osnt_error::OsntError;
use osnt_netsim::{FaultConfig, GilbertElliott, LossModel};
use osnt_time::{GpsSignal, SimDuration, SimTime};

/// One fault episode. Each variant lowers onto an existing injection
/// knob; composition rules live in [`ChaosScenario::lower`].
#[derive(Debug, Clone, PartialEq)]
pub enum Episode {
    /// Gilbert–Elliott bursty loss on the probe path.
    LossBurst {
        /// Probability of entering a burst at a frame.
        enter_probability: f64,
        /// Mean burst length in frames.
        mean_burst_frames: f64,
    },
    /// Independent per-frame loss on the probe path.
    UniformLoss {
        /// Per-frame drop probability.
        probability: f64,
    },
    /// In-flight corruption (FCS-invalidating bit flips).
    Corrupt {
        /// Per-frame corruption probability.
        probability: f64,
        /// Bits flipped per corrupted frame.
        bits: u32,
    },
    /// Bounded reordering.
    Reorder {
        /// Probability a frame is held back.
        probability: f64,
        /// Extra hold applied to reordered frames.
        hold: SimDuration,
    },
    /// Frame duplication.
    Duplicate {
        /// Per-frame duplication probability.
        probability: f64,
    },
    /// Fixed extra delay plus FIFO jitter.
    Jitter {
        /// Fixed extra one-way delay.
        extra_delay: SimDuration,
        /// Uniform jitter on top.
        jitter: SimDuration,
    },
    /// GPS fix outage: the card's discipline coasts in holdover.
    GpsOutage {
        /// Outage start.
        start: SimTime,
        /// Outage length.
        length: SimDuration,
    },
    /// Control-channel stall window (frames held, released in order).
    ControlStall {
        /// Window start.
        start: SimTime,
        /// Window length.
        length: SimDuration,
    },
    /// Control-channel disconnect window (frames dropped).
    ControlDown {
        /// Window start.
        start: SimTime,
        /// Window length.
        length: SimDuration,
    },
    /// Control-channel short reads.
    ControlTruncate {
        /// Per-frame truncation probability.
        probability: f64,
    },
    /// Exhaustive supervisor crash-point sweep: kill the run at every
    /// journal append, resume, and demand a byte-identical (or honestly
    /// partial) report. See [`crate::crash::crash_point_sweep`].
    CrashSweep,
    /// Journal torture: torn tails and mid-file bit flips thrown at a
    /// finished run's journal before resuming it. See
    /// [`crate::crash::journal_torture`].
    JournalTorture,
    /// Service path: SIGKILL-equivalent the worker executing a session
    /// at its k-th journal append (lowered onto the supervisor's
    /// `crash_after_appends` arm). The service must retry with backoff
    /// and resume the session to a byte-identical report.
    WorkerKill {
        /// Kill at the k-th journal append of the session's run
        /// (1-based; 1 kills right after the header).
        after_appends: u64,
    },
    /// Service path: an overload storm — submit `factor` times the
    /// service's total capacity in bursts, forcing admission control
    /// and deterministic load shedding.
    OverloadStorm {
        /// Offered load as a multiple of service capacity (2.0 = the
        /// acceptance criterion's 2x storm).
        factor: f64,
        /// Sessions per submission burst.
        burst: u32,
    },
}

impl Episode {
    fn kind(&self) -> &'static str {
        match self {
            Episode::LossBurst { .. } => "loss-burst",
            Episode::UniformLoss { .. } => "uniform-loss",
            Episode::Corrupt { .. } => "corrupt",
            Episode::Reorder { .. } => "reorder",
            Episode::Duplicate { .. } => "duplicate",
            Episode::Jitter { .. } => "jitter",
            Episode::GpsOutage { .. } => "gps-outage",
            Episode::ControlStall { .. } => "control-stall",
            Episode::ControlDown { .. } => "control-down",
            Episode::ControlTruncate { .. } => "control-truncate",
            Episode::CrashSweep => "crash-sweep",
            Episode::JournalTorture => "journal-torture",
            Episode::WorkerKill { .. } => "worker-kill",
            Episode::OverloadStorm { .. } => "overload-storm",
        }
    }
}

/// The most a probe-path fault may delay one frame (delay, jitter and
/// reorder hold together): half the 10 ms a latency run drains after
/// its generators stop, so every frame let through lands in the run.
pub const MAX_FAULT_DELAY: SimDuration = SimDuration::from_ms(5);

/// One scenario: a data-plane run shape plus its episode list.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name (unique within a plan).
    pub name: String,
    /// Generation window of the data-plane run.
    pub duration: SimDuration,
    /// Warm-up discarded at the head of the window.
    pub warmup: SimDuration,
    /// Background load offered alongside the probe.
    pub background_load: f64,
    /// Capture-ring bound (packets); `Some` arms backpressure shedding.
    pub capture_limit: Option<usize>,
    /// The fault episodes to compose.
    pub episodes: Vec<Episode>,
}

impl Default for ChaosScenario {
    fn default() -> Self {
        ChaosScenario {
            name: "unnamed".into(),
            duration: SimDuration::from_ms(5),
            warmup: SimDuration::from_ms(1),
            background_load: 0.3,
            capture_limit: None,
            episodes: Vec::new(),
        }
    }
}

/// An overload storm lowered to the knobs the run service consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadStorm {
    /// Offered sessions as a multiple of service capacity.
    pub factor: f64,
    /// Sessions per submission burst.
    pub burst: u32,
}

/// What a scenario's episodes compile down to.
#[derive(Debug, Clone, Default)]
pub struct LoweredScenario {
    /// Probe-path fault injection (`None` = clean wire).
    pub faults: Option<FaultConfig>,
    /// GPS signal with the scheduled outages (`None` = always locked).
    pub gps: Option<GpsSignal>,
    /// Control-channel fault script (`None` = no control episodes; the
    /// campaign skips the control harness entirely).
    pub control: Option<ControlFaultConfig>,
    /// Run the supervisor crash-point sweep for this scenario.
    pub crash_sweep: bool,
    /// Run journal torture (torn tail + bit flips) for this scenario.
    pub journal_torture: bool,
    /// Service path: kill the session's worker at this journal append
    /// (`None` = workers live). Consumed by `osnt-service` via the
    /// supervisor's `crash_after_appends` arm.
    pub worker_kill: Option<u64>,
    /// Service path: drive an overload storm through admission control.
    pub overload_storm: Option<OverloadStorm>,
}

impl ChaosScenario {
    fn conflict(&self, what: &str) -> OsntError {
        OsntError::config(
            "chaos plan",
            format!("scenario {:?}: conflicting episodes: {what}", self.name),
        )
    }

    /// Compile the episode list onto the platform's injection knobs.
    /// `seed` feeds every stochastic episode, so the lowered scenario
    /// is exactly reproducible and varies deterministically across the
    /// campaign's seed axis.
    pub fn lower(&self, seed: u64) -> Result<LoweredScenario, OsntError> {
        let mut out = LoweredScenario::default();
        let mut faults: Option<FaultConfig> = None;
        let mut outages: Vec<(SimTime, SimTime)> = Vec::new();
        let mut control: Option<ControlFaultConfig> = None;
        let horizon = SimTime::from_ms(11).saturating_add(self.duration);

        fn fc(faults: &mut Option<FaultConfig>, seed: u64) -> &mut FaultConfig {
            faults.get_or_insert_with(|| FaultConfig {
                seed: seed ^ 0xDA7A_F1A7,
                ..FaultConfig::default()
            })
        }
        fn ctl(control: &mut Option<ControlFaultConfig>, seed: u64) -> &mut ControlFaultConfig {
            control.get_or_insert_with(|| ControlFaultConfig {
                seed: seed.rotate_left(17) ^ 0xC0DE,
                ..ControlFaultConfig::clean()
            })
        }

        for ep in &self.episodes {
            match *ep {
                Episode::LossBurst {
                    enter_probability,
                    mean_burst_frames,
                } => {
                    let f = fc(&mut faults, seed);
                    if !matches!(f.loss, LossModel::None) {
                        return Err(self.conflict("two loss processes on the probe path"));
                    }
                    f.loss = LossModel::GilbertElliott(GilbertElliott::bursty(
                        enter_probability,
                        mean_burst_frames,
                    ));
                }
                Episode::UniformLoss { probability } => {
                    let f = fc(&mut faults, seed);
                    if !matches!(f.loss, LossModel::None) {
                        return Err(self.conflict("two loss processes on the probe path"));
                    }
                    f.loss = LossModel::Uniform { probability };
                }
                Episode::Corrupt { probability, bits } => {
                    let f = fc(&mut faults, seed);
                    if f.corrupt_probability > 0.0 {
                        return Err(self.conflict("two corruption episodes"));
                    }
                    f.corrupt_probability = probability;
                    f.corrupt_bits = bits;
                }
                Episode::Reorder { probability, hold } => {
                    let f = fc(&mut faults, seed);
                    if f.reorder_probability > 0.0 {
                        return Err(self.conflict("two reorder episodes"));
                    }
                    f.reorder_probability = probability;
                    f.reorder_hold = hold;
                }
                Episode::Duplicate { probability } => {
                    let f = fc(&mut faults, seed);
                    if f.duplicate_probability > 0.0 {
                        return Err(self.conflict("two duplication episodes"));
                    }
                    f.duplicate_probability = probability;
                }
                Episode::Jitter {
                    extra_delay,
                    jitter,
                } => {
                    let f = fc(&mut faults, seed);
                    if f.extra_delay != SimDuration::ZERO || f.jitter != SimDuration::ZERO {
                        return Err(self.conflict("two jitter episodes"));
                    }
                    f.extra_delay = extra_delay;
                    f.jitter = jitter;
                }
                Episode::GpsOutage { start, length } => {
                    if length == SimDuration::ZERO {
                        return Err(self.conflict("zero-length GPS outage"));
                    }
                    outages.push((start, start.saturating_add(length)));
                }
                Episode::ControlStall { start, length } => {
                    if start >= horizon {
                        return Err(self.conflict("control stall starts after the run horizon"));
                    }
                    let end = start.saturating_add(length);
                    ctl(&mut control, seed).stalls.push((start, end));
                }
                Episode::ControlDown { start, length } => {
                    if start >= horizon {
                        return Err(self.conflict("control outage starts after the run horizon"));
                    }
                    let end = start.saturating_add(length);
                    ctl(&mut control, seed).disconnects.push((start, end));
                }
                Episode::ControlTruncate { probability } => {
                    let c = ctl(&mut control, seed);
                    if c.truncate_probability > 0.0 {
                        return Err(self.conflict("two control-truncation episodes"));
                    }
                    c.truncate_probability = probability;
                }
                Episode::CrashSweep => out.crash_sweep = true,
                Episode::JournalTorture => out.journal_torture = true,
                Episode::WorkerKill { after_appends } => {
                    if after_appends == 0 {
                        return Err(self.conflict("worker-kill at append 0 (appends are 1-based)"));
                    }
                    if out.worker_kill.is_some() {
                        return Err(self.conflict("two worker-kill episodes"));
                    }
                    out.worker_kill = Some(after_appends);
                }
                Episode::OverloadStorm { factor, burst } => {
                    if factor <= 0.0 || factor.is_nan() {
                        return Err(self.conflict("overload storm with non-positive factor"));
                    }
                    if burst == 0 {
                        return Err(self.conflict("overload storm with empty bursts"));
                    }
                    if out.overload_storm.is_some() {
                        return Err(self.conflict("two overload-storm episodes"));
                    }
                    out.overload_storm = Some(OverloadStorm { factor, burst });
                }
            }
        }

        if let Some(f) = &faults {
            f.validate()?;
            let held = (f.reorder_probability > 0.0).then_some(f.reorder_hold);
            let delay = [f.extra_delay, f.jitter, held.unwrap_or(SimDuration::ZERO)]
                .iter()
                .fold(0u64, |sum, d| sum.saturating_add(d.as_ps()));
            if delay > MAX_FAULT_DELAY.as_ps() {
                return Err(self.conflict("probe-path delay past half the run's 10 ms drain"));
            }
        }
        if let Some(c) = &control {
            c.validate()?;
        }
        if !outages.is_empty() {
            outages.sort();
            out.gps = Some(GpsSignal::with_outages(outages));
        }
        out.faults = faults;
        out.control = control;
        Ok(out)
    }
}

/// A full chaos campaign plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Plan name (lands in reports and artifacts).
    pub name: String,
    /// Base RNG seed; campaign seed *s* runs at `base_seed + s`.
    pub base_seed: u64,
    /// The scenario corpus.
    pub scenarios: Vec<ChaosScenario>,
}

impl ChaosPlan {
    /// Structural validation: at least one scenario, unique names,
    /// every scenario lowers cleanly at the base seed.
    pub fn validate(&self) -> Result<(), OsntError> {
        if self.scenarios.is_empty() {
            return Err(OsntError::config("chaos plan", "plan has no scenarios"));
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.scenarios {
            if !seen.insert(s.name.as_str()) {
                return Err(OsntError::config(
                    "chaos plan",
                    format!("duplicate scenario name {:?}", s.name),
                ));
            }
            if s.warmup >= s.duration {
                return Err(OsntError::config(
                    "chaos plan",
                    format!("scenario {:?}: warmup swallows the whole window", s.name),
                ));
            }
            s.lower(self.base_seed)?;
        }
        Ok(())
    }

    /// Parse a plan from its TOML source. Top level: `name`,
    /// `base_seed`; one `[[scenario]]` per scenario with nested
    /// `[[scenario.episode]]` tables (each tagged by `kind`).
    pub fn parse(src: &str) -> Result<ChaosPlan, OsntError> {
        let tables = parse_toml(src)?;
        let mut plan = ChaosPlan {
            name: "chaos".into(),
            base_seed: 1,
            scenarios: Vec::new(),
        };
        for table in &tables {
            match table.header.as_str() {
                "" => {
                    if let Some(n) = table.str_of("name")? {
                        plan.name = n.to_string();
                    }
                    if let Some(s) = table.u64_of("base_seed")? {
                        plan.base_seed = s;
                    }
                }
                "scenario" => {
                    let mut sc = ChaosScenario {
                        name: table
                            .str_of("name")?
                            .ok_or_else(|| {
                                OsntError::config(
                                    "chaos plan",
                                    format!("[[scenario]] (line {}) needs a name", table.line),
                                )
                            })?
                            .to_string(),
                        ..ChaosScenario::default()
                    };
                    let ms = SimDuration::from_ms(1);
                    if let Some(d) = table.duration_of("duration_ms", ms)? {
                        sc.duration = d;
                    }
                    if let Some(d) = table.duration_of("warmup_ms", ms)? {
                        sc.warmup = d;
                    }
                    if let Some(l) = table.f64_of("background_load")? {
                        sc.background_load = l;
                    }
                    if let Some(n) = table.u64_of("capture_limit")? {
                        sc.capture_limit = Some(n as usize);
                    }
                    plan.scenarios.push(sc);
                }
                "scenario.episode" => {
                    let Some(sc) = plan.scenarios.last_mut() else {
                        return Err(OsntError::config(
                            "chaos plan",
                            format!(
                                "[[scenario.episode]] (line {}) before any [[scenario]]",
                                table.line
                            ),
                        ));
                    };
                    sc.episodes.push(parse_episode(table)?);
                }
                other => {
                    return Err(OsntError::config(
                        "chaos plan",
                        format!("unknown table [[{other}]] (line {})", table.line),
                    ));
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// The committed scenario corpus: every fault surface the platform
    /// injects, composed. This is what `osnt chaos` and the E14
    /// campaign run by default.
    pub fn builtin() -> ChaosPlan {
        let ms = SimDuration::from_ms;
        let us = SimDuration::from_us;
        let plan = ChaosPlan {
            name: "builtin".into(),
            base_seed: 11,
            scenarios: vec![
                ChaosScenario {
                    name: "clean-baseline".into(),
                    background_load: 0.5,
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "bursty-loss".into(),
                    episodes: vec![Episode::LossBurst {
                        enter_probability: 0.01,
                        mean_burst_frames: 8.0,
                    }],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "corrupt-storm".into(),
                    episodes: vec![Episode::Corrupt {
                        probability: 0.05,
                        bits: 3,
                    }],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "reorder-dup".into(),
                    episodes: vec![
                        Episode::Reorder {
                            probability: 0.02,
                            hold: us(50),
                        },
                        Episode::Duplicate { probability: 0.02 },
                    ],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "kitchen-sink".into(),
                    background_load: 0.6,
                    episodes: vec![
                        Episode::LossBurst {
                            enter_probability: 0.005,
                            mean_burst_frames: 5.0,
                        },
                        Episode::Corrupt {
                            probability: 0.02,
                            bits: 1,
                        },
                        Episode::Duplicate { probability: 0.02 },
                        Episode::Reorder {
                            probability: 0.01,
                            hold: us(100),
                        },
                        Episode::Jitter {
                            extra_delay: us(2),
                            jitter: us(1),
                        },
                    ],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "gps-holdover".into(),
                    episodes: vec![Episode::GpsOutage {
                        start: SimTime::from_ms(2),
                        length: ms(2),
                    }],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "overload-shed".into(),
                    background_load: 1.0,
                    capture_limit: Some(128),
                    episodes: Vec::new(),
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "control-chaos".into(),
                    episodes: vec![
                        Episode::ControlDown {
                            start: SimTime::from_us(300),
                            length: us(200),
                        },
                        Episode::ControlStall {
                            start: SimTime::from_us(700),
                            length: us(150),
                        },
                        Episode::ControlTruncate { probability: 0.05 },
                    ],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "crash-resume".into(),
                    episodes: vec![Episode::CrashSweep],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "journal-torture".into(),
                    episodes: vec![Episode::JournalTorture],
                    ..ChaosScenario::default()
                },
            ],
        };
        plan.validate().expect("builtin plan is valid");
        plan
    }

    /// The service-path corpus: chaos driven *through* the run service
    /// rather than straight at a kernel — a worker SIGKILLed mid-
    /// session (the service must retry with backoff and resume to a
    /// byte-identical report) and a 2x overload storm (admission
    /// control must shed deterministically with full accounting). The
    /// E16 bench and the service chaos tests consume these via the
    /// `worker_kill` / `overload_storm` fields of [`LoweredScenario`].
    pub fn service() -> ChaosPlan {
        let plan = ChaosPlan {
            name: "service".into(),
            base_seed: 23,
            scenarios: vec![
                ChaosScenario {
                    name: "worker-kill-mid-session".into(),
                    episodes: vec![Episode::WorkerKill { after_appends: 2 }],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "overload-storm-2x".into(),
                    episodes: vec![Episode::OverloadStorm {
                        factor: 2.0,
                        burst: 16,
                    }],
                    ..ChaosScenario::default()
                },
                ChaosScenario {
                    name: "kill-under-storm".into(),
                    episodes: vec![
                        Episode::WorkerKill { after_appends: 3 },
                        Episode::OverloadStorm {
                            factor: 1.5,
                            burst: 8,
                        },
                    ],
                    ..ChaosScenario::default()
                },
            ],
        };
        plan.validate().expect("service plan is valid");
        plan
    }
}

fn parse_episode(t: &TomlTable) -> Result<Episode, OsntError> {
    let kind = t.str_of("kind")?.ok_or_else(|| {
        OsntError::config(
            "chaos plan",
            format!("[[scenario.episode]] (line {}) needs a kind", t.line),
        )
    })?;
    let missing = |key: &str| {
        OsntError::config(
            "chaos plan",
            format!("episode {kind:?} (line {}) needs `{key}`", t.line),
        )
    };
    let p = |key: &str| -> Result<f64, OsntError> { t.f64_of(key)?.ok_or_else(|| missing(key)) };
    let us = |key: &str, default: u64| -> Result<SimDuration, OsntError> {
        let d = t.duration_of(key, SimDuration::from_us(1))?;
        Ok(d.unwrap_or(SimDuration::from_us(default)))
    };
    let start = || -> Result<SimTime, OsntError> {
        let d = t.duration_of("start_us", SimDuration::from_us(1))?;
        Ok(SimTime::ZERO + d.ok_or_else(|| missing("start_us"))?)
    };
    let ep = match kind {
        "loss-burst" => Episode::LossBurst {
            enter_probability: p("enter_probability")?,
            mean_burst_frames: t.f64_of("mean_burst_frames")?.unwrap_or(8.0),
        },
        "uniform-loss" => Episode::UniformLoss {
            probability: p("probability")?,
        },
        "corrupt" => Episode::Corrupt {
            probability: p("probability")?,
            bits: t.u32_of("bits")?.unwrap_or(1),
        },
        "reorder" => Episode::Reorder {
            probability: p("probability")?,
            hold: us("hold_us", 100)?,
        },
        "duplicate" => Episode::Duplicate {
            probability: p("probability")?,
        },
        "jitter" => Episode::Jitter {
            extra_delay: us("extra_delay_us", 0)?,
            jitter: us("jitter_us", 0)?,
        },
        "gps-outage" => Episode::GpsOutage {
            start: start()?,
            length: us("length_us", 1_000)?,
        },
        "control-stall" => Episode::ControlStall {
            start: start()?,
            length: us("length_us", 100)?,
        },
        "control-down" => Episode::ControlDown {
            start: start()?,
            length: us("length_us", 100)?,
        },
        "control-truncate" => Episode::ControlTruncate {
            probability: p("probability")?,
        },
        "crash-sweep" => Episode::CrashSweep,
        "journal-torture" => Episode::JournalTorture,
        "worker-kill" => Episode::WorkerKill {
            after_appends: t.u64_of("after_appends")?.unwrap_or(2),
        },
        "overload-storm" => Episode::OverloadStorm {
            factor: t.f64_of("factor")?.unwrap_or(2.0),
            burst: t.u32_of("burst")?.unwrap_or(16),
        },
        other => {
            return Err(OsntError::config(
                "chaos plan",
                format!("unknown episode kind {other:?} (line {})", t.line),
            ))
        }
    };
    let _ = ep.kind();
    Ok(ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid plan: a wire scenario of six episodes, a service one of two.
    const PLAN: &str = r#"name = "mutants"
base_seed = 7
[[scenario]]
name = "wire"
background_load = 0.4
duration_ms = 6
warmup_ms = 1
capture_limit = 64
[[scenario.episode]]
kind = "loss-burst"
enter_probability = 0.02
mean_burst_frames = 6.0
[[scenario.episode]]
kind = "corrupt"
probability = 0.01
bits = 3
[[scenario.episode]]
kind = "reorder"
probability = 0.01
hold_us = 50
[[scenario.episode]]
kind = "jitter"
extra_delay_us = 2
jitter_us = 1
[[scenario.episode]]
kind = "gps-outage"
start_us = 2000
length_us = 1500
[[scenario.episode]]
kind = "control-down"
start_us = 300
length_us = 200
[[scenario]]
name = "svc"
[[scenario.episode]]
kind = "worker-kill"
after_appends = 4
[[scenario.episode]]
kind = "overload-storm"
factor = 2.5
burst = 8
"#;

    #[test]
    fn builtin_plan_is_valid_and_broad() {
        let plan = ChaosPlan::builtin();
        assert!(plan.scenarios.len() >= 8, "corpus shrank");
        plan.validate().unwrap();
        // Every injection surface is represented somewhere.
        let lowered: Vec<_> = plan
            .scenarios
            .iter()
            .map(|s| s.lower(plan.base_seed).unwrap())
            .collect();
        assert!(lowered.iter().any(|l| l.faults.is_some()));
        assert!(lowered.iter().any(|l| l.gps.is_some()));
        assert!(lowered.iter().any(|l| l.control.is_some()));
        assert!(lowered.iter().any(|l| l.crash_sweep));
        assert!(lowered.iter().any(|l| l.journal_torture));
        assert!(plan.scenarios.iter().any(|s| s.capture_limit.is_some()));
    }

    #[test]
    fn lowering_composes_episodes_onto_one_fault_config() {
        let sc = ChaosScenario {
            episodes: vec![
                Episode::LossBurst {
                    enter_probability: 0.01,
                    mean_burst_frames: 4.0,
                },
                Episode::Corrupt {
                    probability: 0.1,
                    bits: 2,
                },
                Episode::Duplicate { probability: 0.05 },
            ],
            ..ChaosScenario::default()
        };
        let low = sc.lower(7).unwrap();
        let f = low.faults.expect("data-plane episodes lower to faults");
        assert!(matches!(f.loss, LossModel::GilbertElliott(_)));
        assert_eq!(f.corrupt_probability, 0.1);
        assert_eq!(f.corrupt_bits, 2);
        assert_eq!(f.duplicate_probability, 0.05);
        assert!(low.control.is_none());
        assert!(low.gps.is_none());
        // The seed axis changes the lowered seed deterministically.
        let low2 = sc.lower(8).unwrap();
        assert_ne!(f.seed, low2.faults.unwrap().seed);
    }

    #[test]
    fn conflicting_episodes_are_typed_errors() {
        let sc = ChaosScenario {
            episodes: vec![
                Episode::UniformLoss { probability: 0.1 },
                Episode::LossBurst {
                    enter_probability: 0.01,
                    mean_burst_frames: 4.0,
                },
            ],
            ..ChaosScenario::default()
        };
        assert!(matches!(sc.lower(1), Err(OsntError::Config { .. })));
        let sc = ChaosScenario {
            episodes: vec![Episode::UniformLoss { probability: 1.5 }],
            ..ChaosScenario::default()
        };
        assert!(matches!(sc.lower(1), Err(OsntError::Config { .. })));
    }

    #[test]
    fn gps_and_control_episodes_lower_to_window_schedules() {
        let sc = ChaosScenario {
            episodes: vec![
                Episode::GpsOutage {
                    start: SimTime::from_ms(3),
                    length: SimDuration::from_ms(1),
                },
                Episode::ControlDown {
                    start: SimTime::from_us(10),
                    length: SimDuration::from_us(20),
                },
                Episode::ControlTruncate { probability: 0.1 },
            ],
            ..ChaosScenario::default()
        };
        let low = sc.lower(3).unwrap();
        let gps = low.gps.unwrap();
        assert!(!gps.has_fix(SimTime::from_ms(3)));
        assert!(gps.has_fix(SimTime::from_ms(5)));
        let c = low.control.unwrap();
        assert_eq!(c.disconnects.len(), 1);
        assert_eq!(c.truncate_probability, 0.1);
        assert!(low.faults.is_none());
    }

    #[test]
    fn service_episodes_lower_to_service_knobs() {
        let plan = ChaosPlan::service();
        let lowered: Vec<_> = plan
            .scenarios
            .iter()
            .map(|s| s.lower(plan.base_seed).unwrap())
            .collect();
        assert_eq!(lowered[0].worker_kill, Some(2));
        assert!(lowered[0].overload_storm.is_none());
        let storm = lowered[1].overload_storm.unwrap();
        assert_eq!(storm.factor, 2.0);
        assert_eq!(storm.burst, 16);
        assert!(lowered[1].worker_kill.is_none());
        assert_eq!(lowered[2].worker_kill, Some(3));
        assert!(lowered[2].overload_storm.is_some());
        // Degenerate episodes are typed errors, not silent no-ops.
        let bad = ChaosScenario {
            episodes: vec![Episode::WorkerKill { after_appends: 0 }],
            ..ChaosScenario::default()
        };
        assert!(matches!(bad.lower(1), Err(OsntError::Config { .. })));
        let bad = ChaosScenario {
            episodes: vec![Episode::OverloadStorm {
                factor: 0.0,
                burst: 4,
            }],
            ..ChaosScenario::default()
        };
        assert!(matches!(bad.lower(1), Err(OsntError::Config { .. })));
        let twice = ChaosScenario {
            episodes: vec![
                Episode::WorkerKill { after_appends: 1 },
                Episode::WorkerKill { after_appends: 2 },
            ],
            ..ChaosScenario::default()
        };
        assert!(matches!(twice.lower(1), Err(OsntError::Config { .. })));
        // And they parse from TOML like every other kind.
        let parsed = ChaosPlan::parse(PLAN).unwrap();
        let low = parsed.scenarios[1].lower(1).unwrap();
        assert_eq!(low.worker_kill, Some(4));
        assert_eq!(
            low.overload_storm,
            Some(OverloadStorm {
                factor: 2.5,
                burst: 8
            })
        );
    }

    #[test]
    fn toml_roundtrip_of_a_plan() {
        let src = r#"
name = "from-toml"
base_seed = 99

[[scenario]]
name = "wire"
background_load = 0.4
duration_ms = 6
warmup_ms = 1

[[scenario.episode]]
kind = "loss-burst"
enter_probability = 0.02
mean_burst_frames = 6.0

[[scenario.episode]]
kind = "gps-outage"
start_us = 2000
length_us = 1500

[[scenario]]
name = "squeeze"
capture_limit = 64
background_load = 1.0
"#;
        let plan = ChaosPlan::parse(src).unwrap();
        assert_eq!(plan.name, "from-toml");
        assert_eq!(plan.base_seed, 99);
        assert_eq!(plan.scenarios.len(), 2);
        assert_eq!(plan.scenarios[0].episodes.len(), 2);
        assert_eq!(plan.scenarios[1].capture_limit, Some(64));
        // Bad plans are typed errors: unknown kind, orphan episode,
        // duplicate names.
        assert!(
            ChaosPlan::parse("[[scenario]]\nname=\"a\"\n[[scenario.episode]]\nkind=\"nope\"")
                .is_err()
        );
        assert!(ChaosPlan::parse("[[scenario.episode]]\nkind=\"crash-sweep\"").is_err());
        assert!(ChaosPlan::parse("[[scenario]]\nname=\"a\"\n\n[[scenario]]\nname=\"a\"").is_err());
    }

    #[test]
    fn numbers_past_their_type_are_typed_errors() {
        let scenario = |keys: &str| format!("[[scenario]]\nname = \"x\"\n{keys}\n");
        let episode = |kind: &str, keys: &str| {
            format!(
                "{}[[scenario.episode]]\nkind = \"{kind}\"\n{keys}\n",
                scenario("")
            )
        };
        for (src, key) in [
            (scenario("duration_ms = 20000000000"), "duration_ms"),
            (scenario("warmup_ms = 20000000000"), "warmup_ms"),
            (
                episode("reorder", "probability = 0.1\nhold_us = 20000000000000"),
                "hold_us",
            ),
            (
                episode("gps-outage", "start_us = 20000000000000"),
                "start_us",
            ),
            (
                episode("corrupt", "probability = 0.1\nbits = 4294967297"),
                "bits",
            ),
            (episode("overload-storm", "burst = 4294967297"), "burst"),
            (scenario("duration_ms = 18446744073"), "duration_ms"),
            (scenario("duration_ms = 3600001"), "duration_ms"),
            (
                episode("jitter", "extra_delay_us = 3600000001"),
                "extra_delay_us",
            ),
        ] {
            let err = ChaosPlan::parse(&src).expect_err(&src);
            assert!(
                matches!(err, OsntError::Config { .. }) && err.to_string().contains(key),
                "{src}: {err}"
            );
        }
        // Past MAX_FAULT_DELAY a plan parses but does not lower; at it,
        // one seed runs clean.
        let run = |keys: &str| {
            let plan = ChaosPlan::parse(&episode("jitter", keys))?;
            crate::campaign::run_campaign(&crate::campaign::CampaignConfig {
                plan,
                seeds: 1,
                crash_points: false,
                scratch_dir: std::env::temp_dir(),
            })
        };
        let err = run("extra_delay_us = 3600000000").unwrap_err();
        assert!(err.to_string().contains("drain"), "{err}");
        let report = run("extra_delay_us = 3000\njitter_us = 2000").unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.runs(), 1);
        let long = ChaosPlan::parse(&scenario("duration_ms = 3600000")).unwrap();
        assert_eq!(long.scenarios[0].duration, crate::toml::MAX_PLAN_SPAN);
        long.validate().unwrap();
    }

    /// Seeded mutants of one valid plan: every prefix, byte flips, and
    /// each number swapped for an extreme. Each parses or is refused
    /// with an error; none panics.
    #[test]
    fn a_mutated_plan_parses_or_is_refused() {
        ChaosPlan::parse(PLAN).expect("the unmutated plan is valid");
        let mut mutants: Vec<String> = (0..PLAN.len()).map(|n| PLAN[..n].to_string()).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2_000 {
            let mut bytes = PLAN.as_bytes().to_vec();
            for _ in 0..=next() % 3 {
                let at = next() as usize % bytes.len();
                bytes[at] ^= next() as u8 | 1;
            }
            mutants.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        let mut at = 0;
        while let Some(off) = PLAN[at..].find(|c: char| c.is_ascii_digit()) {
            let start = at + off;
            let len = PLAN[start..]
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(PLAN.len() - start);
            for extreme in ["9223372036854775807", "-1", "nan", "inf"] {
                mutants.push(format!(
                    "{}{extreme}{}",
                    &PLAN[..start],
                    &PLAN[start + len..]
                ));
            }
            at = start + len;
        }
        for mutant in &mutants {
            let parsed = std::panic::catch_unwind(|| ChaosPlan::parse(mutant));
            assert!(parsed.is_ok(), "panicked on {mutant:?}");
        }
    }
}
