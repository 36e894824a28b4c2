//! Campaign execution: plan × seeds, audited.
//!
//! [`run_campaign`] is the engine behind `osnt chaos` and the E14
//! bench. For every scenario of the plan and every seed on the axis it:
//!
//! 1. lowers the scenario ([`ChaosScenario::lower`]) onto the
//!    platform's injection knobs;
//! 2. runs the canonical latency experiment and audits its report
//!    with the [`InvariantAuditor`];
//! 3. drives the control-channel fault harness when the scenario
//!    scripts control episodes, and audits its ledger;
//! 4. runs the supervisor crash-point sweep and/or journal torture
//!    when the scenario asks for them;
//! 5. merges every run's [`FaultStats`] with
//!    [`FaultStats::accumulate`] into the campaign roll-up (audited
//!    again — merged books must still balance).
//!
//! The campaign never panics on a failing system: every broken
//! invariant is a structured [`Violation`] in the report, and
//! [`CampaignReport::into_result`] converts the haul into a typed
//! [`OsntError`] for callers that want pass/fail.

use std::path::PathBuf;

use crate::audit::{InvariantAuditor, Violation};
use crate::crash::{crash_point_sweep, journal_torture, CrashSweepReport, TortureReport};
use crate::plan::ChaosPlan;
use oflops_turbo::{ControlFaultConfig, ControlFaultStats, FaultyControlChannel};
use osnt_core::experiment::LatencyExperiment;
use osnt_core::sweep::SweepConfig;
use osnt_error::OsntError;
use osnt_netsim::{Component, ComponentId, FaultStats, Kernel, LinkSpec, SimBuilder};
use osnt_openflow::match_field::wildcards;
use osnt_openflow::{Action, ActionList, OfMatch};
use osnt_packet::{FlowKey, MacAddr, Packet, PacketBuilder};
use osnt_supervisor::SupervisorConfig;
use osnt_switch::flowtable::covers;
use osnt_switch::{FlowEntry, FlowTable, LegacyConfig};
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Campaign shape: what to run and how wide.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The plan (scenario corpus).
    pub plan: ChaosPlan,
    /// Seeds per scenario; seed *s* runs at `plan.base_seed + s`.
    pub seeds: u64,
    /// Run crash-point sweeps / journal torture for scenarios that
    /// script them (CI smoke runs may disable the exhaustive sweep).
    pub crash_points: bool,
    /// Scratch directory for journals.
    pub scratch_dir: PathBuf,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            plan: ChaosPlan::builtin(),
            seeds: 4,
            crash_points: true,
            scratch_dir: std::env::temp_dir(),
        }
    }
}

/// Per-scenario outcome.
#[derive(Debug, Clone, Default)]
pub struct ScenarioResult {
    /// Scenario name.
    pub scenario: String,
    /// Data-plane runs executed (one per seed).
    pub runs: u64,
    /// Merged fault-injector tally across all runs.
    pub fault_totals: FaultStats,
    /// Frames shed by capture backpressure, summed.
    pub capture_shed: u64,
    /// Control-channel tally, merged across seeds (`None` when the
    /// scenario scripts no control episodes).
    pub control: Option<ControlFaultStats>,
    /// Crash-point sweep outcome, summed across seeds.
    pub crash: Option<CrashSweepReport>,
    /// Journal-torture outcome, summed across seeds.
    pub torture: Option<TortureReport>,
}

/// The campaign's full outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Plan name.
    pub plan: String,
    /// Seeds exercised per scenario.
    pub seeds: u64,
    /// Per-scenario outcomes, plan order.
    pub scenarios: Vec<ScenarioResult>,
    /// Reports audited.
    pub audited: u64,
    /// Every invariant violation observed (empty on a healthy system).
    pub violations: Vec<Violation>,
}

impl CampaignReport {
    /// True when every audited report balanced.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merged fault tally across the whole campaign.
    pub fn fault_totals(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in &self.scenarios {
            total.accumulate(&s.fault_totals);
        }
        total
    }

    /// Total data-plane runs.
    pub fn runs(&self) -> u64 {
        self.scenarios.iter().map(|s| s.runs).sum()
    }

    /// Pass/fail: `Ok(audited)` when clean, the first violation as a
    /// structured error otherwise.
    pub fn into_result(self) -> Result<u64, OsntError> {
        match self.violations.first() {
            None => Ok(self.audited),
            Some(v) => Err(OsntError::InvariantViolated {
                invariant: v.invariant,
                detail: format!(
                    "{} ({} violation(s) total)",
                    v.detail,
                    self.violations.len()
                ),
            }),
        }
    }

    /// Deterministic human rendering (no wall clock, no paths).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# OSNT chaos campaign: plan {:?}", self.plan);
        let _ = writeln!(
            out,
            "{} scenario(s) x {} seed(s) | {} run(s), {} report(s) audited",
            self.scenarios.len(),
            self.seeds,
            self.runs(),
            self.audited,
        );
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>9} {:>8} {:>8} {:>7} {:>6} {:>12} {:>12}",
            "scenario",
            "runs",
            "offered",
            "dropped",
            "corrupt",
            "dup",
            "shed",
            "crash-points",
            "torture"
        );
        for s in &self.scenarios {
            let crash = s
                .crash
                .map(|c| {
                    format!(
                        "{}={}+{}",
                        c.crash_points, c.byte_identical, c.honest_partial
                    )
                })
                .unwrap_or_else(|| "-".into());
            let torture = s
                .torture
                .map(|t| {
                    format!(
                        "{}={}+{}",
                        t.truncations + t.bit_flips,
                        t.resumed_identical,
                        t.honest_errors
                    )
                })
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:<16} {:>5} {:>9} {:>8} {:>8} {:>7} {:>6} {:>12} {:>12}",
                s.scenario,
                s.runs,
                s.fault_totals.offered,
                s.fault_totals.dropped,
                s.fault_totals.corrupted,
                s.fault_totals.duplicated,
                s.capture_shed,
                crash,
                torture,
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "invariant violations: 0");
        } else {
            let _ = writeln!(out, "INVARIANT VIOLATIONS: {}", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  {v}");
            }
        }
        out
    }
}

/// The sweep shape crash scenarios exercise: small enough that the
/// exhaustive per-append sweep stays in CI budget, two phases so
/// resume crosses a phase boundary.
fn crash_sweep_config(seed: u64) -> SweepConfig {
    SweepConfig {
        loads: vec![0.0, 0.3],
        duration: SimDuration::from_ms(3),
        warmup: SimDuration::from_ms(1),
        seed,
        ..SweepConfig::default()
    }
}

/// Execute the campaign. Violations land in the report — the `Err`
/// path is reserved for broken configurations and I/O, not for a
/// misbehaving system under test.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, OsntError> {
    cfg.plan.validate()?;
    if cfg.seeds == 0 {
        return Err(OsntError::config("chaos campaign", "seeds must be >= 1"));
    }
    let mut auditor = InvariantAuditor::new();
    let mut report = CampaignReport {
        plan: cfg.plan.name.clone(),
        seeds: cfg.seeds,
        ..CampaignReport::default()
    };

    for (si, scenario) in cfg.plan.scenarios.iter().enumerate() {
        let mut result = ScenarioResult {
            scenario: scenario.name.clone(),
            ..ScenarioResult::default()
        };
        for s in 0..cfg.seeds {
            // Decorrelate scenarios on the seed axis without losing
            // determinism: same plan + seeds => same campaign.
            let seed = cfg
                .plan
                .base_seed
                .wrapping_add(s)
                .wrapping_add((si as u64) << 32);
            let label = format!("{}@seed{}", scenario.name, s);
            let lowered = scenario.lower(seed)?;

            // Data plane.
            let exp = LatencyExperiment {
                frame_len: 512,
                background_load: scenario.background_load,
                duration: scenario.duration,
                warmup: scenario.warmup,
                seed,
                probe_faults: lowered.faults.clone(),
                gps_signal: lowered.gps.clone(),
                capture_limit: scenario.capture_limit,
                record_raw: true,
                ..LatencyExperiment::default()
            };
            match exp.run_legacy(LegacyConfig::default()) {
                Ok(r) => {
                    result.runs += 1;
                    let dut_may_drop = scenario.background_load + exp.probe_load > 0.95;
                    auditor.audit_latency(&label, &r, dut_may_drop);
                    if scenario.capture_limit.is_none() && r.capture_shed != 0 {
                        auditor.violate(
                            "shed-accounting",
                            format!(
                                "{label}: shed {} frames with no bound armed",
                                r.capture_shed
                            ),
                        );
                    }
                    if let Some(f) = &r.fault_stats {
                        result.fault_totals.accumulate(f);
                    }
                    result.capture_shed += r.capture_shed;
                }
                Err(e) => auditor.violate(
                    "graceful-degradation",
                    format!("{label}: run aborted instead of degrading: {e}"),
                ),
            }

            // Control plane.
            if let Some(control) = &lowered.control {
                let stats = run_control_harness(control.clone(), &mut auditor, &label);
                let merged = result
                    .control
                    .get_or_insert_with(ControlFaultStats::default);
                merged.offered += stats.offered;
                merged.dropped += stats.dropped;
                merged.stalled += stats.stalled;
                merged.truncated += stats.truncated;
                merged.delivered += stats.delivered;
            }

            // Index parity: the flow table against its interpreter and
            // a naive model, over one seeded flow_mod history.
            classifier_parity_audit(seed, &mut auditor, &label);

            // Crash axes.
            if cfg.crash_points && lowered.crash_sweep {
                match crash_point_sweep(
                    &crash_sweep_config(seed),
                    SupervisorConfig::default(),
                    &cfg.scratch_dir,
                    &label,
                ) {
                    Ok(c) => {
                        let t = result.crash.get_or_insert_with(CrashSweepReport::default);
                        t.crash_points += c.crash_points;
                        t.byte_identical += c.byte_identical;
                        t.honest_partial += c.honest_partial;
                    }
                    Err(OsntError::InvariantViolated { invariant, detail }) => {
                        auditor.violate(invariant, detail)
                    }
                    Err(e) => return Err(e),
                }
            }
            if cfg.crash_points && lowered.journal_torture {
                match journal_torture(
                    &crash_sweep_config(seed),
                    SupervisorConfig::default(),
                    &cfg.scratch_dir,
                    &label,
                    seed,
                ) {
                    Ok(t) => {
                        let m = result.torture.get_or_insert_with(TortureReport::default);
                        m.truncations += t.truncations;
                        m.bit_flips += t.bit_flips;
                        m.resumed_identical += t.resumed_identical;
                        m.honest_errors += t.honest_errors;
                    }
                    Err(OsntError::InvariantViolated { invariant, detail }) => {
                        auditor.violate(invariant, detail)
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        auditor.audit_fault_rollup(&scenario.name, &result.fault_totals);
        report.scenarios.push(result);
    }

    report.audited = auditor.audited();
    report.violations = auditor.violations().to_vec();
    Ok(report)
}

// ---------------------------------------------------------------------
// Index parity: the flow table vs its interpreter and a naive model.
// ---------------------------------------------------------------------

const PARITY_OPS: usize = 2_000;

/// splitmix64 — a deterministic op stream without an RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A wildcard rule drawn from a small colliding pool: overlapping
/// prefixes, shared values, frequent equal-priority ties — and junk
/// under the wildcards (host bits below the prefix, a port value in a
/// wildcarded field), so that distinct entries lower alike.
fn parity_rule(r: u64) -> (OfMatch, u16) {
    let mut m = OfMatch::ipv4_dst(Ipv4Addr::new(10, 2, ((r >> 8) & 3) as u8, (r & 3) as u8));
    m.set_nw_dst_prefix([8, 16, 24, 32][((r >> 16) & 3) as usize]);
    m.tp_dst = ((r >> 28) & 1) as u16;
    if (r >> 20) & 3 == 0 {
        m.tp_dst = 4000 + ((r >> 24) & 3) as u16;
        m.wildcards &= !wildcards::TP_DST;
    }
    (m, [1u16, 5, 5, 9][((r >> 32) & 3) as usize])
}

/// Drive a seeded flow_mod history into a flow table and into a naive
/// model of it (a vector, every op a scan), auditing what each flow_mod
/// reports against the model, the index verdict (`lookup_key_idx`) of
/// a probe key against the rule interpreter (`lookup_idx`) after every
/// op, and the final table contents against the model's. This is the
/// chaos matrix's standing guard on the tuple-space index;
/// `tests/contract.rs` runs it under tier-1.
pub fn classifier_parity_audit(seed: u64, auditor: &mut InvariantAuditor, label: &str) {
    /// Rule identities, order-free (the model does not mimic the
    /// table's `swap_remove` storage order).
    fn ids<'a>(entries: impl Iterator<Item = &'a FlowEntry>) -> Vec<String> {
        let mut out: Vec<String> = entries
            .map(|e| format!("{:?}|{};", e.of_match, e.priority))
            .collect();
        out.sort();
        out
    }
    /// Remove and report the model rows `gone` selects.
    fn take(model: &mut Vec<FlowEntry>, gone: impl Fn(&FlowEntry) -> bool) -> Vec<String> {
        let (out, kept): (Vec<FlowEntry>, Vec<FlowEntry>) =
            std::mem::take(model).into_iter().partition(|e| gone(e));
        *model = kept;
        ids(out.iter())
    }

    const CAPACITY: usize = 256;
    let mut rng = seed;
    let mut table = FlowTable::new(CAPACITY);
    let mut model: Vec<FlowEntry> = Vec::new();
    for i in 0..PARITY_OPS {
        let r = splitmix(&mut rng);
        let (m, priority) = parity_rule(r);
        // A millisecond per op, so the one-second hard timeouts below
        // do expire inside the history.
        let now = SimTime::from_ms(i as u64);
        let (reported, expected) = match r % 8 {
            0..=4 => {
                let mut e = FlowEntry::new(
                    m,
                    priority,
                    ActionList::one(Action::Output {
                        port: 2,
                        max_len: 0,
                    }),
                    now,
                );
                e.hard_timeout = ((r >> 40) & 1) as u16;
                let same = |row: &FlowEntry| row.of_match == m && row.priority == priority;
                let fits = match model.iter().position(same) {
                    Some(at) => {
                        model[at] = e.clone();
                        true
                    }
                    None if model.len() >= CAPACITY => false,
                    None => {
                        model.push(e.clone());
                        true
                    }
                };
                (
                    vec![table.add(e).is_ok().to_string()],
                    vec![fits.to_string()],
                )
            }
            5 => (
                ids(table.delete(&m, priority, true).iter()),
                take(&mut model, |row| {
                    row.of_match == m && row.priority == priority
                }),
            ),
            6 => (
                ids(table.delete(&m, priority, false).iter()),
                take(&mut model, |row| covers(&m, &row.of_match)),
            ),
            _ => (
                ids(table.expire(now).iter().map(|(e, _)| e)),
                take(&mut model, |row| {
                    let life = SimDuration::from_secs(row.hard_timeout as u64);
                    row.hard_timeout > 0 && now >= row.installed_at + life
                }),
            ),
        };
        if reported != expected {
            auditor.violate(
                "classifier-parity",
                format!("{label}: op {i} reported {reported:?}, the model {expected:?}"),
            );
        }
        let k = splitmix(&mut rng);
        let frame = PacketBuilder::ethernet(MacAddr::local(3), MacAddr::local(4))
            .ipv4(
                Ipv4Addr::new(10, 9, 9, 9),
                Ipv4Addr::new(10, 2, ((k >> 2) & 3) as u8, (k & 3) as u8),
            )
            .udp(5000, 4000 + ((k >> 4) & 3) as u16)
            .build();
        let parsed = frame.parse();
        let in_port = ((k >> 8) & 1) as u16 + 1;
        let oracle = table.lookup_idx(in_port, &parsed);
        let index = table.lookup_key_idx(in_port, &FlowKey::extract(&parsed));
        if index != oracle {
            auditor.violate(
                "classifier-parity",
                format!(
                    "{label}: lookup verdict diverged at op {i}: index {index:?} vs interpreter {oracle:?}"
                ),
            );
        }
    }
    auditor.audit_classifier_parity(
        label,
        &ids(model.iter()).concat(),
        &ids(table.iter()).concat(),
    );
}

// ---------------------------------------------------------------------
// Control-plane harness: blaster -> FaultyControlChannel -> sink.
// ---------------------------------------------------------------------

const CONTROL_FRAMES: u64 = 400;
const CONTROL_GAP: SimDuration = SimDuration::from_us(3);

/// Emits `CONTROL_FRAMES` control frames at a fixed cadence, spanning
/// the scripted fault windows.
struct ControlBlaster {
    template: Packet,
    sent: u64,
}

impl Component for ControlBlaster {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        kernel.schedule_timer_at(me, SimTime::from_us(100), 0);
    }

    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, _tag: u64) {
        let _ = kernel.transmit(me, 0, self.template.clone());
        self.sent += 1;
        if self.sent < CONTROL_FRAMES {
            kernel.schedule_timer(me, CONTROL_GAP, 0);
        }
    }

    fn name(&self) -> &str {
        "chaos-control-blaster"
    }
}

/// Counts what survives the channel.
struct ControlSink {
    received: Rc<RefCell<u64>>,
}

impl Component for ControlSink {
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
        *self.received.borrow_mut() += 1;
    }

    fn name(&self) -> &str {
        "chaos-control-sink"
    }
}

/// Drive the scripted control channel to quiescence (every stall
/// window drains) and audit its ledger.
fn run_control_harness(
    config: ControlFaultConfig,
    auditor: &mut InvariantAuditor,
    label: &str,
) -> ControlFaultStats {
    let (channel, stats) = match FaultyControlChannel::new(config) {
        Ok(x) => x,
        Err(e) => {
            auditor.violate(
                "control-ledger",
                format!("{label}: lowered control schedule did not validate: {e}"),
            );
            return ControlFaultStats::default();
        }
    };
    let template = PacketBuilder::ethernet(MacAddr::local(9), MacAddr::local(10))
        .ipv4(Ipv4Addr::new(10, 9, 0, 1), Ipv4Addr::new(10, 9, 0, 2))
        .udp(6653, 6653)
        .pad_to_frame(96)
        .build();
    let received = Rc::new(RefCell::new(0u64));
    let mut b = SimBuilder::new();
    let blaster = b.add_component(
        "control-blaster",
        Box::new(ControlBlaster { template, sent: 0 }),
        1,
    );
    let chan = b.add_component("control-chaos", Box::new(channel), 2);
    let sink = b.add_component(
        "control-sink",
        Box::new(ControlSink {
            received: received.clone(),
        }),
        1,
    );
    b.connect(blaster, 0, chan, 0, LinkSpec::ten_gig());
    b.connect(chan, 1, sink, 0, LinkSpec::ten_gig());
    let mut sim = b.build();
    sim.run_to_quiescence(CONTROL_FRAMES * 16 + 10_000);
    let s = *stats.borrow();
    auditor.audit_control(label, &s, *received.borrow());
    if s.offered != CONTROL_FRAMES {
        auditor.violate(
            "control-ledger",
            format!(
                "{label}: blaster offered {CONTROL_FRAMES} frames but the channel saw {}",
                s.offered
            ),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChaosScenario, Episode};

    fn one_scenario(sc: ChaosScenario) -> CampaignConfig {
        CampaignConfig {
            plan: ChaosPlan {
                name: "unit".into(),
                base_seed: 3,
                scenarios: vec![sc],
            },
            seeds: 1,
            crash_points: false,
            scratch_dir: std::env::temp_dir(),
        }
    }

    #[test]
    fn clean_scenario_campaign_is_clean() {
        let report = run_campaign(&one_scenario(ChaosScenario {
            name: "clean".into(),
            background_load: 0.4,
            duration: SimDuration::from_ms(4),
            warmup: SimDuration::from_ms(1),
            ..ChaosScenario::default()
        }))
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.runs(), 1);
        assert!(report.audited >= 1);
        let rendered = report.render();
        assert!(rendered.contains("invariant violations: 0"), "{rendered}");
        assert!(report.into_result().is_ok());
    }

    #[test]
    fn faulty_scenario_books_still_balance() {
        let report = run_campaign(&one_scenario(ChaosScenario {
            name: "bursty".into(),
            background_load: 0.3,
            duration: SimDuration::from_ms(4),
            warmup: SimDuration::from_ms(1),
            episodes: vec![
                Episode::LossBurst {
                    enter_probability: 0.02,
                    mean_burst_frames: 6.0,
                },
                Episode::Duplicate { probability: 0.03 },
            ],
            ..ChaosScenario::default()
        }))
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let totals = report.fault_totals();
        assert!(totals.offered > 0);
        assert!(totals.dropped > 0, "the bursty channel must bite");
        assert_eq!(
            totals.delivered,
            totals.offered - totals.dropped + totals.duplicated
        );
    }

    #[test]
    fn overload_scenario_sheds_instead_of_growing() {
        let report = run_campaign(&one_scenario(ChaosScenario {
            name: "squeeze".into(),
            background_load: 1.0,
            duration: SimDuration::from_ms(4),
            warmup: SimDuration::from_ms(1),
            capture_limit: Some(64),
            ..ChaosScenario::default()
        }))
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let shed: u64 = report.scenarios.iter().map(|s| s.capture_shed).sum();
        assert!(shed > 0, "the 64-packet bound must shed under overload");
    }

    #[test]
    fn control_chaos_ledger_balances() {
        let report = run_campaign(&one_scenario(ChaosScenario {
            name: "control".into(),
            duration: SimDuration::from_ms(4),
            warmup: SimDuration::from_ms(1),
            episodes: vec![
                Episode::ControlDown {
                    start: SimTime::from_us(300),
                    length: SimDuration::from_us(200),
                },
                Episode::ControlStall {
                    start: SimTime::from_us(700),
                    length: SimDuration::from_us(150),
                },
                Episode::ControlTruncate { probability: 0.05 },
            ],
            ..ChaosScenario::default()
        }))
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let c = report.scenarios[0].control.expect("control harness ran");
        assert_eq!(c.offered, CONTROL_FRAMES);
        assert!(c.dropped > 0, "the disconnect window must bite");
        assert!(c.stalled > 0, "the stall window must bite");
        assert_eq!(c.offered, c.dropped + c.delivered);
    }

    #[test]
    fn classifier_parity_audit_is_clean_across_seeds() {
        let mut auditor = InvariantAuditor::new();
        for seed in 0..4u64 {
            classifier_parity_audit(seed, &mut auditor, &format!("parity@seed{seed}"));
        }
        assert_eq!(auditor.audited(), 4);
        assert!(
            auditor.violations().is_empty(),
            "{:?}",
            auditor.violations()
        );
    }

    /// What `osnt chaos` runs by default, at one seed: every scenario of
    /// the built-in corpus, crash-point sweeps and journal torture
    /// included, audited clean.
    #[test]
    fn the_builtin_corpus_has_no_violations() {
        let report = run_campaign(&CampaignConfig {
            seeds: 1,
            ..CampaignConfig::default()
        })
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.runs(), ChaosPlan::builtin().scenarios.len() as u64);
        assert!(report.scenarios.iter().any(|s| s.crash.is_some()));
        assert!(report.scenarios.iter().any(|s| s.torture.is_some()));
    }

    #[test]
    fn campaign_rejects_a_broken_shape() {
        let mut cfg = one_scenario(ChaosScenario::default());
        cfg.seeds = 0;
        assert!(matches!(run_campaign(&cfg), Err(OsntError::Config { .. })));
    }
}
