//! The CLI subcommand implementations.

use crate::CliError;
use oflops_turbo::modules::{
    AddLatencyModule, AddLatencyReport, ConsistencyModule, ConsistencyReport, RoundRobinDst,
};
use oflops_turbo::{Testbed, TestbedSpec};
use osnt_chaos::{run_campaign, CampaignConfig, ChaosPlan};
use osnt_cli::{Args, UsageError};
use osnt_core::experiment::LatencyExperiment;
use osnt_core::sweep::{render_report, SupervisedSweep, SweepConfig};
use osnt_core::throughput::ThroughputSearch;
use osnt_gen::txstamp::StampConfig;
use osnt_gen::workload::{FixedTemplate, FlowPool};
use osnt_gen::{GenConfig, GeneratorPort, IdtMode, PcapReplay, Schedule};
use osnt_mon::{FilterAction, FilterTable, MonConfig, MonitorPort, ThinConfig};
use osnt_netsim::{Component, ComponentId, Kernel, LinkSpec, SimBuilder};
use osnt_packet::{line_rate_pps, Packet, WildcardRule};
use osnt_service::ServiceConfig;
use osnt_supervisor::SupervisorConfig;
use osnt_switch::{LegacyConfig, OfSwitchConfig};
use osnt_time::{HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

struct Sink;
impl Component for Sink {
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
}

fn dur_opt(d: Option<SimDuration>) -> String {
    d.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
}

/// `osnt linerate` — generator saturation.
pub fn linerate(args: &Args) -> Result<(), CliError> {
    let frame: usize = args.get("frame", 64)?;
    let ms: u64 = args.get("duration-ms", 5)?;
    let ports: usize = args.get("ports", 1)?;
    args.reject_unknown()?;

    let mut b = SimBuilder::new();
    let clock = Rc::new(RefCell::new(HwClock::ideal()));
    let mut stats = Vec::new();
    for i in 0..ports {
        let (gen, s) = GeneratorPort::new(
            Box::new(FixedTemplate::new(FixedTemplate::udp_frame(frame))),
            GenConfig {
                schedule: Schedule::BackToBack,
                stop_at: Some(SimTime::from_ms(ms)),
                ..GenConfig::default()
            },
            clock.clone(),
        );
        let g = b.add_component(&format!("gen{i}"), Box::new(gen), 1);
        let s2 = b.add_component(&format!("sink{i}"), Box::new(Sink), 1);
        b.connect(g, 0, s2, 0, LinkSpec::ten_gig());
        stats.push(s);
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(ms + 1));
    let theory = line_rate_pps(10_000_000_000, frame);
    for (i, s) in stats.iter().enumerate() {
        let s = s.borrow();
        let pps = s.achieved_pps().unwrap_or(0.0);
        println!(
            "port {i}: {} frames, {:.0} pps (theory {:.0}, deficit {:+.4}%)",
            s.sent_frames,
            pps,
            theory,
            (theory - pps) / theory * 100.0
        );
    }
    Ok(())
}

/// `osnt latency` — legacy switch latency under load.
pub fn latency(args: &Args) -> Result<(), CliError> {
    let frame: usize = args.get("frame", 512)?;
    let load: f64 = args.get("load", 0.5)?;
    let ms: u64 = args.get("duration-ms", 20)?;
    args.reject_unknown()?;

    let exp = LatencyExperiment {
        frame_len: frame,
        background_load: load,
        duration: SimDuration::from_ms(ms),
        warmup: SimDuration::from_ms(ms / 4),
        ..LatencyExperiment::default()
    };
    let r = exp.run_legacy(LegacyConfig::default())?;
    println!(
        "probe: sent {}  captured {}  loss {:.3}%",
        r.probe_sent,
        r.probe_received,
        r.loss * 100.0
    );
    match r.latency {
        Some(s) => println!("latency: {}", s.to_line()),
        None => println!("latency: no samples"),
    }
    Ok(())
}

/// `osnt capture` — filtered/thinned capture to pcap.
pub fn capture(args: &Args) -> Result<(), CliError> {
    let frame: usize = args.get("frame", 512)?;
    let load: f64 = args.get("load", 1.0)?;
    let ms: u64 = args.get("duration-ms", 10)?;
    let snap: Option<usize> = args.get_opt("snap")?;
    let dst_port: Option<u16> = args.get_opt("dst-port")?;
    let out = args.get_str("out").map(str::to_string);
    args.reject_unknown()?;
    if !(load > 0.0 && load <= 1.0) {
        return Err(UsageError(format!("--load {load} outside (0, 1]")).into());
    }

    let mut filter = FilterTable::capture_all();
    if let Some(p) = dst_port {
        filter = FilterTable::drop_by_default();
        filter.push(WildcardRule::any().with_dst_port(p), FilterAction::Capture);
    }
    let mon_cfg = MonConfig {
        filter,
        thin: match snap {
            Some(s) => ThinConfig::cut_with_hash(s),
            None => ThinConfig::disabled(),
        },
        ..MonConfig::default()
    };
    let mut b = SimBuilder::new();
    let clock = Rc::new(RefCell::new(HwClock::ideal()));
    let (gen, _) = GeneratorPort::new(
        Box::new(FlowPool::new(64, frame, 7)),
        GenConfig {
            schedule: Schedule::Utilization {
                fraction: load,
                line_rate_bps: 10_000_000_000,
            },
            stop_at: Some(SimTime::from_ms(ms)),
            ..GenConfig::default()
        },
        clock.clone(),
    );
    let (mon, buffer, stats) = MonitorPort::new(mon_cfg, clock);
    let g = b.add_component("gen", Box::new(gen), 1);
    let m = b.add_component("mon", Box::new(mon), 1);
    b.connect(g, 0, m, 0, LinkSpec::ten_gig());
    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(ms + 2));
    let s = *stats.borrow();
    println!(
        "rx {}  filtered-out {}  thinned {}  host {}  host-drops {} ({:.1}% delivered)",
        s.rx_frames,
        s.filtered_out,
        s.thinned,
        s.host_frames,
        s.host_drops,
        s.host_delivery_ratio().unwrap_or(1.0) * 100.0
    );
    if let Some(path) = out {
        let bytes = buffer
            .borrow()
            .write_pcap(Vec::new())
            .map_err(|e| UsageError(format!("pcap build failed: {e}")))?;
        std::fs::write(&path, &bytes)
            .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
        println!("wrote {} packets to {path}", buffer.borrow().len());
    }
    Ok(())
}

/// `osnt replay <file>` — replay a pcap.
pub fn replay(args: &Args) -> Result<(), CliError> {
    let [path] = args.positional() else {
        return Err(UsageError("replay needs exactly one pcap file".into()).into());
    };
    let mode_str = args.get_str("mode").unwrap_or("asrec").to_string();
    args.reject_unknown()?;
    let mode = parse_mode(&mode_str)?;

    let bytes = std::fs::read(path).map_err(|e| UsageError(format!("cannot read {path}: {e}")))?;
    let records =
        osnt_packet::pcap::from_bytes(&bytes).map_err(|e| UsageError(format!("{path}: {e}")))?;
    println!("loaded {} packets from {path}", records.len());

    let mut b = SimBuilder::new();
    let clock = Rc::new(RefCell::new(HwClock::ideal()));
    let (gen, stats) = GeneratorPort::from_replay(
        PcapReplay::new(records, mode),
        GenConfig {
            record_departures: true,
            ..GenConfig::default()
        },
        clock,
    );
    let g = b.add_component("replay", Box::new(gen), 1);
    let s = b.add_component("sink", Box::new(Sink), 1);
    b.connect(g, 0, s, 0, LinkSpec::ten_gig());
    let mut sim = b.build();
    sim.run_to_quiescence(100_000_000);
    let st = stats.borrow();
    println!(
        "replayed {} frames ({} bytes) over {}",
        st.sent_frames,
        st.sent_bytes,
        match (st.first_tx, st.last_tx) {
            (Some(a), Some(b)) => (b - a).to_string(),
            _ => "-".into(),
        }
    );
    if let Some(pps) = st.achieved_pps() {
        println!("mean rate {:.0} pps", pps);
    }
    Ok(())
}

fn parse_mode(s: &str) -> Result<IdtMode, UsageError> {
    if s == "asrec" {
        return Ok(IdtMode::AsRecorded);
    }
    if s == "b2b" {
        return Ok(IdtMode::BackToBack);
    }
    if let Some(us) = s.strip_prefix("fixed-us:") {
        let us: u64 = us
            .parse()
            .map_err(|_| UsageError(format!("bad fixed-us value: {s}")))?;
        return Ok(IdtMode::Fixed(SimDuration::from_us(us)));
    }
    if let Some(f) = s.strip_prefix("scale:") {
        return match f.parse::<f64>() {
            Ok(f) if f >= 0.0 && f.is_finite() => Ok(IdtMode::Scaled(f)),
            _ => Err(UsageError(format!(
                "bad scale value: {s} (a finite factor ≥ 0)"
            ))),
        };
    }
    Err(UsageError(format!("unknown replay mode: {s}")))
}

/// `osnt throughput` — RFC 2544-style search.
pub fn throughput(args: &Args) -> Result<(), CliError> {
    let frame: usize = args.get("frame", 512)?;
    let resolution: f64 = args.get("resolution", 0.01)?;
    args.reject_unknown()?;
    let search = ThroughputSearch {
        frame_len: frame,
        resolution,
        ..ThroughputSearch::default()
    };
    let r = search.run_legacy(&LegacyConfig::default())?;
    println!(
        "frame {} B: zero-loss throughput {:.1}% of line rate ({} trials; loss one step above: {:.3}%)",
        r.frame_len,
        r.zero_loss_load * 100.0,
        r.trials,
        r.loss_above * 100.0
    );
    Ok(())
}

/// `--rules`, at least one.
fn rules_flag(args: &Args) -> Result<usize, UsageError> {
    match args.get("rules", 50)? {
        0 => Err(UsageError("--rules must be at least 1".into())),
        rules => Ok(rules),
    }
}

/// `osnt oflops-add` — flow-insertion latency.
pub fn oflops_add(args: &Args) -> Result<(), CliError> {
    let rules = rules_flag(args)?;
    let honest: bool = args.get("honest-barrier", false)?;
    args.reject_unknown()?;

    let (module, state) = AddLatencyModule::new(rules, SimTime::from_ms(10));
    let spec = TestbedSpec {
        switch: OfSwitchConfig {
            honest_barrier: honest,
            ..OfSwitchConfig::default()
        },
        probe: Some((
            Box::new(RoundRobinDst::new(rules, 128)),
            GenConfig {
                schedule: Schedule::ConstantPps(2_000_000.0),
                start_at: SimTime::from_ms(5),
                stop_at: Some(SimTime::from_ms(60)),
                stamp: Some(StampConfig::default_payload()),
                ..GenConfig::default()
            },
        )),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(70));
    let report = AddLatencyReport::analyze(&tb, &state.borrow(), rules);
    println!("{rules} rules, honest-barrier={honest}:");
    println!(
        "  barrier (control plane): {}",
        dur_opt(report.barrier_latency)
    );
    println!(
        "  activation (data plane): median {}  max {}",
        dur_opt(report.median_activation()),
        dur_opt(report.max_activation())
    );
    println!(
        "  rules active only after barrier: {}/{} (never active: {})",
        report.activated_after_barrier,
        rules,
        report.never_activated()
    );
    Ok(())
}

/// `osnt oflops-mod` — update consistency.
pub fn oflops_mod(args: &Args) -> Result<(), CliError> {
    let rules = rules_flag(args)?;
    args.reject_unknown()?;

    let (module, state) = ConsistencyModule::new(rules, SimTime::from_ms(20));
    let spec = TestbedSpec {
        switch: OfSwitchConfig::default(),
        probe: Some((
            Box::new(RoundRobinDst::new(rules, 128)),
            GenConfig {
                schedule: Schedule::ConstantPps(2_000_000.0),
                start_at: SimTime::from_ms(5),
                stop_at: Some(SimTime::from_ms(70)),
                stamp: Some(StampConfig::default_payload()),
                ..GenConfig::default()
            },
        )),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(80));
    let report = ConsistencyReport::analyze(&tb, &state.borrow(), rules);
    println!("{rules} rules rewritten A→B:");
    println!("  barrier: {}", dur_opt(report.barrier_latency));
    println!("  slowest migration: {}", dur_opt(report.max_activation()));
    println!(
        "  stale packets after barrier: {} (worst lag {})",
        report.stale_after_barrier,
        dur_opt(report.max_stale_lag)
    );
    Ok(())
}

fn parse_loads(s: &str) -> Result<Vec<f64>, UsageError> {
    let loads: Vec<f64> = s
        .split(',')
        .map(|x| {
            x.trim()
                .parse()
                .map_err(|_| UsageError(format!("bad load in --loads: {x:?}")))
        })
        .collect::<Result<_, _>>()?;
    if loads.is_empty() {
        return Err(UsageError("--loads must name at least one load".into()));
    }
    Ok(loads)
}

/// `osnt run` — the supervised multi-load latency sweep: journaled,
/// stall-limited, resumable. A fresh run needs `--journal <path>`; after a
/// crash or abort, `--resume <path>` picks the campaign back up from the
/// journal (the configuration comes from the journal header and is
/// digest-verified) and produces a report byte-identical to an
/// uninterrupted run.
pub fn run(args: &Args) -> Result<(), CliError> {
    let resume = args.get_str("resume").map(str::to_string);
    let journal = args.get_str("journal").map(str::to_string);
    let frame: usize = args.get("frame", 512)?;
    let probe_load: f64 = args.get("probe-load", 0.02)?;
    let loads_str = args.get_str("loads").unwrap_or("0.0,0.5,0.9").to_string();
    let ms: u64 = args.get("duration-ms", 20)?;
    let warmup_ms: u64 = args.get("warmup-ms", 5)?;
    let seed: u64 = args.get("seed", 1)?;
    let stall_ms: u64 = args.get("stall-timeout-ms", 30_000)?;
    let kill_at: Option<u16> = args.get_opt("kill-at-phase")?;
    let wedge_at: Option<u16> = args.get_opt("wedge-at-phase")?;
    let out = args.get_str("out").map(str::to_string);
    args.reject_unknown()?;

    let supervisor = SupervisorConfig {
        stall_timeout: Some(Duration::from_millis(stall_ms.max(1))),
        ..SupervisorConfig::default()
    };

    let (config, outcome) = match (resume, journal) {
        (Some(_), Some(_)) => {
            return Err(UsageError(
                "pass either --journal (fresh run) or --resume, not both".into(),
            )
            .into());
        }
        (Some(path), None) => {
            if kill_at.is_some() || wedge_at.is_some() {
                return Err(UsageError(
                    "--kill-at-phase/--wedge-at-phase are fresh-run fault injections; \
                     a resumed run must match the uninterrupted one"
                        .into(),
                )
                .into());
            }
            SupervisedSweep::resume(Path::new(&path), supervisor)?
        }
        (None, Some(path)) => {
            let config = SweepConfig {
                frame_len: frame,
                probe_load,
                loads: parse_loads(&loads_str)?,
                duration: SimDuration::from_ms(ms),
                warmup: SimDuration::from_ms(warmup_ms),
                seed,
            };
            let mut sweep = SupervisedSweep::new(config.clone());
            sweep.supervisor = supervisor;
            sweep.kill_at_phase = kill_at;
            sweep.wedge_at_phase = wedge_at;
            let outcome = sweep.run(Path::new(&path))?;
            (config, outcome)
        }
        (None, None) => {
            return Err(
                UsageError("run needs --journal <path> (or --resume <path>)".into()).into(),
            );
        }
    };

    let report = render_report(&config, &outcome);
    print!("{report}");
    if let Some(path) = out {
        std::fs::write(&path, &report)
            .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
    }
    if let Some(info) = &outcome.aborted {
        return Err(CliError::Partial(format!(
            "phase {} ({}) aborted: {}",
            info.phase_index, info.phase, info.reason
        )));
    }
    Ok(())
}

/// `osnt chaos` — run a deterministic chaos campaign and audit every
/// invariant the platform claims. Exit status is the audit: any broken
/// invariant surfaces as a structured error, never a panic.
pub fn chaos(args: &Args) -> Result<(), CliError> {
    let plan_path = args.get_str("plan").map(str::to_string);
    let seeds: u64 = args.get("seeds", 4)?;
    let crash_points: bool = args.get("crash-points", true)?;
    let out = args.get_str("out").map(str::to_string);
    args.reject_unknown()?;

    let plan = match plan_path {
        Some(path) => {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| UsageError(format!("cannot read {path}: {e}")))?;
            ChaosPlan::parse(&src)?
        }
        None => ChaosPlan::builtin(),
    };
    let cfg = CampaignConfig {
        plan,
        seeds,
        crash_points,
        scratch_dir: std::env::temp_dir(),
    };
    let report = run_campaign(&cfg)?;
    let rendered = report.render();
    print!("{rendered}");
    if let Some(path) = out {
        std::fs::write(&path, &rendered)
            .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
    }
    // The campaign itself always completes; a dirty audit is the
    // failure. `into_result` carries the first violation as a typed
    // error so scripts get a non-zero exit and a parseable reason.
    report.into_result()?;
    Ok(())
}

/// `osnt serve` — the multi-tenant run service behind a TCP listener:
/// bounded worker pool, admission control, per-session quotas,
/// weighted-fair scheduling, crash retry with journal resume. Prints
/// `listening on <addr>` (bind port 0 for an ephemeral port), accepts
/// submissions until a client sends shutdown, then drains and prints
/// the session ledger.
pub fn serve(args: &Args) -> Result<(), CliError> {
    let addr = args.get_str("addr").unwrap_or("127.0.0.1:0").to_string();
    let workers: usize = args.get("workers", 2)?;
    let queue_cap: usize = args.get("queue-cap", 64)?;
    let tenant_queue_cap: usize = args.get("tenant-queue-cap", 32)?;
    let spool = args.get_str("spool").map(str::to_string);
    let seed: u64 = args.get("seed", 1)?;
    let retry_base_ms: u64 = args.get("retry-base-ms", 2)?;
    let max_attempts: u32 = args.get("max-attempts", 4)?;
    args.reject_unknown()?;

    let mut cfg = ServiceConfig {
        workers,
        queue_cap,
        tenant_queue_cap,
        seed,
        retry_base: Duration::from_millis(retry_base_ms.max(1)),
        max_attempts,
        ..ServiceConfig::default()
    };
    if let Some(dir) = spool {
        cfg.spool = dir.into();
    }
    let service = osnt_service::serve(&addr, cfg)?;
    let c = service.counts();
    println!("# session ledger");
    println!(
        "submitted {} | admitted {} | rejected {}",
        c.submitted, c.admitted, c.rejected
    );
    println!(
        "completed {} | shed {} | failed {} | published {} | retries {}",
        c.completed, c.shed, c.failed, c.published, c.retries
    );
    let mut auditor = osnt_chaos::InvariantAuditor::new();
    service.audit(&mut auditor, "serve");
    service.shutdown();
    // A ledger that does not balance is a service bug: fail loudly.
    auditor.into_result()?;
    Ok(())
}

/// `osnt submit` — submit one session to a serving `--addr` and (by
/// default) wait for its outcome. Exit codes follow the session's
/// class: completed 0, rejected/shed 4 (no usable answer, by policy),
/// failed 3 (the run died).
pub fn submit(args: &Args) -> Result<(), CliError> {
    let addr = args
        .get_str("addr")
        .ok_or_else(|| UsageError("submit needs --addr <host:port>".into()))?
        .to_string();
    let tenant = args.get_str("tenant").unwrap_or("cli").to_string();
    let weight: u32 = args.get("weight", 1)?;
    let priority: u8 = args.get("priority", 0)?;
    let frame: usize = args.get("frame", 512)?;
    let probe_load: f64 = args.get("probe-load", 0.02)?;
    let loads_str = args.get_str("loads").unwrap_or("0.0,0.5").to_string();
    let ms: u64 = args.get("duration-ms", 5)?;
    let warmup_ms: u64 = args.get("warmup-ms", 1)?;
    let seed: u64 = args.get("seed", 1)?;
    let sim_budget_us: Option<u64> = args.get_opt("sim-budget-us")?;
    let deadline_ms: Option<u64> = args.get_opt("deadline-ms")?;
    let capture_cap: Option<usize> = args.get_opt("capture-cap")?;
    let kill_after: Option<u64> = args.get_opt("kill-after-appends")?;
    let wait: bool = args.get("wait", true)?;
    let shutdown: bool = args.get("shutdown", false)?;
    let out = args.get_str("out").map(str::to_string);
    args.reject_unknown()?;

    if shutdown {
        osnt_service::shutdown_over_tcp(&*addr)?;
        println!("server at {addr} acknowledged shutdown");
        return Ok(());
    }

    let spec = osnt_service::SessionSpec {
        tenant,
        weight,
        priority,
        sweep: SweepConfig {
            frame_len: frame,
            probe_load,
            loads: parse_loads(&loads_str)?,
            duration: SimDuration::from_ms(ms),
            warmup: SimDuration::from_ms(warmup_ms),
            seed,
        },
        quota: osnt_service::SessionQuota {
            sim_budget: sim_budget_us.map(SimDuration::from_us),
            wall_deadline: deadline_ms.map(Duration::from_millis),
            capture_cap,
        },
        kill_after_appends: kill_after,
    };
    match osnt_service::submit_over_tcp(&*addr, spec, wait)? {
        osnt_service::SubmitReply::Rejected { retry_after } => Err(CliError::Partial(format!(
            "admission rejected; retry after {retry_after:?}"
        ))),
        osnt_service::SubmitReply::Admitted { session, record } => {
            println!("admitted as session {session}");
            let Some(rec) = record else {
                return Ok(()); // fire and forget
            };
            match rec.outcome {
                osnt_service::SessionOutcome::Completed => {
                    let report = rec.report.unwrap_or_default();
                    print!("{report}");
                    if let Some(path) = out {
                        std::fs::write(&path, &report)
                            .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
                    }
                    if rec.attempts > 1 {
                        eprintln!(
                            "note: session survived {} worker crash(es); \
                             the report is byte-identical to an uninterrupted run",
                            rec.attempts - 1
                        );
                    }
                    Ok(())
                }
                osnt_service::SessionOutcome::Shed { reason } => Err(CliError::Partial(format!(
                    "session {session} shed: {reason}"
                ))),
                osnt_service::SessionOutcome::Failed { reason } => {
                    Err(CliError::Aborted(osnt_error::OsntError::RunAborted {
                        phase: format!("session {session}: {reason}"),
                        last_progress: 0,
                    }))
                }
            }
        }
    }
}
