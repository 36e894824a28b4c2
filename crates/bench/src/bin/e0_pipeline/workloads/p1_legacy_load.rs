//! `p1_legacy_load` — demo Part I: a legacy switch's latency under load,
//! through `LatencyExperiment::run_legacy`.
//!
//! 64 B frames (the smallest, so per-frame cost dominates), a 2 %
//! Poisson probe and a 90 % Poisson background for 10 ms: ~137 k frames
//! offered per rep. `run_legacy` is one call that cannot be sliced, so
//! the rep itself is kept to ~50 ms of wall time and the caller paces
//! between reps. Generator, kernel and the legacy fabric do
//! the work; the monitor's filter rejects 98 % of arrivals; flow table,
//! OpenFlow codec and OFLOPS controller are idle. An op is a frame
//! offered to the switch.

use super::{timed_setup, AnalyzeLayer, Pace, Rep, Scale, Workload};
use crate::alloc_count;
use crate::digest::Digest;
use crate::spanned::{wrap, CardPortMirror, Layer, Spans};
use osnt_core::experiment::{BACKGROUND_PORT, PROBE_PORT};
use osnt_core::{latency_of, LatencyExperiment, StreamingSummary, Summary};
use osnt_gen::workload::FixedTemplate;
use osnt_gen::{GenConfig, GenStats, GeneratorPort, Schedule, StampConfig};
use osnt_mon::{
    CaptureBuffer, FilterAction, FilterTable, HostPathConfig, MonConfig, MonStats, MonitorPort,
};
use osnt_netsim::{LinkSpec, Sim, SimBuilder};
use osnt_packet::{line_rate_pps, MacAddr, PacketBuilder, WildcardRule};
use osnt_switch::{LegacyConfig, LegacySwitch};
use osnt_time::{DriftModel, HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "p1_legacy_load",
    analyze_layer: AnalyzeLayer::Core,
    timed,
    traced,
};

const FRAME_LEN: usize = 64;
const PROBE_LOAD: f64 = 0.02;
const BACKGROUND_LOAD: f64 = 0.90;
const DURATION_US: u64 = 10_000;

fn experiment(seed: u64, scale: Scale) -> LatencyExperiment {
    let duration = SimDuration::from_us(DURATION_US / scale.div);
    LatencyExperiment {
        frame_len: FRAME_LEN,
        probe_load: PROBE_LOAD,
        background_load: BACKGROUND_LOAD,
        duration,
        warmup: SimDuration::from_ps(duration.as_ps() / 4),
        clock_model: DriftModel::ideal(),
        seed,
        // Every probe's latency enters the digest, not just the summary.
        record_raw: true,
        // One kernel, whatever OSNT_SHARDS says.
        shards: Some(1),
        ..LatencyExperiment::default()
    }
}

/// The digest both entry points compute, each from its own sources.
struct Ledger<'a> {
    probe_sent: u64,
    background_sent: u64,
    probe_gen_dropped: u64,
    /// Of the capture port. The public report carries four of its
    /// counters, and only those four enter the ledger.
    mon: MonStats,
    captured: u64,
    latency: Option<&'a Summary>,
    raw_ps: &'a [u64],
}

impl Ledger<'_> {
    fn ops(&self) -> u64 {
        self.probe_sent + self.background_sent
    }

    /// Frames offered that the capture port neither captured nor
    /// accounted for (the fabric lost them, or they never drained).
    fn failed(&self) -> u64 {
        let m = &self.mon;
        let accounted = self.captured + m.crc_fail + m.filtered_out + m.host_drops + m.capture_shed;
        self.ops().saturating_sub(accounted)
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        let m = &self.mon;
        for v in [
            self.probe_sent,
            self.background_sent,
            self.probe_gen_dropped,
            self.captured,
            m.crc_fail,
            m.filtered_out,
            m.host_drops,
            m.capture_shed,
        ] {
            d.u64(v);
        }
        if let Some(s) = self.latency {
            d.u64(s.count as u64);
            for v in [
                s.min_ns,
                s.max_ns,
                s.mean_ns,
                s.stddev_ns,
                s.p50_ns,
                s.p90_ns,
                s.p99_ns,
                s.jitter_ns,
            ] {
                d.f64(v);
            }
        }
        d.u64(self.raw_ps.len() as u64);
        for &ps in self.raw_ps {
            d.u64(ps);
        }
        d.finish()
    }
}

/// The topology `LatencyExperiment::run` + `run_legacy` build, from the
/// public constructors.
struct Rebuilt {
    sim: Sim,
    probe_gen: Rc<RefCell<GenStats>>,
    bg_gen: Rc<RefCell<GenStats>>,
    capture: Rc<RefCell<CaptureBuffer>>,
    mon: Rc<RefCell<MonStats>>,
    horizon: SimTime,
    cutoff: SimTime,
}

fn udp_frame(src: u8, src_port: u16, dst_port: u16) -> FixedTemplate {
    FixedTemplate::new(
        PacketBuilder::ethernet(MacAddr::local(src), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, src), Ipv4Addr::new(10, 0, 0, 2))
            .udp(src_port, dst_port)
            .pad_to_frame(FRAME_LEN)
            .build(),
    )
}

fn rebuild(seed: u64, scale: Scale, spans: Option<&Rc<Spans>>) -> Rebuilt {
    let exp = experiment(seed, scale);
    let start_at = SimTime::from_ms(1);
    let stop_at = start_at + exp.duration;
    let line_pps = line_rate_pps(10_000_000_000, FRAME_LEN);
    let clock = Rc::new(RefCell::new(HwClock::new(exp.clock_model.clone(), seed)));
    let mut b = SimBuilder::new();

    let dut_cfg = LegacyConfig::default();
    let dut_ports = dut_cfg.n_ports;
    let dut = b.add_component(
        "legacy-dut",
        wrap(LegacySwitch::new(dut_cfg), Layer::Switch, spans),
        dut_ports,
    );

    let card_port = |b: &mut SimBuilder, i: usize, workload, gen_cfg, mon_cfg| {
        let (gen, gen_stats) = GeneratorPort::new(Box::new(workload), gen_cfg, clock.clone());
        let (mon, capture, mon_stats) = MonitorPort::new(mon_cfg, clock.clone());
        let port = CardPortMirror {
            gen: Some(wrap(gen, Layer::Gen, spans)),
            mon: wrap(mon, Layer::Mon, spans),
        };
        let id = b.add_component(&format!("osnt-port{i}"), Box::new(port), 1);
        (id, gen_stats, capture, mon_stats)
    };

    let (probe_id, probe_gen, _, _) = card_port(
        &mut b,
        0,
        udp_frame(1, 5001, PROBE_PORT),
        GenConfig {
            schedule: Schedule::Poisson {
                mean_pps: PROBE_LOAD * line_pps,
                seed,
            },
            start_at,
            stop_at: Some(stop_at),
            stamp: Some(StampConfig::default_payload()),
            ..GenConfig::default()
        },
        MonConfig::default(),
    );
    // The capture port also sends the one broadcast frame that teaches
    // the switch where the capture-side station lives.
    let mut filter = FilterTable::drop_by_default();
    filter.push(
        WildcardRule::any().with_dst_port(PROBE_PORT),
        FilterAction::Capture,
    );
    let (capture_id, _, capture, mon) = card_port(
        &mut b,
        1,
        FixedTemplate::new(
            PacketBuilder::ethernet(MacAddr::local(2), MacAddr::BROADCAST)
                .ipv4(
                    Ipv4Addr::new(10, 0, 0, 2),
                    Ipv4Addr::new(255, 255, 255, 255),
                )
                .udp(1, 1)
                .build(),
        ),
        GenConfig {
            count: Some(1),
            ..GenConfig::default()
        },
        MonConfig {
            filter,
            host: HostPathConfig::unlimited(),
            capture_limit: exp.capture_limit,
            ..MonConfig::default()
        },
    );
    let (bg_id, bg_gen, _, _) = card_port(
        &mut b,
        2,
        udp_frame(3, 5002, BACKGROUND_PORT),
        GenConfig {
            schedule: Schedule::Poisson {
                mean_pps: BACKGROUND_LOAD * line_pps,
                seed: seed.wrapping_mul(0x9e37_79b9).wrapping_add(17),
            },
            start_at,
            stop_at: Some(stop_at),
            ..GenConfig::default()
        },
        MonConfig::default(),
    );
    b.connect(probe_id, 0, dut, 0, LinkSpec::ten_gig());
    b.connect(capture_id, 0, dut, 1, LinkSpec::ten_gig());
    b.connect(bg_id, 0, dut, 2, LinkSpec::ten_gig());
    Rebuilt {
        sim: b.build(),
        probe_gen,
        bg_gen,
        capture,
        mon,
        horizon: stop_at + SimDuration::from_ms(10),
        cutoff: start_at + exp.warmup,
    }
}

fn timed(seed: u64, scale: Scale, _pace: Pace<'_>) -> Rep {
    // `run_legacy` builds its topology inside the timed call, where the
    // build cannot be told from the run. So that work moved into the
    // constructors still shows as set-up, `setup_s` here times the
    // bench's mirror of that topology, built from the same constructors
    // and dropped unused: not the set-up `run_legacy` does, which the
    // headline pays for.
    let (setup, (exp, dut, _unused)) = timed_setup(|| {
        (
            experiment(seed, scale),
            LegacyConfig::default(),
            rebuild(seed, scale, None),
        )
    });

    let t = Instant::now();
    let report = exp.run_legacy(dut).expect("p1_legacy_load: run_legacy");
    let run = t.elapsed();

    let ledger = Ledger {
        probe_sent: report.probe_sent,
        background_sent: report.background_sent,
        probe_gen_dropped: report.probe_gen_dropped,
        mon: MonStats {
            crc_fail: report.crc_fail,
            filtered_out: report.filtered_out,
            host_drops: report.host_drops,
            capture_shed: report.capture_shed,
            ..MonStats::default()
        },
        captured: report.probe_received as u64,
        latency: report.latency.as_ref(),
        raw_ps: report.raw_latencies_ps.as_deref().unwrap_or(&[]),
    };
    Rep {
        setup,
        run,
        analyze: std::time::Duration::ZERO,
        ops: ledger.ops(),
        failed: ledger.failed(),
        events: None,
        digest: ledger.digest(),
        allocs: None,
    }
}

fn traced(seed: u64, scale: Scale, spans: &Rc<Spans>, _pace: Pace<'_>) -> Rep {
    let (setup, mut r) = timed_setup(|| rebuild(seed, scale, Some(spans)));

    alloc_count::start();
    let t = Instant::now();
    let events = r.sim.run_until(r.horizon);
    let run = t.elapsed();

    // The analysis `LatencyExperiment::run` does after its simulation.
    let t = Instant::now();
    let capture = r.capture.borrow();
    let mut stream = StreamingSummary::new();
    let mut raw = Vec::new();
    for cap in capture.packets.iter().filter(|c| c.rx_true >= r.cutoff) {
        if let Some(d) = latency_of(cap, StampConfig::DEFAULT_OFFSET) {
            stream.record(d);
            raw.push(d.as_ps());
        }
    }
    let latency = stream.finish();
    let analyze = t.elapsed();
    let allocs = alloc_count::stop();

    let probe = r.probe_gen.borrow();
    let ledger = Ledger {
        probe_sent: probe.sent_frames,
        background_sent: r.bg_gen.borrow().sent_frames,
        probe_gen_dropped: probe.dropped,
        mon: *r.mon.borrow(),
        captured: capture.len() as u64,
        latency: latency.as_ref(),
        raw_ps: &raw,
    };
    Rep {
        setup,
        run,
        analyze,
        ops: ledger.ops(),
        failed: ledger.failed(),
        events: Some(events),
        digest: ledger.digest(),
        allocs: Some(allocs),
    }
}
