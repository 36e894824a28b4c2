//! Isolated probes: one public function of one layer in a loop, no
//! pipeline around it. Each is the median of [`REPS`] loops of at least
//! [`LOOP`]. They say what a layer costs alone; the waterfall says what
//! it costs in a pipeline; the gap between the two is the pipeline's.
//!
//! The supervisor, service and shard probes move no end-to-end metric
//! of the four workloads. They are the recorded baseline for a later
//! supervised or sharded workload, and show meanwhile that a change
//! there leaves the headline alone.

use crate::reference;
use crate::stats::median;
use crate::Metric;
use osnt_core::{LatencyExperiment, StreamingSummary, SweepConfig};
use osnt_gen::workload::FixedTemplate;
use osnt_gen::{GenConfig, GeneratorPort, Schedule};
use osnt_mon::{FilterAction, FilterTable};
use osnt_netsim::{Component, ComponentId, Kernel, LinkSpec, SimBuilder, TimerWheel};
use osnt_openflow::messages::{FlowMod, Message};
use osnt_openflow::{Action, OfMatch};
use osnt_packet::hash::crc32;
use osnt_packet::pool::PacketPool;
use osnt_packet::{FlowKey, MacAddr, Packet, PacketBuilder, WildcardRule};
use osnt_service::{Admission, RunService, ServiceConfig, SessionSpec};
use osnt_supervisor::JournalWriter;
use osnt_switch::{FlowEntry, FlowTable, LegacyConfig};
use osnt_time::{DriftModel, HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const REPS: usize = 5;
const LOOP: Duration = Duration::from_millis(50);
const FRAME_LEN: usize = 128;

/// Median nanoseconds per iteration, normalized like every other time
/// (a reference burst before and after each loop, see
/// [`crate::reference`]). `pass` runs a batch of iterations and returns
/// the time it measured and how many it ran.
fn ns_per_iter(mut pass: impl FnMut() -> (Duration, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let before = reference::burst();
            let (mut spent, mut iters) = (Duration::ZERO, 0u64);
            while spent < LOOP {
                let (d, n) = pass();
                spent += d;
                iters += n;
            }
            let slowdown = reference::slowdown(&[before, reference::burst()]);
            spent.as_nanos() as f64 / iters as f64 / slowdown
        })
        .collect();
    median(&samples)
}

/// [`ns_per_iter`] over `n` back-to-back calls of `op` per pass.
fn ns_per_call<T>(n: u64, mut op: impl FnMut(u64) -> T) -> f64 {
    let mut i = 0u64;
    ns_per_iter(|| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(op(black_box(i)));
            i += 1;
        }
        (t.elapsed(), n)
    })
}

fn udp_frame(dst: Ipv4Addr) -> Packet {
    PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), dst)
        .udp(5001, 9001)
        .pad_to_frame(FRAME_LEN)
        .build()
}

/// The `i`-th /32 rule destination (distinct for `i` < 2²⁴).
fn rule_ip(i: u64) -> Ipv4Addr {
    Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

fn rule(i: u64) -> FlowEntry {
    let out = vec![Action::Output {
        port: 2,
        max_len: 0,
    }];
    FlowEntry::new(OfMatch::ipv4_dst(rule_ip(i)), 100, out, SimTime::ZERO)
}

/// Counts arrivals; the far end of the two simulator probes.
struct Sink(Rc<RefCell<u64>>);

impl Component for Sink {
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {
        *self.0.borrow_mut() += 1;
    }
}

/// Transmits one ready-made frame per wire slot: the kernel's
/// transmit → deliver path with no generator in front of it.
struct Blaster {
    frame: Packet,
    left: u64,
}

impl Component for Blaster {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        k.schedule_timer_at(me, SimTime::ZERO, 0);
    }
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _: u64) {
        let _ = k.transmit(me, 0, self.frame.clone());
        self.left -= 1;
        if self.left > 0 {
            k.schedule_timer_at(me, k.next_tx_start(me, 0), 0);
        }
    }
}

/// Wall time per frame of `source` → 10G wire → sink.
fn sim_ns_per_frame(frames: u64, source: impl Fn() -> Box<dyn Component>) -> f64 {
    ns_per_iter(|| {
        let got = Rc::new(RefCell::new(0));
        let mut b = SimBuilder::new();
        let s = b.add_component("source", source(), 1);
        let d = b.add_component("sink", Box::new(Sink(Rc::clone(&got))), 1);
        b.connect(s, 0, d, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        let t = Instant::now();
        sim.run_until(SimTime::from_ns(frames * 200));
        let spent = t.elapsed();
        assert_eq!(*got.borrow(), frames, "probe sink missed frames");
        (spent, frames)
    })
}

fn gen_alone(frames: u64, batch: u64) -> f64 {
    sim_ns_per_frame(frames, || {
        let (gen, _) = GeneratorPort::new(
            Box::new(FixedTemplate::new(FixedTemplate::udp_frame(FRAME_LEN))),
            GenConfig {
                schedule: Schedule::BackToBack,
                count: Some(frames),
                batch,
                ..GenConfig::default()
            },
            Rc::new(RefCell::new(HwClock::ideal())),
        );
        Box::new(gen)
    })
}

/// Steady-state pop-earliest + push-later on a wheel holding `n`
/// entries spread over the span a busy 10G simulation keeps pending.
fn wheel(n: u64) -> f64 {
    const SPAN_PS: u64 = 100_000_000;
    let mut w = TimerWheel::new();
    let step = SPAN_PS / n;
    for i in 0..n {
        w.push(SimTime::from_ps(1 + i * step), i, i);
    }
    let mut seq = n;
    ns_per_call(4096, |_| {
        let (t, _, item) = w.pop().expect("wheel never drains");
        seq += 1;
        w.push(SimTime::from_ps(t.as_ps() + SPAN_PS), seq, item);
    })
}

fn table(n: u64) -> FlowTable {
    let mut t = FlowTable::new(n as usize + 16);
    for i in 0..n {
        t.add(rule(i)).expect("prefill fits the capacity");
    }
    t
}

fn flowtable_lookup(n: u64) -> f64 {
    let mut t = table(n);
    // 512 keys striding across the table; every one hits.
    let keys: Vec<FlowKey> = (0..512u64)
        .map(|k| {
            let i = k.wrapping_mul(2_654_435_761) % n;
            FlowKey::extract(&udp_frame(rule_ip(i)).parse())
        })
        .collect();
    ns_per_call(4096, |i| {
        t.lookup_key_idx(1, &keys[(i % 512) as usize])
            .expect("every probe key has its rule")
    })
}

/// One strict delete of the oldest rule + one add of a fresh one, with
/// `n` rules live; reported per flow_mod.
fn flowtable_flowmod(n: u64) -> f64 {
    let mut t = table(n);
    let mut oldest = 0u64;
    ns_per_call(2048, |_| {
        let gone = t.delete(&OfMatch::ipv4_dst(rule_ip(oldest)), 100, true);
        assert_eq!(gone.len(), 1, "strict delete removes exactly its rule");
        t.add(rule(oldest + n)).expect("one rule was just freed");
        oldest += 1;
    }) / 2.0
}

fn journal(dir: &Path, out: &mut Vec<Metric>) {
    let path = dir.join(format!("e0-journal-{}", std::process::id()));
    let len = || std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    // The supervisor's own batching: fsync every 32 sample appends.
    let mut w = JournalWriter::create(&path, 32).expect("journal in the build directory");
    let header = len();
    let samples: Vec<u64> = (0..64).collect();
    let ns = ns_per_call(256, |_| w.samples(0, &samples).expect("journal append"));
    w.commit().expect("journal commit");
    let per_append = (len() - header) as f64 / w.appends() as f64;
    drop(w);
    let _ = std::fs::remove_file(&path);
    out.push(Metric::new("supervisor.journal.ns_per_append", ns, "ns"));
    out.push(Metric::exact(
        "supervisor.journal.bytes_per_append",
        per_append,
        "B",
    ));
}

/// Eight one-phase sessions through a one-worker service: admission,
/// queueing, dispatch, journal and report, per session.
fn service(dir: &Path, seed: u64) -> f64 {
    const SESSIONS: u64 = 8;
    let spool = dir.join(format!("e0-spool-{}", std::process::id()));
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let before = reference::burst();
            let svc = RunService::start(ServiceConfig {
                workers: 1,
                spool: spool.clone(),
                ..ServiceConfig::default()
            })
            .expect("service starts");
            let t = Instant::now();
            for i in 0..SESSIONS {
                let spec = SessionSpec {
                    sweep: SweepConfig {
                        frame_len: 256,
                        probe_load: 0.05,
                        loads: vec![0.4],
                        duration: SimDuration::from_ms(1),
                        warmup: SimDuration::from_us(200),
                        seed: seed + i,
                    },
                    ..SessionSpec::new("e0")
                };
                match svc.submit(spec).expect("valid spec") {
                    Admission::Admitted { .. } => {}
                    Admission::Rejected { .. } => panic!("an idle service must admit 8 sessions"),
                }
            }
            svc.drain();
            let spent = t.elapsed();
            assert_eq!(
                svc.counts().completed,
                SESSIONS,
                "a session did not complete"
            );
            svc.shutdown();
            let _ = std::fs::remove_dir_all(&spool);
            let slowdown = reference::slowdown(&[before, reference::burst()]);
            spent.as_secs_f64() * 1e3 / SESSIONS as f64 / slowdown
        })
        .collect();
    median(&samples)
}

/// The sharded executive's deterministic counters, from one 20 ms demo
/// Part I run on two shards whose report must equal the one-shard one.
/// Counters only: on a 2-vCPU host identical two-shard runs took 2.3 to
/// 13.6 s of wall, so no sharded wall-clock number can repeat.
fn shard_counters(seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let one_shard = LatencyExperiment {
        frame_len: 64,
        background_load: 0.9,
        seed,
        shards: Some(1),
        ..LatencyExperiment::default()
    };
    let sink = Arc::new(Mutex::new(Vec::new()));
    let two_shards = LatencyExperiment {
        shards: Some(2),
        shard_stats_sink: Some(Arc::clone(&sink)),
        ..one_shard.clone()
    };
    let a = one_shard.run_legacy(LegacyConfig::default());
    let b = two_shards.run_legacy(LegacyConfig::default());
    match (a, b) {
        (Ok(a), Ok(b)) if a == b => {}
        (a, b) => {
            return Err(format!(
                "2-shard report differs from 1-shard: {a:?} vs {b:?}"
            ))
        }
    }
    let stats = sink.lock().expect("no shard worker panicked holding it");
    let sum = |f: fn(&osnt_netsim::ShardStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    out.push(Metric::exact(
        "netsim.shard.windows_executed",
        sum(|s| s.windows_executed),
        "count",
    ));
    out.push(Metric::exact(
        "netsim.shard.barrier_waits",
        sum(|s| s.barrier_waits),
        "count",
    ));
    out.push(Metric::exact(
        "netsim.shard.ring_pushes",
        sum(|s| s.ring_pushes),
        "count",
    ));
    Ok(())
}

/// Run every probe. `scratch` is a directory the journal and service
/// probes may write in; `Err` carries a failed probe-side check.
pub fn run(seed: u64, scratch: &Path) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut ns = |name, value| out.push(Metric::new(name, value, "ns"));

    let mut clock = HwClock::new(DriftModel::commodity_xo(), seed);
    ns(
        "time.clock.ns_per_stamp",
        ns_per_call(4096, |i| clock.read(SimTime::from_ns(i * 100))),
    );

    ns(
        "packet.build.ns_per_frame",
        ns_per_call(1024, |i| udp_frame(rule_ip(i & 0xffff))),
    );
    let frame = udp_frame(rule_ip(7));
    ns(
        "packet.parse.ns_per_frame",
        ns_per_call(4096, |_| black_box(&frame).parse().dst_ip()),
    );
    let parsed = frame.parse();
    ns(
        "packet.flowkey.ns_per_extract",
        ns_per_call(4096, |_| FlowKey::extract(black_box(&parsed))),
    );
    let key = FlowKey::extract(&parsed);
    let pool = PacketPool::new();
    ns(
        "packet.pool.ns_per_alloc_free",
        ns_per_call(4096, |_| drop(black_box(pool.zeroed(FRAME_LEN)))),
    );
    let bytes = vec![0xa5u8; 1500];
    ns(
        "packet.crc32.ns_per_byte",
        ns_per_call(64, |_| crc32(black_box(&bytes))) / bytes.len() as f64,
    );

    ns("netsim.wheel.ns_per_push_pop_1e3", wheel(1_000));
    ns("netsim.wheel.ns_per_push_pop_1e5", wheel(100_000));
    const SIM_FRAMES: u64 = 50_000;
    ns(
        "netsim.loopback.ns_per_frame",
        sim_ns_per_frame(SIM_FRAMES, || {
            Box::new(Blaster {
                frame: udp_frame(rule_ip(7)),
                left: SIM_FRAMES,
            })
        }),
    );
    ns("gen.alone.ns_per_frame_b1", gen_alone(SIM_FRAMES, 1));
    ns("gen.alone.ns_per_frame_b32", gen_alone(SIM_FRAMES, 32));

    ns(
        "switch.flowtable.ns_per_lookup_1e3",
        flowtable_lookup(1_000),
    );
    ns(
        "switch.flowtable.ns_per_lookup_1e5",
        flowtable_lookup(100_000),
    );
    ns(
        "switch.flowtable.ns_per_flowmod_1e3",
        flowtable_flowmod(1_000),
    );
    ns(
        "switch.flowtable.ns_per_flowmod_1e5",
        flowtable_flowmod(100_000),
    );

    // The demo Part I capture filter: drop by default, capture the probe.
    let mut filter = FilterTable::drop_by_default();
    filter.push(
        WildcardRule::any().with_dst_port(9001),
        FilterAction::Capture,
    );
    let program = filter.compile();
    ns(
        "mon.filter.ns_per_eval",
        ns_per_call(4096, |_| {
            filter.classify_compiled(&program, black_box(&key))
        }),
    );

    let flow_mod = Message::FlowMod(FlowMod::add(
        OfMatch::ipv4_dst(rule_ip(7)),
        100,
        vec![Action::Output {
            port: 2,
            max_len: 0,
        }],
    ));
    ns(
        "openflow.codec.ns_per_encode",
        ns_per_call(1024, |i| black_box(&flow_mod).encode(i as u32)),
    );
    let wire = flow_mod.encode(1);
    ns(
        "openflow.codec.ns_per_decode",
        ns_per_call(1024, |_| {
            Message::decode(black_box(&wire)).expect("own encoding")
        }),
    );

    let mut summary = StreamingSummary::new();
    ns(
        "core.streaming.ns_per_record",
        ns_per_call(4096, |i| summary.record_ps(1_000_000 + (i % 4096) * 977)),
    );

    journal(scratch, &mut out);
    out.push(Metric::new(
        "service.dispatch.ms_per_session",
        service(scratch, seed),
        "ms",
    ));
    shard_counters(seed, &mut out)?;
    Ok(out)
}
