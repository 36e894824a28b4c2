//! E12 — capture datapath: the monitor's compiled-filter pipeline under
//! a dense rule table, plus the streaming-statistics memory check.
//!
//! One 10G generator streams stamped UDP frames back-to-back into one
//! monitor port whose filter table carries a dense per-flow rule mix:
//! 256 near-miss decoy rules (every field matches except the
//! destination port) ahead of the one capture rule that matches
//! everything, over a drop-by-default table — a table of almost-equal
//! flow entries where no early exit helps and every frame pays the
//! whole program.
//!
//! The run must reproduce the committed artifact: at the default frame
//! count the capture digest (rx stamps, arrival instants, stored bytes,
//! original lengths, hashes) must equal [`COMMITTED_DIGEST`], else the
//! bench panics. Wall-clock throughput is printed as a reading and
//! compared with nothing.
//!
//! A second section checks the `StreamingSummary` bound: 1.5M latency
//! samples summarised in one pass must not grow the heap beyond the
//! constant histogram allocation, and must agree with the collect-all
//! `Summary` on exact fields and to <= 1/256 relative error on
//! percentiles.
//!
//! `--json PATH` writes both sections as JSON.

use osnt_bench::Table;
use osnt_core::{StreamingSummary, Summary};
use osnt_gen::workload::FixedTemplate;
use osnt_gen::{GenConfig, GeneratorPort, Schedule, StampConfig};
use osnt_mon::{
    FilterAction, FilterTable, HostPathConfig, MonConfig, MonStats, MonitorPort, ThinConfig,
};
use osnt_netsim::{LinkSpec, SimBuilder};
use osnt_packet::wildcard::IpPrefix;
use osnt_packet::{MacAddr, WildcardRule};
use osnt_time::{HwClock, SimDuration};
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

const FRAME_LEN: usize = 128;
/// Snap length keeps the embedded TX stamp (bytes 42..50) so latency
/// extraction still works on thinned captures.
const SNAP_LEN: usize = 60;
const DECOY_RULES: u32 = 256;
/// Frame count of the committed `BENCH_capture.json` and the capture
/// digest that run must reproduce.
const COMMITTED_FRAMES: u64 = 200_000;
const COMMITTED_DIGEST: u32 = 0x2e37_3c08;

/// The monitor's rule table: `DECOY_RULES` near-miss flow rules ahead
/// of the one rule that captures the traffic, over a drop-by-default
/// table. Each decoy names every field the hardware filter supports
/// and agrees with the generated traffic on all of them *except* the
/// destination port — the field [`WildcardRule::matches`] checks last
/// — so the rule interpreter must evaluate the full field chain of
/// every decoy for every frame before falling through. This is the
/// workload the compiled program exists for: a table of almost-equal
/// flow entries (think one rule per monitored flow) where the
/// interpreter's early-exit never helps, while the masked-word compare
/// stays eight fused u64 operations per rule no matter which field
/// finally differs.
fn decoy_filter() -> FilterTable {
    let src = IpPrefix::host(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
    let dst = IpPrefix::host(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)));
    let mut t = FilterTable::drop_by_default();
    for i in 0..DECOY_RULES {
        t.push(
            WildcardRule::any()
                .with_src_mac(MacAddr::local(1))
                .with_dst_mac(MacAddr::local(2))
                .with_ethertype(osnt_packet::ethernet::ethertype::IPV4)
                .with_src_ip(src)
                .with_dst_ip(dst)
                .with_ip_protocol(osnt_packet::ipv4::protocol::UDP)
                .with_src_port(5001)
                .with_dst_port(10_000 + i as u16),
            FilterAction::Drop,
        );
    }
    t.push(
        WildcardRule::any().with_dst_port(9001),
        FilterAction::Capture,
    );
    t
}

struct RunOut {
    wall_s: f64,
    stats: MonStats,
    captured: usize,
    digest: u32,
}

fn run(frames: u64) -> RunOut {
    let clock_tx = Rc::new(RefCell::new(HwClock::ideal()));
    let clock_rx = Rc::new(RefCell::new(HwClock::ideal()));
    // Batched synthesis (identical wire slots and stamps, see the gen
    // parity tests) keeps generator timers off the critical event path;
    // the monitor takes each burst member through `on_packet`.
    let gen_cfg = GenConfig {
        schedule: Schedule::BackToBack,
        count: Some(frames),
        stamp: Some(StampConfig::default_payload()),
        batch: 32,
        ..GenConfig::default()
    };
    let (gen, _gstats) = GeneratorPort::new(
        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(FRAME_LEN))),
        gen_cfg,
        clock_tx,
    );
    let mon_cfg = MonConfig {
        filter: decoy_filter(),
        thin: ThinConfig::cut_with_hash(SNAP_LEN),
        host: HostPathConfig::unlimited(),
        capture_limit: None,
    };
    let (mon, buffer, stats) = MonitorPort::new(mon_cfg, clock_rx);
    let mut b = SimBuilder::new();
    let g = b.add_component("gen", Box::new(gen), 1);
    let m = b.add_component("mon", Box::new(mon), 1);
    b.connect(g, 0, m, 0, LinkSpec::ten_gig());
    let mut sim = b.build();
    let t0 = std::time::Instant::now();
    sim.run_to_quiescence(frames * 8 + 1_000);
    let wall_s = t0.elapsed().as_secs_f64();

    let buf = buffer.borrow();
    let stats_copy = *stats.borrow();
    RunOut {
        wall_s,
        stats: stats_copy,
        captured: buf.len(),
        digest: osnt_bench::capture_digest(&buf.packets),
    }
}

/// 1.5M synthetic latency samples (xorshift spread over ~6 decades of
/// picoseconds) summarised both ways: collect-all + sort vs one
/// streaming pass. Returns (samples, streaming wall, collect wall,
/// heap bytes before/after recording).
fn streaming_section() -> (usize, f64, f64, usize, usize, StreamingSummary, Summary) {
    const N: usize = 1_500_000;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut samples = Vec::with_capacity(N);
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 1 ps .. ~1 ms, log-ish spread.
        samples.push((x % 1_000_000_000) + 1);
    }

    let mut stream = StreamingSummary::new();
    let heap_before = stream.heap_bytes();
    let t0 = std::time::Instant::now();
    for &ps in &samples {
        stream.record_ps(ps);
    }
    let stream_wall = t0.elapsed().as_secs_f64();
    let heap_after = stream.heap_bytes();

    let t0 = std::time::Instant::now();
    let durations: Vec<SimDuration> = samples.iter().map(|&ps| SimDuration::from_ps(ps)).collect();
    let exact = Summary::from_durations(&durations).expect("non-empty");
    let collect_wall = t0.elapsed().as_secs_f64();

    (
        N,
        stream_wall,
        collect_wall,
        heap_before,
        heap_after,
        stream,
        exact,
    )
}

fn main() {
    let (frames, artifact) =
        osnt_bench::flags_or_exit("e12_capture [--frames N] [--json PATH]", |args| {
            args.get("frames", COMMITTED_FRAMES)
        });
    println!(
        "E12: capture datapath, 10G back-to-back, {FRAME_LEN}B stamped frames, \
         {frames} frames, {DECOY_RULES} decoy rules + 1 capture rule\n"
    );

    let r = run(frames);
    assert_eq!(
        r.stats.rx_frames, frames,
        "monitor saw {} of {frames} frames",
        r.stats.rx_frames
    );
    if frames == COMMITTED_FRAMES {
        assert_eq!(
            r.digest, COMMITTED_DIGEST,
            "capture digest diverged from the committed BENCH_capture.json"
        );
    }
    let mut table = Table::new(["path", "wall(ms)", "frames/wall-s", "digest"]);
    table.row([
        "compiled".to_string(),
        format!("{:.2}", r.wall_s * 1e3),
        format!("{:.0}", frames as f64 / r.wall_s),
        format!("{:08x}", r.digest),
    ]);
    table.print();
    let json_row = format!(
        "{{\"path\":\"compiled\",\"wall_s\":{:.6},\"frames_per_wall_s\":{:.0},\
         \"digest\":\"{:08x}\",\"captured\":{}}}",
        r.wall_s,
        frames as f64 / r.wall_s,
        r.digest,
        r.captured
    );

    let (n, stream_wall, collect_wall, heap_before, heap_after, stream, exact) =
        streaming_section();
    assert_eq!(
        heap_before, heap_after,
        "StreamingSummary heap grew while recording {n} samples"
    );
    let s = stream.finish().expect("non-empty stream");
    assert_eq!(s.count, exact.count);
    assert_eq!(s.min_ns, exact.min_ns);
    assert_eq!(s.max_ns, exact.max_ns);
    assert!((s.mean_ns - exact.mean_ns).abs() <= 1e-9 * exact.mean_ns.abs());
    for (q, got, want) in [
        ("p50", s.p50_ns, exact.p50_ns),
        ("p90", s.p90_ns, exact.p90_ns),
        ("p99", s.p99_ns, exact.p99_ns),
    ] {
        let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
        assert!(
            rel <= 1.0 / 256.0 + 1e-12,
            "{q}: streaming {got} vs exact {want}, rel err {rel:.6}"
        );
    }
    println!(
        "\nStreaming statistics: {n} samples, heap constant at {heap_after} B \
         (histogram only), {:.2} ms streaming vs {:.2} ms collect+sort; \
         exact fields bit-equal, percentiles within 1/256.",
        stream_wall * 1e3,
        collect_wall * 1e3
    );

    artifact.write(
        "e12_capture",
        1,
        &format!(
            "\"frames\":{frames},\"frame_len\":{FRAME_LEN},\
             \"snap_len\":{SNAP_LEN},\"decoy_rules\":{DECOY_RULES},\
             \"results\":[{json_row}],\
             \"streaming\":{{\"samples\":{n},\"stream_wall_s\":{stream_wall:.6},\
             \"collect_wall_s\":{collect_wall:.6},\"heap_bytes\":{heap_after},\
             \"p50_rel_err\":{:.8},\"p90_rel_err\":{:.8},\"p99_rel_err\":{:.8}}}",
            (s.p50_ns - exact.p50_ns).abs() / exact.p50_ns,
            (s.p90_ns - exact.p90_ns).abs() / exact.p90_ns,
            (s.p99_ns - exact.p99_ns).abs() / exact.p99_ns,
        ),
    );
}
