//! E1 — "full line-rate traffic generation regardless of packet size
//! across the four card ports" (paper §1).
//!
//! For every conventional frame size, one and four generator ports run
//! back to back for a fixed window; achieved packet and bit rates are
//! compared with the theoretical wire maxima. Reproduction holds when
//! the achieved rate equals theory at every size (deficit ≈ 0).
//!
//! Two modes:
//!
//! * default — the fixed 5 ms window sweep (the paper's table);
//! * `--frames N` — bounded-frame smoke: each port sends exactly `N`
//!   frames on the batched fast path and the run panics if any size
//!   misses line rate. The wall-clock column is a reading, compared
//!   with nothing. With `--json PATH` the results are written as JSON.

use osnt_bench::{Args, Artifact, Table, UsageError};
use osnt_gen::workload::FixedTemplate;
use osnt_gen::{GenConfig, GenStats, GeneratorPort, Schedule};
use osnt_netsim::{Component, ComponentId, Kernel, LinkSpec, SimBuilder};
use osnt_packet::{line_rate_pps, Packet};
use osnt_time::{HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Swallows traffic.
struct Sink;
impl Component for Sink {
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
}

fn run(frame_len: usize, n_ports: usize, window: SimDuration) -> Vec<Rc<RefCell<GenStats>>> {
    let mut b = SimBuilder::new();
    let clock = Rc::new(RefCell::new(HwClock::ideal()));
    let mut stats = Vec::new();
    for i in 0..n_ports {
        let cfg = GenConfig {
            schedule: Schedule::BackToBack,
            stop_at: Some(SimTime::ZERO + window),
            ..GenConfig::default()
        };
        let (port, s) = GeneratorPort::new(
            Box::new(FixedTemplate::new(FixedTemplate::udp_frame(frame_len))),
            cfg,
            clock.clone(),
        );
        let gen = b.add_component(&format!("gen{i}"), Box::new(port), 1);
        let sink = b.add_component(&format!("sink{i}"), Box::new(Sink), 1);
        b.connect(gen, 0, sink, 0, LinkSpec::ten_gig());
        stats.push(s);
    }
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + window + SimDuration::from_ms(1));
    stats
}

/// Bounded-frame variant: every port sends exactly `frames_per_port`
/// frames (no stop window) on the batched fast path; returns the stats
/// plus the wall-clock seconds the simulation took.
fn run_counted(
    frame_len: usize,
    n_ports: usize,
    frames_per_port: u64,
) -> (Vec<Rc<RefCell<GenStats>>>, f64) {
    let mut b = SimBuilder::new();
    let clock = Rc::new(RefCell::new(HwClock::ideal()));
    let mut stats = Vec::new();
    for i in 0..n_ports {
        let cfg = GenConfig {
            schedule: Schedule::BackToBack,
            count: Some(frames_per_port),
            batch: 32,
            ..GenConfig::default()
        };
        let (port, s) = GeneratorPort::new(
            Box::new(FixedTemplate::new(FixedTemplate::udp_frame(frame_len))),
            cfg,
            clock.clone(),
        );
        let gen = b.add_component(&format!("gen{i}"), Box::new(port), 1);
        let sink = b.add_component(&format!("sink{i}"), Box::new(Sink), 1);
        b.connect(gen, 0, sink, 0, LinkSpec::ten_gig());
        stats.push(s);
    }
    let mut sim = b.build();
    let t0 = std::time::Instant::now();
    sim.run_to_quiescence(frames_per_port * (n_ports as u64) * 4 + 1000);
    (stats, t0.elapsed().as_secs_f64())
}

/// The sweep behind `--frames N`: panics when any size misses line
/// rate, optionally dumps machine-readable results.
fn bounded_mode(frames_per_port: u64, artifact: &Artifact) {
    println!("E1 (bounded): {frames_per_port} frames/port, batched back-to-back\n");
    let mut table = Table::new([
        "frame(B)",
        "ports",
        "theory(pps)",
        "achieved(pps)",
        "deficit(%)",
        "wall(ms)",
        "sim-frames/wall-s",
    ]);
    let mut json_rows = Vec::new();
    for &size in &[64usize, 512, 1518] {
        for &ports in &[1usize, 4] {
            let (stats, wall_s) = run_counted(size, ports, frames_per_port);
            let theory = line_rate_pps(10_000_000_000, size);
            let mut total_pps = 0.0;
            let mut total_frames = 0u64;
            for s in &stats {
                let s = s.borrow();
                assert_eq!(
                    s.sent_frames, frames_per_port,
                    "{size}B x{ports}: port sent {} of {frames_per_port} frames",
                    s.sent_frames
                );
                total_frames += s.sent_frames;
                total_pps += s.achieved_pps().unwrap_or(0.0);
            }
            let per_port = total_pps / ports as f64;
            let deficit = (theory - per_port) / theory * 100.0;
            assert!(
                deficit.abs() < 0.01,
                "{size}B x{ports}: achieved {per_port:.0} pps vs theory {theory:.0} (deficit {deficit:.4}%)"
            );
            let frames_per_wall = total_frames as f64 / wall_s;
            table.row([
                size.to_string(),
                ports.to_string(),
                format!("{theory:.0}"),
                format!("{per_port:.0}"),
                format!("{deficit:.4}"),
                format!("{:.2}", wall_s * 1e3),
                format!("{frames_per_wall:.0}"),
            ]);
            json_rows.push(format!(
                "{{\"frame_len\":{size},\"ports\":{ports},\"theory_pps\":{theory:.1},\
                 \"achieved_pps\":{per_port:.1},\"deficit_pct\":{deficit:.6},\
                 \"wall_s\":{wall_s:.6},\"sim_frames_per_wall_s\":{frames_per_wall:.0}}}"
            ));
        }
    }
    table.print();
    println!("\nAll sizes at exact line rate; panic above would have failed the run.");
    artifact.write(
        "e1_linerate_bounded",
        1,
        &format!(
            "\"frames_per_port\":{frames_per_port},\"results\":[{}]",
            json_rows.join(",")
        ),
    );
}

fn flags(args: &Args) -> Result<Option<u64>, UsageError> {
    args.get_opt("frames")
}

fn main() {
    let (frames, artifact) =
        osnt_bench::flags_or_exit("e1_linerate [--frames N] [--json PATH]", flags);
    if let Some(n) = frames {
        bounded_mode(n, &artifact);
        return;
    }
    let window = SimDuration::from_ms(5);
    println!("E1: line-rate generation vs frame size (10 GbE, {window} window)\n");
    let mut table = Table::new([
        "frame(B)",
        "ports",
        "theory(pps)",
        "achieved(pps)",
        "deficit(%)",
        "throughput(Gb/s)",
    ]);
    for &size in &[64usize, 128, 256, 512, 1024, 1280, 1518] {
        for &ports in &[1usize, 4] {
            let stats = run(size, ports, window);
            let theory = line_rate_pps(10_000_000_000, size);
            let mut total_pps = 0.0;
            for s in &stats {
                total_pps += s.borrow().achieved_pps().unwrap_or(0.0);
            }
            let per_port = total_pps / ports as f64;
            let deficit = (theory - per_port) / theory * 100.0;
            let gbps = total_pps * (size as f64) * 8.0 / 1e9;
            table.row([
                size.to_string(),
                ports.to_string(),
                format!("{theory:.0}"),
                format!("{per_port:.0}"),
                format!("{deficit:.4}"),
                format!("{gbps:.3}"),
            ]);
        }
    }
    table.print();
    println!(
        "\nShape check: per-port achieved == theory at every size (the\n\
         paper's headline property); 4 ports scale linearly to 4x."
    );
}

#[cfg(test)]
mod tests {
    use super::flags;
    use osnt_bench::parse_flags;

    fn parse(argv: &[&str]) -> Result<Option<u64>, String> {
        parse_flags(argv.iter().map(|s| s.to_string()), flags)
            .map(|(frames, _)| frames)
            .map_err(|e| e.to_string())
    }

    /// What `main` exits 2 on: the error `flags_or_exit` would print.
    #[test]
    fn a_bad_command_line_is_a_usage_error() {
        assert_eq!(parse(&["--frames", "7", "--json=x"]), Ok(Some(7)));
        assert_eq!(parse(&[]), Ok(None));
        for (argv, message) in [
            (&["--bogus", "1"][..], "unknown option --bogus"),
            (&["--frames", "many"], "invalid value for --frames: many"),
            (&["--frames"], "--frames needs a value"),
            (&["--frames", "--json", "x"], "unexpected argument x"),
        ] {
            assert_eq!(parse(argv), Err(message.to_string()), "{argv:?}");
        }
    }
}
