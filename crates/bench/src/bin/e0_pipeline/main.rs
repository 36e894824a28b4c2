//! E0 — the repository's benchmark: the paper's own pipelines end to
//! end, one throughput headline per workload and a per-layer waterfall
//! that sums to it. `scripts/e0/README.md` defines every workload and
//! metric and says how they interact; `scripts/e0/run.sh` builds and
//! runs this program.
//!
//! One invocation measures one workload:
//!
//! ```text
//! e0_pipeline --workload W --seed S --seconds T --trace 0|1
//!             [--expected FILE [--bless]] [--out FILE]
//! ```
//!
//! * `--trace 0` — two discarded warm-up reps, then timed reps through
//!   the product's public API until `T` seconds are spent; prints the
//!   end-to-end metrics. Nothing is wrapped or counted in these reps.
//! * `--trace 1` — timed and traced reps in alternation for `T/2`
//!   seconds, then the isolated probes; prints the per-layer metrics.
//!
//! The product is never edited or instrumented: every number is taken
//! from outside, by timing calls into the crates' public functions.
//! Every time is divided by the slowdown a reference kernel measured
//! around it ([`reference`]): the host's speed wanders by half, the
//! ratio does not. The last line of standard output is the result as
//! one JSON object; the exit code is non-zero when any check failed.

mod alloc_count;
mod digest;
mod expected;
mod host;
mod probes;
mod reference;
mod spanned;
mod stats;
mod workloads;

use expected::Pinned;
use spanned::{Layer, Spans};
use stats::{median, quartiles};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{AnalyzeLayer, Pace, Rep, Scale, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// Discarded reps before the timed ones: the first touches fresh heap
/// pages, the second runs on the allocator state every later rep sees.
const WARMUP_REPS: usize = 2;
/// Fewest timed reps (or timed/traced pairs) whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// `trace.overhead_share` outside this range fails the run: above it
/// the traced rebuild costs more than spans explain and has drifted
/// from the product path; below it the two kinds of rep did not run the
/// same work (spans and allocation counts never make a rep faster).
const OVERHEAD_RANGE: (f64, f64) = (0.0, 0.5);

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Quartiles and sample count, for metrics that are a median.
    pub spread: Option<(f64, f64, usize)>,
    /// Must repeat exactly between runs of one commit (a count, not a
    /// time): compared for equality by `aa_check.py`.
    pub exact: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            spread: None,
            exact: false,
        }
    }

    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            exact: true,
            ..Metric::new(name, value, unit)
        }
    }

    /// The median of `samples`, with its quartiles.
    fn of_samples(name: &'static str, samples: &[f64], unit: &'static str) -> Self {
        let q = quartiles(samples);
        Metric {
            spread: Some((q.q1, q.q3, samples.len())),
            ..Metric::new(name, q.median, unit)
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    expected: Option<PathBuf>,
    bless: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e0_pipeline --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
         [--expected <file> [--bless]] [--out <file>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut expected, mut bless, mut out) = (None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workloads::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--expected" => expected = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if bless && (expected.is_none() || trace != Some(true) || seed != Some(1)) {
        return Err("--bless needs --expected, --trace 1 and --seed 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        expected,
        bless,
        out,
    })
}

/// What a run found, on its way to the two output formats.
#[derive(Default)]
struct Findings {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    problems: Vec<String>,
    reps: usize,
    /// What the host did, before normalization: printed and recorded
    /// with the end-to-end run, never compared.
    host: Vec<Metric>,
}

impl Findings {
    /// Fold one rep in and hold it to the first rep's results.
    fn admit(&mut self, kind: &str, rep: &Rep, first: &Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        if rep.failed > 0 {
            self.problems.push(format!(
                "{kind} rep: {} of {} ops failed",
                rep.failed, rep.ops
            ));
        }
        if (rep.digest, rep.ops) != (first.digest, first.ops) {
            self.problems.push(format!(
                "{kind} rep: digest {:016x} / {} ops, first rep had {:016x} / {}",
                rep.digest, rep.ops, first.digest, first.ops
            ));
        }
        if let (Some(a), Some(b)) = (rep.events, first.events) {
            if a != b {
                self.problems
                    .push(format!("{kind} rep: {a} events, first rep had {b}"));
            }
        }
    }
}

/// One rep with the reference kernel run before it, after it and
/// between its slices; returns the rep and the machine's slowdown over
/// it (see [`reference`]). Every time a rep reports is divided by that
/// slowdown before it becomes a sample.
fn paced(run: impl FnOnce(Pace<'_>) -> Rep) -> (Rep, f64) {
    let mut bursts = vec![reference::burst()];
    let rep = run(&mut || bursts.push(reference::burst()));
    bursts.push(reference::burst());
    (rep, reference::slowdown(&bursts))
}

/// `--trace 0`: the end-to-end metrics.
fn run_timed(args: &Args, f: &mut Findings) -> Rep {
    let w = args.workload;
    let timed = || paced(|pace| (w.timed)(args.seed, Scale::FULL, pace));
    let (first, _) = timed();
    f.admit("warm-up", &first, &first);
    // Read here, the high-water mark is what a process that runs the
    // workload once holds, on a heap that has only grown. Later reps
    // run on whatever the allocator kept of the earlier ones, and the
    // mark then wanders with the seed and the rep count (53–71 MiB over
    // forty runs of `p2_churn`, 46.4–46.9 MiB read here).
    let peak_rss_mb = host::peak_rss_mb();
    for _ in 1..WARMUP_REPS {
        f.admit("warm-up", &timed().0, &first);
    }
    // Warm-up ops are checked but not counted as measured work.
    (f.attempted, f.failed) = (0, 0);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut rates, mut setups, mut raw_rates, mut slowdowns) = (vec![], vec![], vec![], vec![]);
    while rates.len() < MIN_REPS || started.elapsed() < budget {
        let (rep, slowdown) = timed();
        f.admit("timed", &rep, &first);
        let raw = rep.ops as f64 / rep.wall().as_secs_f64();
        rates.push(raw * slowdown);
        setups.push(rep.setup.as_secs_f64() / slowdown);
        raw_rates.push(raw);
        slowdowns.push(slowdown);
    }
    f.reps = rates.len();

    f.metrics
        .push(Metric::of_samples("ops_per_norm_s", &rates, "1/s"));
    f.metrics.push(Metric::of_samples("setup_s", &setups, "s"));
    match peak_rss_mb {
        Some(mb) => f.metrics.push(Metric::new("peak_rss_mb", mb, "MiB")),
        None => f.problems.push("no VmHWM in /proc/self/status".into()),
    }
    let ok = 1.0 - f.failed as f64 / f.attempted.max(1) as f64;
    f.metrics.push(Metric::new("ops_ok_share", ok, "share"));
    // What this host did before normalization: shown, not compared.
    f.host
        .push(Metric::of_samples("host.ops_per_wall_s", &raw_rates, "1/s"));
    f.host
        .push(Metric::of_samples("host.slowdown", &slowdowns, "ratio"));
    first
}

/// The per-op numbers of one traced rep, normalized nanoseconds.
struct Waterfall {
    kernel_self: f64,
    spans: [f64; spanned::LAYERS.len()],
    analyze: f64,
    wall: f64,
}

/// `--trace 1`: the per-layer metrics — waterfall, exact counts,
/// tracing overhead, isolated probes.
fn run_traced(args: &Args, f: &mut Findings) -> Rep {
    let w = args.workload;
    let timed = || paced(|pace| (w.timed)(args.seed, Scale::FULL, pace));
    let traced = |spans: &Rc<Spans>| paced(|pace| (w.traced)(args.seed, Scale::FULL, spans, pace));
    let (first, _) = timed();
    f.admit("warm-up", &first, &first);
    f.admit("warm-up traced", &traced(&Spans::new()).0, &first);
    (f.attempted, f.failed) = (0, 0);

    // Alternate the two kinds of rep so that drift of the machine hits
    // both sides of `trace.overhead_share` alike.
    let budget = Duration::from_secs(args.seconds) / 2;
    let started = Instant::now();
    let (mut timed_walls, mut raw_rates, mut slowdowns) = (vec![], vec![], vec![]);
    let mut falls = Vec::new();
    let mut last: Option<(Rep, Rc<Spans>)> = None;
    while falls.len() < MIN_REPS || started.elapsed() < budget {
        let (rep, slowdown) = timed();
        f.admit("timed", &rep, &first);
        timed_walls.push(rep.wall().as_secs_f64() / slowdown);
        raw_rates.push(rep.ops as f64 / rep.wall().as_secs_f64());
        slowdowns.push(slowdown);

        let spans = Spans::new();
        let (rep, slowdown) = traced(&spans);
        f.admit("traced", &rep, &first);
        let per_op = |ns: f64| ns / slowdown / rep.ops as f64;
        let run_ns = rep.run.as_nanos() as f64;
        falls.push(Waterfall {
            kernel_self: per_op(run_ns - spans.total_ns()),
            spans: spanned::LAYERS.map(|l| per_op(spans.get(l).ns())),
            analyze: per_op(rep.analyze.as_nanos() as f64),
            wall: per_op(rep.wall().as_nanos() as f64),
        });
        slowdowns.push(slowdown);
        last = Some((rep, spans));
    }
    f.reps = falls.len();
    let (rep, spans) = last.expect("at least MIN_REPS pairs ran");

    let col = |get: &dyn Fn(&Waterfall) -> f64| falls.iter().map(get).collect::<Vec<f64>>();
    let mut bar = |name, get: &dyn Fn(&Waterfall) -> f64| {
        let m = Metric::of_samples(name, &col(get), "ns/op");
        let v = m.value;
        f.metrics.push(m);
        v
    };
    let layer = |l: Layer| move |x: &Waterfall| x.spans[l as usize];
    let kernel_self = bar("netsim.kernel.self_ns_per_op", &|x| x.kernel_self);
    bar("gen.span_ns_per_op", &layer(Layer::Gen));
    bar("netsim.link.span_ns_per_op", &layer(Layer::Link));
    bar("switch.span_ns_per_op", &layer(Layer::Switch));
    bar("mon.span_ns_per_op", &layer(Layer::Mon));
    bar(
        "oflops.controller.span_ns_per_op",
        &layer(Layer::Controller),
    );
    let analyze = |of: AnalyzeLayer| {
        move |x: &Waterfall| match w.analyze_layer == of {
            true => x.analyze,
            false => 0.0,
        }
    };
    bar("core.analyze.ns_per_op", &analyze(AnalyzeLayer::Core));
    bar("oflops.analyze.ns_per_op", &analyze(AnalyzeLayer::Oflops));
    if kernel_self < 0.0 {
        f.problems.push(format!(
            "handler spans exceed the run: kernel self {kernel_self} ns/op"
        ));
    }
    // Each rep's bars sum to its wall by construction (medians of bars
    // need not, to within a percent or so): hold the accounting to that.
    let wall_per_op = median(&col(&|x| x.wall));
    let bars_per_op = median(&col(&|x| {
        x.kernel_self + x.spans.iter().sum::<f64>() + x.analyze
    }));
    if (bars_per_op - wall_per_op).abs() > 0.01 * wall_per_op {
        f.problems.push(format!(
            "the bars of a traced rep sum to {bars_per_op:.1} ns/op, its wall is \
             {wall_per_op:.1} ns/op: a span is missing from the waterfall"
        ));
    }

    // Exact counts, from the last traced rep (every rep has the same).
    let mut exact = |name, value, unit| f.metrics.push(Metric::exact(name, value, unit));
    let ops = rep.ops as f64;
    let calls = |l: Layer| spans.get(l).calls as f64 / ops;
    let frames_per_call = |l: Layer| {
        let s = spans.get(l);
        s.frames as f64 / s.rx_calls.max(1) as f64
    };
    let events = rep.events.expect("traced reps count events") as f64;
    exact("netsim.events_per_op", events / ops, "1/op");
    exact("gen.calls_per_op", calls(Layer::Gen), "1/op");
    exact("switch.calls_per_op", calls(Layer::Switch), "1/op");
    exact(
        "switch.frames_per_call",
        frames_per_call(Layer::Switch),
        "1/call",
    );
    exact("mon.calls_per_op", calls(Layer::Mon), "1/op");
    exact("mon.frames_per_call", frames_per_call(Layer::Mon), "1/call");
    exact(
        "oflops.controller.calls_per_op",
        calls(Layer::Controller),
        "1/op",
    );
    let allocs = rep.allocs.expect("traced reps count allocations");
    exact("alloc.count_per_op", allocs.count as f64 / ops, "1/op");
    exact("alloc.bytes_per_op", allocs.bytes as f64 / ops, "B/op");

    let overhead = wall_per_op * ops / 1e9 / median(&timed_walls) - 1.0;
    f.metrics
        .push(Metric::new("trace.overhead_share", overhead, "share"));
    if !(OVERHEAD_RANGE.0..=OVERHEAD_RANGE.1).contains(&overhead) {
        f.problems.push(format!(
            "trace.overhead_share {overhead:.3} outside {OVERHEAD_RANGE:?}: the traced rebuild \
             has drifted from the product path"
        ));
    }
    f.metrics
        .push(Metric::of_samples("host.ops_per_wall_s", &raw_rates, "1/s"));
    f.metrics
        .push(Metric::of_samples("host.slowdown", &slowdowns, "ratio"));

    // Scratch files go next to the executable: inside the build
    // directory, so inside the checkout and already ignored.
    let scratch = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    match probes::run(args.seed, &scratch) {
        Ok(probed) => f.metrics.extend(probed),
        Err(e) => f.problems.push(format!("probe: {e}")),
    }

    // A traced rep knows all three pinned values, the events included.
    Rep {
        events: rep.events,
        ..first
    }
}

/// Hold a seed-1 run to `expected.json`, or re-pin it under `--bless`.
fn check_pinned(args: &Args, first: &Rep, f: &mut Findings) -> Result<(), String> {
    let Some(path) = args.expected.as_deref().filter(|_| args.seed == 1) else {
        return Ok(());
    };
    let name = args.workload.name;
    // Only `--bless` may start the file.
    let old = match args.bless && !path.exists() {
        true => None,
        false => expected::read(path, name)?,
    };
    if args.bless {
        let new = Pinned {
            digest: first.digest,
            ops: first.ops,
            events: first.events.expect("--bless runs traced"),
        };
        match old {
            Some(old) => println!("e0: bless {name}: old {old}"),
            None => println!("e0: bless {name}: old (none)"),
        }
        println!("e0: bless {name}: new {new}");
        return expected::write(path, name, new);
    }
    let Some(old) = old else {
        f.problems
            .push(format!("{name} has no entry in {}", path.display()));
        return Ok(());
    };
    let got = Pinned {
        digest: first.digest,
        ops: first.ops,
        // `run_legacy` does not say how many events it dispatched; the
        // traced run checks that count.
        events: first.events.unwrap_or(old.events),
    };
    if got != old {
        f.problems.push(format!(
            "seed-1 results moved: pinned {old}, got {got} (a model change needs its own \
             benchmark issue to re-pin)"
        ));
    }
    Ok(())
}

impl Metric {
    /// `"name":{"value":…,"unit":…}`, with quartiles when asked for.
    fn json(&self, with_spread: bool) -> String {
        let mut out = format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
            self.name, self.value, self.unit
        );
        if let (true, Some((q1, q3, n))) = (with_spread, self.spread) {
            write!(out, ",\"q1\":{q1},\"q3\":{q3},\"n\":{n}").expect("string write");
        }
        out.push('}');
        out
    }

    fn line(&self) -> String {
        let mut out = format!("  {:<40} {:>16.6} {}", self.name, self.value, self.unit);
        if let Some((q1, q3, n)) = self.spread {
            write!(out, "   (q1 {q1:.6}, q3 {q3:.6}, n {n})").expect("string write");
        }
        out
    }
}

/// The two outputs of a run: the text for standard output, whose last
/// line is the result object the benchmark contract asks for, and the
/// fuller record `--out` appends.
fn render(args: &Args, f: &Findings, first: &Rep, stamp: &str) -> (String, String) {
    let name = args.workload.name;
    let json = |ms: &[Metric], with_spread| {
        let parts: Vec<String> = ms.iter().map(|m| m.json(with_spread)).collect();
        parts.join(",")
    };
    let head = format!(
        "\"correct\":{},\"attempted\":{},\"failed\":{}",
        f.problems.is_empty(),
        f.attempted,
        f.failed
    );

    let mut text = format!(
        "e0 {name} seed={} trace={} reps={} digest={:016x} ops={} events={}\n",
        args.seed,
        u8::from(args.trace),
        f.reps,
        first.digest,
        first.ops,
        first.events.map_or("-".into(), |e| e.to_string()),
    );
    for m in f.metrics.iter().chain(&f.host) {
        writeln!(text, "{}", m.line()).expect("string write");
    }
    writeln!(
        text,
        "  {:<40} {:>16} of {} attempted",
        "ops_failed", f.failed, f.attempted
    )
    .expect("string write");
    for p in &f.problems {
        writeln!(text, "  FAILED: {p}").expect("string write");
    }
    write!(
        text,
        "{{{head},\"metrics\":{{{}}}}}",
        json(&f.metrics, false)
    )
    .expect("string write");

    let exact: Vec<String> = [
        ("digest", format!("{:016x}", first.digest)),
        ("ops", first.ops.to_string()),
    ]
    .into_iter()
    .chain(first.events.map(|e| ("events", e.to_string())))
    .chain(
        f.metrics
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name, m.value.to_string())),
    )
    .map(|(k, v)| format!("\"{k}\":\"{v}\""))
    .collect();
    let problems: Vec<String> = f.problems.iter().map(|p| host::json_string(p)).collect();
    let record = format!(
        "{{\"workload\":\"{name}\",\"trace\":{},\"host\":{stamp},{head},\"metrics\":{{{}}},\
         \"host_metrics\":{{{}}},\"exact\":{{{}}},\"problems\":[{}]}}",
        u8::from(args.trace),
        json(&f.metrics, true),
        json(&f.host, true),
        exact.join(","),
        problems.join(",")
    );
    (text, record)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e0: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The product reads OSNT_* knobs from inside library code; a stray
    // one would silently measure another configuration.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("OSNT_"))
    {
        eprintln!(
            "e0: unset {} first: it reconfigures the product",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let load_start = host::load_average();
    if load_start.is_some_and(|l| l > 0.5) {
        eprintln!(
            "e0: warning: load average {} at start; timings will be noisy",
            load_start.unwrap_or_default()
        );
    }

    let mut f = Findings::default();
    let first = if args.trace {
        run_traced(&args, &mut f)
    } else {
        run_timed(&args, &mut f)
    };
    if let Err(e) = check_pinned(&args, &first, &mut f) {
        f.problems.push(e);
    }

    let stamp = host::stamp_json(args.seed, f.reps, load_start, host::load_average());
    let (text, record) = render(&args, &f, &first, &stamp);
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{record}"));
        if let Err(e) = appended {
            eprintln!("e0: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{text}");
    if f.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    /// The lines of `[name]` in a manifest, comments and blanks dropped.
    fn section<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
        toml.lines()
            .map(str::trim)
            .skip_while(|l| *l != name)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// `run.sh` builds the measured program through the manifest beside
    /// this file, which cannot inherit from the workspace; `cargo test`
    /// builds it as an `osnt-bench` binary. This test is what keeps the
    /// two from drifting apart: same release profile, and no dependency
    /// `osnt-bench` does not have.
    #[test]
    fn own_manifest_agrees_with_the_workspace() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        assert_eq!(
            section(own, "[profile.release]"),
            section(root, "[profile.release]")
        );
        let bench_deps = section(bench, "[dependencies]");
        for dep in section(own, "[dependencies]") {
            let name = dep.split([' ', '=']).next().expect("split yields one");
            assert!(
                bench_deps.iter().any(|d| d.split('.').next() == Some(name)),
                "osnt-bench does not depend on {name}"
            );
        }
    }
}
