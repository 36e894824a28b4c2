//! The host stamp every result carries, and what `/proc` says about
//! this process and machine. Timings from a shared 2-vCPU VM mean
//! nothing without it.

use std::fmt::Write;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The 1-minute load average, when `/proc` has one.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and how this result was produced, as a JSON object. `rustc`
/// and the commit come from the environment `run.sh` sets up
/// (`E0_RUSTC`, `E0_COMMIT`): the program itself cannot know them.
pub fn stamp_json(
    seed: u64,
    reps: usize,
    load_start: Option<f64>,
    load_end: Option<f64>,
) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let load = |l: Option<f64>| l.map_or("null".into(), |v| format!("{v}"));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{cpus},\"cpu\":{},\"rustc\":{},\"commit\":{},\"profile\":\"{profile}\",\
         \"seed\":{seed},\"reps\":{reps},\"load_start\":{},\"load_end\":{}}}",
        json_string(&cpu),
        json_string(&env("E0_RUSTC")),
        json_string(&env("E0_COMMIT")),
        load(load_start),
        load(load_end),
    )
}
