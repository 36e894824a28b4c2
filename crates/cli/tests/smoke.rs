//! Smoke tests: drive the installed `osnt` binary end to end.

use std::process::Command;

fn osnt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_osnt"))
}

#[test]
fn help_prints_usage() {
    let out = osnt().arg("help").output().expect("run osnt");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("oflops-add"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = osnt().arg("frobnicate").output().expect("run osnt");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn linerate_reports_exact_rate() {
    let out = osnt()
        .args(["linerate", "--frame", "64", "--duration-ms", "2"])
        .output()
        .expect("run osnt");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("deficit +0.0000%"), "output: {text}");
}

#[test]
fn latency_reports_summary() {
    let out = osnt()
        .args(["latency", "--load", "0.3", "--duration-ms", "8"])
        .output()
        .expect("run osnt");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("loss 0.000%"), "output: {text}");
    assert!(text.contains("latency: n="), "output: {text}");
}

#[test]
fn capture_writes_pcap_and_replay_reads_it_back() {
    let dir = std::env::temp_dir().join(format!("osnt-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pcap = dir.join("cap.pcap");

    let out = osnt()
        .args([
            "capture",
            "--frame",
            "256",
            "--load",
            "0.05",
            "--duration-ms",
            "2",
            "--snap",
            "64",
            "--out",
            pcap.to_str().unwrap(),
        ])
        .output()
        .expect("run osnt capture");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(pcap.exists());

    let out = osnt()
        .args(["replay", pcap.to_str().unwrap(), "--mode", "fixed-us:10"])
        .output()
        .expect("run osnt replay");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replayed"), "output: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oflops_add_reports_both_planes() {
    let out = osnt()
        .args(["oflops-add", "--rules", "5"])
        .output()
        .expect("run osnt oflops-add");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("barrier (control plane)"), "output: {text}");
    assert!(
        text.contains("rules active only after barrier: 5/5"),
        "output: {text}"
    );
}

#[test]
fn bad_flag_value_is_rejected() {
    let out = osnt()
        .args(["latency", "--load", "not-a-number"])
        .output()
        .expect("run osnt");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
}

/// Values a flag parses but a run cannot honour are usage errors (exit 2,
/// with the reason), never a panic inside the run nor a silent clamp.
#[test]
fn out_of_range_values_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("osnt-cli-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pcap = dir.join("two.pcap");
    let mut img = osnt_packet::pcap::to_bytes(&[], osnt_packet::pcap::TsResolution::Micro);
    for micros in [0u32, 10] {
        for word in [0, micros, 60, 60] {
            img.extend_from_slice(&word.to_le_bytes());
        }
        img.extend_from_slice(&[0u8; 60]);
    }
    std::fs::write(&pcap, img).unwrap();
    let pcap = pcap.to_str().unwrap();

    let cases: [(&[&str], &str); 6] = [
        (&["replay", pcap, "--mode", "scale:-1"], "bad scale value"),
        (&["replay", pcap, "--mode", "scale:nan"], "bad scale value"),
        (&["capture", "--load", "nan"], "--load NaN outside (0, 1]"),
        (&["capture", "--load", "2"], "--load 2 outside (0, 1]"),
        (&["oflops-add", "--rules", "0"], "--rules must be"),
        (&["oflops-mod", "--rules", "0"], "--rules must be"),
    ];
    for (args, reason) in cases {
        let out = osnt().args(args).output().expect("run osnt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(reason), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A capture stamped with a real-world epoch (as tcpdump writes them)
/// replays on its recorded schedule: the gap is the file's, not what
/// is left of it after `secs × 10¹²` wraps a `u64`.
#[test]
fn replay_of_an_epoch_stamped_capture_reports_the_recorded_gap() {
    let dir = std::env::temp_dir().join(format!("osnt-cli-epoch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pcap = dir.join("epoch.pcap");

    let mut img = osnt_packet::pcap::to_bytes(&[], osnt_packet::pcap::TsResolution::Micro);
    // 2023-11-14T22:13:20.999500 and 1 ms later, across the second.
    for (secs, micros) in [(1_700_000_000u32, 999_500u32), (1_700_000_001, 500)] {
        for word in [secs, micros, 60, 60] {
            img.extend_from_slice(&word.to_le_bytes());
        }
        img.extend_from_slice(&[0u8; 60]);
    }
    std::fs::write(&pcap, img).unwrap();

    let out = osnt()
        .args(["replay", pcap.to_str().unwrap()])
        .output()
        .expect("run osnt replay");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replayed 2 frames"), "output: {text}");
    assert!(text.contains("over 1ms\n"), "output: {text}");

    std::fs::remove_dir_all(&dir).ok();
}
