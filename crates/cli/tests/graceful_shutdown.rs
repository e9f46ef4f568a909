//! Durability through the real binary: a `multi --wal` run that ends
//! early — normally after a shorter `--count`, or killed by an injected
//! `wal-crash` fault (exit 42) — must `--resume` to stdout
//! byte-identical with an uninterrupted run; a `wal-*` fault schedule
//! without `--wal` is a startup error; and a `serve` process asked to
//! shut down over the wire must exit 0 with its WAL in a reopenable
//! state.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use swsample_core::fault::{FaultSchedule, FaultSite};

const BIN: &str = env!("CARGO_BIN_EXE_swsample");

/// The schedule the CI crash-recovery smoke sets in `SWSAMPLE_FAULTS`.
const CI_CRASH_FAULTS: &str = "seed=12,wal-crash=1/40";

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "swsample-cli-shutdown-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `multi` with `flags` on the spec below, logging to `wal`, with
/// `SWSAMPLE_FAULTS` set to `faults` (unset when `None`).
fn multi(flags: &str, wal: &std::path::Path, faults: Option<&str>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args("multi --keys 40 --window seq --n 16 --k 3 --seed 9".split_whitespace())
        .args(flags.split_whitespace())
        .arg("--wal")
        .arg(wal);
    match faults {
        Some(faults) => cmd.env("SWSAMPLE_FAULTS", faults),
        None => cmd.env_remove("SWSAMPLE_FAULTS"),
    };
    cmd.output().expect("multi run")
}

fn assert_resume_matches(resumed: &Output, reference: &Output) {
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "resumed stdout diverged from the uninterrupted run"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("# resume:"),
        "resume must report recovered batches, stderr: {stderr}"
    );
}

/// A run that ends normally after three default-size (512-event)
/// batches closes with a final snapshot; resuming with the full count
/// reproduces the uninterrupted run.
#[test]
fn shorter_run_resumes_byte_identical() {
    let ref_dir = temp_dir("reference");
    let reference = multi("--count 3000", &ref_dir, None);
    assert!(reference.status.success(), "reference run failed");

    let dir = temp_dir("interrupted");
    let first = multi("--count 1536", &dir, None);
    assert!(first.status.success(), "first run failed");
    let snaps = std::fs::read_dir(&dir)
        .expect("wal dir")
        .filter(|e| {
            e.as_ref()
                .expect("dir entry")
                .path()
                .extension()
                .is_some_and(|x| x == "snap")
        })
        .count();
    assert!(snaps > 0, "the run must end with a snapshot");

    assert_resume_matches(&multi("--count 3000 --resume", &dir, None), &reference);
    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(dir);
}

/// An injected `wal-crash` kills the run with exit code 42, losing part
/// of the unflushed log; `--resume` still reproduces the uninterrupted
/// run byte for byte.
#[test]
fn wal_crash_exits_42_and_resumes_byte_identical() {
    // 30 batches of 100 events, a snapshot every 8: the pinned crash
    // lands after the first snapshot and before the last batch.
    let flags = "--count 3000 --batch-size 100 --snapshot-every 8";
    let faults = "seed=7,wal-crash=1/12";
    let schedule: FaultSchedule = faults.parse().expect("schedule");
    assert_eq!(schedule.first_hit(FaultSite::WalCrash, 30), Some(14));

    let ref_dir = temp_dir("crash-reference");
    let reference = multi(flags, &ref_dir, None);
    assert!(reference.status.success(), "reference run failed");

    let dir = temp_dir("crashed");
    let crashed = multi(flags, &dir, Some(faults));
    assert_eq!(
        crashed.status.code(),
        Some(42),
        "an injected crash must exit 42, stderr: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(crashed.stdout.is_empty(), "a crashed run prints no samples");

    assert_resume_matches(&multi(&format!("{flags} --resume"), &dir, None), &reference);
    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(dir);
}

/// The CI crash-recovery smoke (`--count 120000 --batch-size 1024
/// --snapshot-every 16`: 118 appends) must crash mid-run: after the
/// second auto-snapshot (append 32) and before the last append.
#[test]
fn ci_crash_schedule_fires_mid_run() {
    let schedule: FaultSchedule = CI_CRASH_FAULTS.parse().expect("schedule");
    let op = schedule
        .first_hit(FaultSite::WalCrash, 118)
        .expect("the CI schedule must crash");
    // `op` is 0-based: the crash follows append `op + 1`.
    assert!((32..100).contains(&op), "first crash on append {}", op + 1);
}

/// A `wal-*` rule without `--wal` could never fire, so `multi` refuses
/// to start rather than pass vacuously.
#[test]
fn wal_fault_without_wal_is_a_startup_error() {
    for faults in ["seed=1,wal-crash=1/3", "wal-append=1/5", "wal-fsync=1/5"] {
        let out = Command::new(BIN)
            .args("multi --keys 4 --count 10 --window seq --n 4 --k 1".split_whitespace())
            .env("SWSAMPLE_FAULTS", faults)
            .output()
            .expect("multi run");
        assert_eq!(out.status.code(), Some(1), "{faults}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--wal"), "{faults}: {stderr}");
    }
}

/// The CI smoke, in-repo: `serve` on an ephemeral port, `loadgen`
/// verifying across the wire and rendering `multi`'s stdout, the
/// server exiting 0 on the wire-level SHUTDOWN.
#[test]
fn serve_loadgen_round_trip_matches_multi() {
    let workload = "--keys 50 --count 5000";
    let spec = "--window seq --n 20 --k 2 --seed 3";

    let multi = Command::new(BIN)
        .args(
            format!("multi {workload} {spec}")
                .split_whitespace()
                .collect::<Vec<_>>(),
        )
        .output()
        .expect("multi run");
    assert!(multi.status.success(), "multi failed");

    let wal = temp_dir("serve");
    let mut serve = Command::new(BIN)
        .args(
            format!("serve --addr 127.0.0.1:0 {spec} --wal {}", wal.display())
                .split_whitespace()
                .collect::<Vec<_>>(),
        )
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawn");
    let mut serve_err = BufReader::new(serve.stderr.take().expect("serve stderr"));
    let mut line = String::new();
    serve_err.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("# listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {line:?}"))
        .to_string();

    let loadgen = Command::new(BIN)
        .args(
            format!("loadgen --addr {addr} {workload} --verify --render-multi --shutdown-server")
                .split_whitespace()
                .collect::<Vec<_>>(),
        )
        .output()
        .expect("loadgen run");
    assert!(
        loadgen.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&loadgen.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&loadgen.stdout),
        String::from_utf8_lossy(&multi.stdout),
        "server answers diverged from the offline `multi` run"
    );

    let status = serve.wait().expect("serve exit");
    assert!(status.success(), "serve must exit 0 after SHUTDOWN");
    assert!(
        std::fs::read_dir(&wal).expect("wal dir").any(|e| e
            .expect("entry")
            .path()
            .extension()
            .is_some_and(|x| x == "snap")),
        "serve shutdown must leave a snapshot"
    );
    let _ = std::fs::remove_dir_all(wal);
}
