//! The `durable-100k` workload: an in-process `DurableEngine` driven by
//! a closed-loop library caller that times each `ingest` (and, every
//! few batches, a `sample_k` read), then `sync`, an unclean drop (no
//! final snapshot), and a timed `DurableEngine::open` — plus the
//! recovery check shared with the WAL-backed serving workload.

use std::path::{Path, PathBuf};
use std::time::Instant;

use swsample_core::{FleetBackend, MemoryWords};
use swsample_durable::{DurableEngine, DurableOptions};

use crate::gen::{Inputs, Workload, BATCH, SETUPS, SHARDS, THREADS};
use crate::report::{dir_bytes, median, ms, peak_rss_mb, reset_peak_rss, windowed_rate, Metrics};
use crate::verify::{self, Query, Recovered};

pub struct DurableRun {
    pub applied: Vec<u64>,
    pub queries: Vec<Query>,
    pub positions: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub dir: PathBuf,
}

fn options(w: &Workload) -> DurableOptions {
    DurableOptions {
        snapshot_every: Some(w.snapshot_every),
        ..DurableOptions::default()
    }
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    run_dir: &Path,
) -> Result<DurableRun, String> {
    let mut metrics = Metrics::default();
    let mut setups = Vec::new();
    let mut engine = None;
    let mut dir = PathBuf::new();
    for i in 0..SETUPS {
        dir = run_dir.join(format!("durable-{i}"));
        let t = Instant::now();
        let e = DurableEngine::<u64, u64>::create(
            &dir,
            w.spec(),
            SHARDS,
            THREADS,
            FleetBackend::Auto,
            options(w),
        )
        .map_err(|e| format!("DurableEngine::create: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = engine.replace(e) {
            let old_dir = old.dir().to_path_buf();
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    metrics.set("setup_s", median(&mut setups));
    let mut engine = engine.expect("at least one set-up");

    reset_peak_rss()?;
    let query_every = (1.0 / w.queries_per_batch).round() as u64;
    let (mut lat_ms, mut qlat_ms, mut done_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut applied = Vec::new();
    let mut queries = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut b = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let batch = inputs.batch(b);
        let t = Instant::now();
        let res = engine.ingest(&batch);
        lat_ms.push(ms(t.elapsed()));
        match res {
            Ok(_) => {
                applied.push(b);
                done_s.push(start.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("perfbench: ingest of batch {b} failed: {e}");
                failed += 1;
                break;
            }
        }
        b += 1;
        if b.is_multiple_of(query_every) {
            let key = inputs.query_key(b / query_every);
            let t = Instant::now();
            let answer = engine.engine().sample_k(&key);
            qlat_ms.push(ms(t.elapsed()));
            queries.push(Query {
                key,
                lo: applied.len(),
                hi: applied.len(),
                answer: verify::wire(answer),
            });
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let attempted = b + queries.len() as u64;
    metrics.set("max_events_per_s", windowed_rate(&done_s, BATCH as f64));
    crate::report::set_latencies(&mut metrics, &lat_ms, &qlat_ms);
    metrics.set("acked_op_share", 1.0 - failed as f64 / attempted as f64);
    metrics.set("client.failed_op_share", failed as f64 / attempted as f64);
    metrics.set(
        "fleet_mb",
        engine.engine().memory_words() as f64 * 8.0 / 1e6,
    );
    metrics.set("peak_rss_mb", peak_rss_mb("self")?);
    eprintln!(
        "perfbench: {}: {b} ingest calls, {} queries, {failed} failed in {wall:.3}s",
        w.name,
        queries.len()
    );
    engine.sync().map_err(|e| format!("sync: {e}"))?;
    metrics.set(
        "durable.disk_bytes_per_event",
        dir_bytes(&dir)? as f64 / (applied.len() * BATCH) as f64,
    );
    // Unclean: no close, so no final snapshot; recovery replays the log.
    drop(engine);
    Ok(DurableRun {
        applied,
        queries,
        positions: Vec::new(),
        attempted,
        failed,
        metrics,
        dir,
    })
}

pub fn verify(
    w: &Workload,
    inputs: &Inputs,
    run: &mut DurableRun,
    trace: bool,
) -> Result<(), String> {
    let dir = run.dir.clone();
    run.positions = check_recovery(
        w,
        inputs,
        &run.applied,
        &run.queries,
        &dir,
        trace,
        &mut run.metrics,
    )?;
    Ok(())
}

/// Time recovery of `dir`, report what was acked but not recovered, and
/// run the correctness check with the recovered fleet. Returns where
/// each query was placed.
pub fn check_recovery(
    w: &Workload,
    inputs: &Inputs,
    applied: &[u64],
    queries: &[Query],
    dir: &Path,
    trace: bool,
    metrics: &mut Metrics,
) -> Result<Vec<usize>, String> {
    if metrics.get("durable.disk_bytes_per_event").is_none() {
        metrics.set(
            "durable.disk_bytes_per_event",
            dir_bytes(dir)? as f64 / (applied.len() * BATCH) as f64,
        );
    }
    // Traced: `latest_valid` alone (load) first; replay is the rest of
    // the open.
    if trace {
        let t = Instant::now();
        swsample_durable::snapshot::latest_valid::<u64, u64>(dir)
            .map_err(|e| format!("loading snapshot: {e}"))?;
        metrics.set("durable.recovery.load_ms", ms(t.elapsed()));
    }
    let snapshot_seq = swsample_durable::snapshot::list_snapshots(dir)
        .map_err(|e| format!("listing snapshots: {e}"))?
        .last()
        .map(|(seq, _)| *seq as usize)
        .ok_or("no snapshot in the WAL directory")?;
    let t = Instant::now();
    let recovered = DurableEngine::<u64, u64>::open(dir, DurableOptions::default())
        .map_err(|e| format!("recovery: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    metrics.set("durable.recovery_s", open_s);
    if let Some(load_ms) = metrics.get("durable.recovery.load_ms") {
        metrics.set("durable.recovery.replay_ms", open_s * 1e3 - load_ms);
    }
    let prefix = recovered.next_seq() as usize;
    if prefix > applied.len() || snapshot_seq > prefix {
        return Err(format!(
            "recovered {prefix} WAL records from snapshot {snapshot_seq}, but {} batches were acked",
            applied.len()
        ));
    }
    metrics.set(
        "durable.acked_lost_events",
        ((applied.len() - prefix) * BATCH) as f64,
    );
    verify::check(
        w,
        inputs,
        applied,
        queries,
        Some(Recovered {
            fleet: recovered.engine(),
            prefix,
            snapshot_seq,
        }),
    )
}
