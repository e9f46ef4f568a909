//! The traced run's per-layer numbers. Server internals come from the
//! STATS counters and the client's own send/receive timestamps; the
//! codec, engine, WAL and sampler costs come from in-process calls to
//! their public functions on the run's acked batches, in apply order,
//! each wrapped in a span. `DurableEngine::ingest` is taken apart into
//! the public calls it makes: `encode_batch`, `SegmentLog::append` and
//! `sync`, `try_ingest_parallel` (+ `flush`), `save_states` and
//! `write_snapshot`.

use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use swsample_core::rng::CountingRng;
use swsample_core::seq::SeqSamplerWr;
use swsample_core::spec::WindowKind;
use swsample_core::ts::TsSamplerWr;
use swsample_core::{FleetBackend, MemoryWords, WindowSampler};
use swsample_durable::batch::encode_batch;
use swsample_durable::snapshot::{write_snapshot, SnapshotMeta};
use swsample_durable::wal::{SegmentLog, DEFAULT_SEGMENT_BYTES};
use swsample_server::{ClientMsg, StatsSnapshot};
use swsample_stream::MultiStreamEngine;

use crate::gen::{Event, Inputs, Workload, BATCH, SHARDS, THREADS};
use crate::report::{median, percentile, Metrics, PER_LAYER};
use crate::trace::Tracer;
use crate::verify::{self, Query};

/// Frames sampled for the codec timings.
const CODEC_FRAMES: usize = 2048;
/// Batches per pass of the tracing-overhead comparison.
const OVERHEAD_BATCHES: usize = 1024;
/// Cap on the hottest key's events run through the core sampler.
const CORE_EVENTS: usize = 1 << 20;

/// What a serving run observed from the client side.
pub struct ClientSide<'a> {
    pub stats: &'a StatsSnapshot,
    pub send_us: &'a [f64],
    pub lag_ms: &'a [f64],
    pub residency_us: &'a [f64],
    pub query_residency_us: &'a [f64],
}

pub struct LayerRun<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    pub applied: &'a [u64],
    pub queries: &'a [Query],
    pub positions: &'a [usize],
    /// `Some` for serving workloads.
    pub client: Option<ClientSide<'a>>,
    /// Whether the workload writes a WAL.
    pub wal: bool,
}

pub fn measure(
    run: &LayerRun,
    scratch: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    for (name, _) in PER_LAYER {
        if m.get(name).is_none() {
            m.set(name, 0.0);
        }
    }
    if let Some(client) = &run.client {
        protocol(run, tracer, m);
        client_and_server(client, m);
    }
    stream_and_durable(run, scratch, tracer, m)?;
    overhead(run, m)?;
    core(run, m);
    Ok(())
}

fn batches_sampled(applied: &[u64], n: usize) -> impl Iterator<Item = u64> + '_ {
    let step = applied.len().div_ceil(n).max(1);
    applied.iter().step_by(step).copied()
}

fn protocol(run: &LayerRun, tracer: &mut Tracer, m: &mut Metrics) {
    let (mut bytes, mut events) = (0usize, 0usize);
    for b in batches_sampled(run.applied, CODEC_FRAMES) {
        let msg = ClientMsg::Ingest {
            seq: b,
            batch: run.inputs.batch(b),
        };
        let payload = tracer.time("protocol.encode", "ingest", b, || msg.encode());
        let decoded = tracer.time("protocol.decode", "ingest", b, || {
            ClientMsg::decode(&payload)
        });
        debug_assert_eq!(decoded.as_ref(), Ok(&msg));
        // Frame header: length and crc32.
        bytes += payload.len() + 8;
        events += BATCH;
    }
    m.set(
        "protocol.encode_us",
        median(&mut tracer.durations_us("protocol.encode")),
    );
    m.set(
        "protocol.decode_us",
        median(&mut tracer.durations_us("protocol.decode")),
    );
    m.set(
        "protocol.bytes_per_event",
        bytes as f64 / events.max(1) as f64,
    );
}

fn client_and_server(c: &ClientSide, m: &mut Metrics) {
    let p = |xs: &[f64], q: f64| percentile(&mut xs.to_vec(), q);
    m.set("client.send_us_p50", p(c.send_us, 0.5));
    m.set("client.send_us_p99", p(c.send_us, 0.99));
    m.set("client.schedule_lag_p99_ms", p(c.lag_ms, 0.99));
    m.set("server.residency_us_p50", p(c.residency_us, 0.5));
    m.set("server.residency_us_p99", p(c.residency_us, 0.99));
    m.set(
        "server.query_residency_us_p50",
        p(c.query_residency_us, 0.5),
    );
    m.set(
        "server.query_residency_us_p99",
        p(c.query_residency_us, 0.99),
    );
    let g = &c.stats.global;
    m.set("server.busy_rejections", g.busy_rejections as f64);
    m.set("server.queue_hwm_events", g.queue_hwm_events as f64);
    m.set("server.events_applied", g.events_applied as f64);
    m.set("server.dup_batches", g.dup_batches as f64);
}

fn program_engine(w: &Workload) -> MultiStreamEngine<u64, u64> {
    MultiStreamEngine::with_backend(
        w.spec(),
        SHARDS,
        swsample_baselines::spec::build::<u64>,
        THREADS,
        FleetBackend::Auto,
    )
    .expect("workload template builds")
}

fn apply(engine: &MultiStreamEngine<u64, u64>, batch: &[Event]) -> Result<(), String> {
    engine
        .try_ingest_parallel(batch)
        .and_then(|()| engine.flush())
        .map_err(|e| format!("ingest: {e}"))
}

/// One pass over the acked batches through the program's own fleet
/// shape, with the durable stages of a WAL-backed workload in the order
/// `DurableEngine::ingest` runs them, and the run's queries at the
/// positions the correctness check placed them.
fn stream_and_durable(
    run: &LayerRun,
    scratch: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let w = run.w;
    let engine = program_engine(w);
    let wal_dir = scratch.join("layers-wal");
    let mut wal = if run.wal {
        Some(SegmentLog::create(&wal_dir, DEFAULT_SEGMENT_BYTES).map_err(|e| format!("WAL: {e}"))?)
    } else {
        None
    };
    let (mut wal_bytes, mut last_snapshot) = (0u64, None);
    let mut next_query = 0;
    for (p, &b) in run.applied.iter().enumerate() {
        while run.positions.get(next_query) == Some(&p) {
            let key = run.queries[next_query].key;
            tracer.time("stream.sample_k", "query", next_query as u64, || {
                engine.sample_k(&key)
            });
            next_query += 1;
        }
        let batch = run.inputs.batch(b);
        if let Some(wal) = wal.as_mut() {
            let payload = tracer.time("durable.batch.encode", "ingest", b, || encode_batch(&batch));
            tracer
                .time("durable.wal.append", "ingest", b, || wal.append(&payload))
                .map_err(|e| format!("WAL append: {e}"))?;
            // Frame header, then the record's seq.
            wal_bytes += (8 + 8 + payload.len()) as u64;
        }
        tracer.time("stream.apply", "ingest", b, || apply(&engine, &batch))?;
        if w.snapshot_every > 0 && (p as u64 + 1).is_multiple_of(w.snapshot_every) {
            if let Some(wal) = wal.as_mut() {
                tracer
                    .time("durable.wal.sync", "snapshot", b, || wal.sync())
                    .map_err(|e| format!("WAL sync: {e}"))?;
            }
            let states = tracer
                .time("stream.save_states", "snapshot", b, || engine.save_states())
                .map_err(|e| format!("save_states: {e}"))?;
            if let Some(wal) = wal.as_ref() {
                let meta = SnapshotMeta {
                    template: engine.template().to_string(),
                    backend: engine.backend().token().to_string(),
                    shards: engine.num_shards() as u64,
                    threads: engine.num_threads() as u64,
                    wal_seq: wal.next_seq(),
                    keys: states.len() as u64,
                };
                let path = tracer
                    .time("durable.snapshot.write", "snapshot", b, || {
                        write_snapshot(&wal_dir, &meta, &states)
                    })
                    .map_err(|e| format!("write_snapshot: {e}"))?;
                let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                m.set("durable.snapshot.bytes", len as f64);
                // Keep one snapshot on disk; the old one's write is timed.
                if let Some(old) = last_snapshot.replace(path) {
                    let _ = std::fs::remove_file(old);
                }
            }
        }
    }
    if let Some(wal) = wal.as_mut() {
        tracer
            .time("durable.wal.sync", "end", 0, || wal.sync())
            .map_err(|e| format!("WAL sync: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let pct = |name: &str, q: f64| percentile(&mut tracer.durations_us(name), q);
    m.set("stream.apply_us_p50", pct("stream.apply", 0.5));
    m.set("stream.apply_us_p99", pct("stream.apply", 0.99));
    m.set("stream.sample_k_us", pct("stream.sample_k", 0.5));
    m.set(
        "stream.save_states_ms",
        pct("stream.save_states", 0.5) / 1e3,
    );
    let par = engine.parallel_stats();
    m.set(
        "stream.units_per_epoch",
        par.units as f64 / par.epochs.max(1) as f64,
    );
    m.set("stream.steals", par.steals as f64);
    m.set("stream.imbalance", par.imbalance());
    m.set("stream.keys", engine.num_keys() as f64);
    m.set("stream.memory_words", engine.memory_words() as f64);
    let max_key = engine.max_key_memory_words();
    verify::within_cap(w, max_key)?;
    m.set("stream.max_key_words", max_key as f64);
    if run.wal {
        let events = (run.applied.len() * BATCH).max(1) as f64;
        m.set("durable.batch.encode_us", pct("durable.batch.encode", 0.5));
        m.set("durable.wal.append_us", pct("durable.wal.append", 0.5));
        m.set("durable.wal.bytes_per_event", wal_bytes as f64 / events);
        let mut syncs = tracer.durations_us("durable.wal.sync");
        m.set("durable.wal.sync_count", syncs.len() as f64);
        m.set("durable.wal.sync_ms", median(&mut syncs) / 1e3);
        m.set(
            "durable.snapshot.write_ms",
            pct("durable.snapshot.write", 0.5) / 1e3,
        );
    }
    Ok(())
}

/// Tracing's own cost: the same apply pass over a prefix of the acked
/// batches with spans off and on, alternating, on fresh fleets.
fn overhead(run: &LayerRun, m: &mut Metrics) -> Result<(), String> {
    let prefix = &run.applied[..run.applied.len().min(OVERHEAD_BATCHES)];
    let batches: Vec<Vec<Event>> = prefix.iter().map(|&b| run.inputs.batch(b)).collect();
    let mut walls = [0.0f64; 2];
    for round in 0..4 {
        let on = round % 2 == 1;
        let mut tracer = Tracer::new(on);
        let engine = program_engine(run.w);
        let t = Instant::now();
        for (i, batch) in batches.iter().enumerate() {
            tracer.time("stream.apply", "ingest", i as u64, || apply(&engine, batch))?;
        }
        walls[on as usize] += t.elapsed().as_secs_f64();
    }
    m.set("trace.untraced_wall_s", walls[0]);
    m.set("trace.wall_s", walls[1]);
    m.set("trace.overhead_share", walls[1] / walls[0] - 1.0);
    Ok(())
}

/// The hottest key's event subsequence, batch by batch, through the
/// template's public sampler constructor with a counting RNG.
fn core(run: &LayerRun, m: &mut Metrics) {
    let w = run.w;
    let mut counts = vec![0u64; w.keys as usize];
    for &b in run.applied {
        for (key, _, _) in run.inputs.batch(b) {
            counts[key as usize] += 1;
        }
    }
    let hot = (0..counts.len()).max_by_key(|&k| counts[k]).unwrap_or(0) as u64;
    // Per batch, runs of equal timestamps: (now, values).
    let mut runs: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut total = 0;
    'batches: for &b in run.applied {
        for (key, now, value) in run.inputs.batch(b) {
            if key != hot {
                continue;
            }
            match runs.last_mut() {
                Some((t, vals)) if *t == now => vals.push(value),
                _ => runs.push((now, vec![value])),
            }
            total += 1;
            if total >= CORE_EVENTS {
                break 'batches;
            }
        }
    }
    let spec = w.spec();
    let rng = CountingRng::new(SmallRng::seed_from_u64(spec.seed));
    let draws = rng.counter();
    let t = Instant::now();
    match spec.window {
        WindowKind::Sequence(n) => {
            let mut s = SeqSamplerWr::new(n, spec.k, rng);
            for (_, vals) in &runs {
                s.insert_batch(vals);
            }
            std::hint::black_box(s.memory_words());
        }
        WindowKind::Timestamp(win) => {
            let mut s = TsSamplerWr::new(win, spec.k, rng);
            for (now, vals) in &runs {
                s.advance_and_insert(*now, vals);
            }
            std::hint::black_box(s.memory_words());
        }
        WindowKind::WholeStream => unreachable!("workloads use windowed templates"),
    }
    let ns = t.elapsed().as_nanos() as f64;
    let events = total.max(1) as f64;
    m.set("core.ns_per_event", ns / events);
    m.set("core.rng_draws_per_event", draws.words() as f64 / events);
}
