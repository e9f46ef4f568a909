//! Metric names, units, summary statistics and the result line.
//!
//! The two tables below are the benchmark's metric contract; they must
//! list the same names and units as `BENCHMARK.json` (the self-test
//! checks both directions).

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, printed by untraced runs of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("max_events_per_s", "events/s"),
    ("ingest_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("acked_op_share", "share"),
    ("fleet_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs of every workload. A layer
/// the workload does not run through reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_event", "B"),
    ("client.send_us_p50", "us"),
    ("client.send_us_p99", "us"),
    ("client.schedule_lag_p99_ms", "ms"),
    ("client.failed_op_share", "share"),
    ("client.ingest_p90_ms", "ms"),
    ("client.ingest_p99_ms", "ms"),
    ("client.query_p90_ms", "ms"),
    ("client.query_p99_ms", "ms"),
    ("server.residency_us_p50", "us"),
    ("server.residency_us_p99", "us"),
    ("server.query_residency_us_p50", "us"),
    ("server.query_residency_us_p99", "us"),
    ("server.busy_rejections", "count"),
    ("server.queue_hwm_events", "count"),
    ("server.events_applied", "count"),
    ("server.dup_batches", "count"),
    ("stream.apply_us_p50", "us"),
    ("stream.apply_us_p99", "us"),
    ("stream.units_per_epoch", "count"),
    ("stream.steals", "count"),
    ("stream.imbalance", "ratio"),
    ("stream.sample_k_us", "us"),
    ("stream.save_states_ms", "ms"),
    ("stream.keys", "count"),
    ("stream.memory_words", "words"),
    ("stream.max_key_words", "words"),
    ("core.ns_per_event", "ns"),
    ("core.rng_draws_per_event", "words"),
    ("durable.batch.encode_us", "us"),
    ("durable.wal.append_us", "us"),
    ("durable.wal.bytes_per_event", "B"),
    ("durable.wal.sync_ms", "ms"),
    ("durable.wal.sync_count", "count"),
    ("durable.snapshot.write_ms", "ms"),
    ("durable.snapshot.bytes", "B"),
    ("durable.recovery.load_ms", "ms"),
    ("durable.recovery.replay_ms", "ms"),
    ("durable.recovery_s", "s"),
    ("durable.disk_bytes_per_event", "B"),
    ("durable.acked_lost_events", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "share"),
];

/// The unit a metric name is declared with, in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// Named metric values of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Keep only the metrics of `table`, failing if one is missing.
    pub fn select(&self, table: &[(&'static str, &str)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for (name, _) in table {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite ({v})"));
            }
            out.0.insert(name, v);
        }
        Ok(out)
    }
}

/// The run's verdict and counts, printed as the last stdout line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

pub fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// Shortest round-trip form, always with a decimal point or exponent.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank percentile of `xs` (sorted in place), `q` in `[0, 1]`.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN durations"));
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Latency samples per window of [`windowed`].
pub const LATENCY_WINDOW: usize = 1000;
/// Completions per window of [`windowed_rate`].
pub const RATE_WINDOW: usize = 2048;

/// The `q`-percentile of each window of [`LATENCY_WINDOW`] consecutive
/// samples (in issue order; a short tail joins the last window), and
/// the median of those. One stall moves one window, not the figure.
pub fn windowed(xs: &[f64], q: f64) -> f64 {
    let windows = (xs.len() / LATENCY_WINDOW).max(1);
    let mut per: Vec<f64> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                xs.len()
            } else {
                (i + 1) * LATENCY_WINDOW
            };
            percentile(&mut xs[i * LATENCY_WINDOW..end].to_vec(), q)
        })
        .collect();
    median(&mut per)
}

/// Items per second over each window of [`RATE_WINDOW`] consecutive
/// completions (`done_s`: completion times in seconds from the phase
/// start, ascending), and the median of those rates.
pub fn windowed_rate(done_s: &[f64], items_each: f64) -> f64 {
    let windows = (done_s.len() / RATE_WINDOW).max(1);
    let mut rates: Vec<f64> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                done_s.len()
            } else {
                (i + 1) * RATE_WINDOW
            };
            let from = if i == 0 {
                0.0
            } else {
                done_s[i * RATE_WINDOW - 1]
            };
            (end - i * RATE_WINDOW) as f64 * items_each / (done_s[end - 1] - from).max(1e-9)
        })
        .collect();
    median(&mut rates)
}

/// The latency metrics of a run, from ingest and query latencies in
/// issue order. The tails are per-layer figures: on a 2-vCPU host they
/// are set by millisecond scheduling stalls whose rate varies from run
/// to run by more than any end-to-end bound allows.
pub fn set_latencies(m: &mut Metrics, ingest_ms: &[f64], query_ms: &[f64]) {
    m.set("ingest_p50_ms", windowed(ingest_ms, 0.50));
    m.set("client.ingest_p90_ms", windowed(ingest_ms, 0.90));
    m.set("client.ingest_p99_ms", windowed(ingest_ms, 0.99));
    m.set("query_p50_ms", windowed(query_ms, 0.50));
    m.set("client.query_p90_ms", windowed(query_ms, 0.90));
    m.set("client.query_p99_ms", windowed(query_ms, 0.99));
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set (`VmHWM`) of a process, in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in procfs status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparseable VmHWM line")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Reset this process's `VmHWM` to its current RSS, so a later
/// [`peak_rss_mb`] reads the peak of the phase that follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
