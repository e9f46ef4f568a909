//! The serving workloads: a `swsample serve` child process loaded over
//! one pipelined connection (a sender thread on an open-loop schedule,
//! a receiver thread matching replies), then a closed-loop saturation
//! phase, then STATS, a read-back of every touched key, and either a
//! graceful shutdown or (with a WAL) `kill -9` and a timed recovery.
//!
//! Measured phases never retry: a `BUSY`, an error frame, or a missing
//! reply is a failed operation, and its batch is left out of the
//! reference.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use swsample_durable::frame::write_frame;
use swsample_server::protocol::{read_server_msg, ReadOutcome};
use swsample_server::{Client, ClientMsg, ServerMsg, StatsSnapshot, PROTOCOL_VERSION};

use crate::gen::{Inputs, Workload, BATCH, OPEN_SHARE, SATURATION_WINDOW, SETUPS, SHARDS, THREADS};
use crate::report::{median, ms, peak_rss_mb, us, windowed_rate, Metrics};
use crate::verify::{self, Answer, Query};

/// How long to wait for outstanding replies before counting them lost.
const REPLY_DEADLINE: Duration = Duration::from_secs(30);

/// A running server child; killed and reaped on drop.
struct ServerProc {
    child: std::process::Child,
    /// Kept open so the child never writes into a closed pipe.
    stderr: Option<BufReader<std::process::ChildStderr>>,
}

impl ServerProc {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn kill9(&mut self) -> Result<(), String> {
        self.child
            .kill()
            .map_err(|e| format!("kill -9 server: {e}"))?;
        self.child
            .wait()
            .map_err(|e| format!("reaping server: {e}"))?;
        Ok(())
    }

    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn send_frame(stream: &mut TcpStream, msg: &ClientMsg) -> std::io::Result<()> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg.encode())?;
    stream.write_all(&buf)
}

/// Spawn `swsample serve`, wait for its listening line, connect and
/// complete HELLO. The elapsed time is one `setup_s` sample.
fn start_server(
    w: &Workload,
    wal: Option<&Path>,
) -> Result<(ServerProc, String, TcpStream, Duration), String> {
    let start = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["serve-child", "serve", "--addr", "127.0.0.1:0"])
        .args(["--threads", &THREADS.to_string()])
        .args(["--shards", &SHARDS.to_string()])
        .args(w.template.split_whitespace());
    if let Some(dir) = wal {
        cmd.arg("--wal")
            .arg(dir)
            .args(["--snapshot-every", &w.snapshot_every.to_string()]);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().map_err(|e| format!("spawning server: {e}"))?;
    let stderr = child.stderr.take().map(BufReader::new);
    let mut proc = ServerProc { child, stderr };
    let stderr = proc.stderr.as_mut().expect("stderr is piped");
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stderr
            .read_line(&mut line)
            .map_err(|e| format!("reading server stderr: {e}"))?;
        if n == 0 {
            return Err("server exited before listening".into());
        }
        if let Some(addr) = line.trim().strip_prefix("# listening on ") {
            break addr.to_string();
        }
    };
    let mut stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    send_frame(
        &mut stream,
        &ClientMsg::Hello {
            version: PROTOCOL_VERSION,
            name: "perfbench".into(),
            session: 0,
        },
    )
    .map_err(|e| format!("HELLO: {e}"))?;
    let mut offset = 0;
    match read_server_msg(&mut &stream, &mut offset) {
        Ok(ReadOutcome::Msg(ServerMsg::HelloAck { .. })) => {}
        other => return Err(format!("expected HELLO_ACK, got {other:?}")),
    }
    Ok((proc, addr, stream, start.elapsed()))
}

#[derive(Debug)]
enum Reply {
    Ok(u64, Instant),
    Busy(u64, Instant),
    Error(Instant),
    Samples(Answer, Instant),
}

#[derive(Default)]
struct Progress {
    replies: u64,
    ok_batches: usize,
}

struct Shared {
    progress: Mutex<Progress>,
    changed: Condvar,
}

impl Shared {
    fn progress(&self) -> std::sync::MutexGuard<'_, Progress> {
        self.progress.lock().expect("receiver panicked")
    }

    /// Block until at most `limit` operations are unanswered, or the
    /// deadline passes. Returns whether the condition was met.
    fn wait_outstanding(&self, sent: u64, limit: u64, deadline: Instant) -> bool {
        let mut p = self.progress();
        while sent - p.replies > limit {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            p = self
                .changed
                .wait_timeout(p, deadline - now)
                .expect("receiver panicked")
                .0;
        }
        true
    }
}

fn receiver(stream: TcpStream, shared: Arc<Shared>) -> Vec<Reply> {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut offset = 0;
    let mut log = Vec::new();
    loop {
        let msg = match read_server_msg(&mut reader, &mut offset) {
            Ok(ReadOutcome::Msg(msg)) => msg,
            _ => return log,
        };
        let at = Instant::now();
        let (reply, ok) = match msg {
            ServerMsg::IngestOk { seq, .. } => (Reply::Ok(seq, at), true),
            ServerMsg::Busy { seq, .. } => (Reply::Busy(seq, at), false),
            ServerMsg::Samples { samples, .. } => (Reply::Samples(samples, at), false),
            ServerMsg::Error { .. } => (Reply::Error(at), false),
            // Pushes and anything unrequested: no subscriptions are made.
            _ => continue,
        };
        log.push(reply);
        let mut p = shared.progress();
        p.replies += 1;
        if ok {
            p.ok_batches += 1;
        }
        drop(p);
        shared.changed.notify_all();
    }
}

/// One ingest batch as the sender issued it.
struct SentBatch {
    seq: u64,
    due: Instant,
    sent: Instant,
    send: Duration,
    open_loop: bool,
}

/// One query as the sender issued it.
struct SentQuery {
    key: u64,
    due: Instant,
    sent: Instant,
    /// Acked batches when it was sent.
    acked_before: usize,
    /// Batches (any outcome) sent before it.
    batches_before: usize,
}

/// Everything the serving run measured, for metrics and layer replays.
pub struct ServeRun {
    pub applied: Vec<u64>,
    pub queries: Vec<Query>,
    pub positions: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub stats: StatsSnapshot,
    pub send_us: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub residency_us: Vec<f64>,
    pub query_residency_us: Vec<f64>,
    pub wal_dir: Option<PathBuf>,
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    run_dir: &Path,
) -> Result<ServeRun, String> {
    let open_rate = w.open_rate.expect("serving workload");
    let mut metrics = Metrics::default();

    // Set-up, several times; the last server carries the workload.
    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        let wal = (w.snapshot_every > 0).then(|| run_dir.join(format!("wal-{i}")));
        let (mut proc, addr, mut stream, took) = start_server(w, wal.as_deref())?;
        setups.push(took.as_secs_f64());
        if i + 1 < SETUPS {
            send_frame(&mut stream, &ClientMsg::Shutdown).map_err(|e| e.to_string())?;
            proc.wait_exit()?;
            if let Some(dir) = wal {
                let _ = std::fs::remove_dir_all(dir);
            }
        } else {
            last = Some((proc, addr, stream, wal));
        }
    }
    metrics.set("setup_s", median(&mut setups));
    let (mut proc, addr, stream, wal_dir) = last.expect("at least one set-up");

    let shared = Arc::new(Shared {
        progress: Mutex::new(Progress::default()),
        changed: Condvar::new(),
    });
    let rx_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let rx_shared = Arc::clone(&shared);
    let rx = std::thread::spawn(move || receiver(rx_stream, rx_shared));
    let mut tx = stream;

    let mut batches: Vec<SentBatch> = Vec::new();
    let mut queries: Vec<SentQuery> = Vec::new();
    let mut io_error = None;

    // Open loop: batch b due at b * BATCH / rate, queries spread evenly
    // between them; lateness is recorded, never folded into the plan.
    let open_s = seconds * OPEN_SHARE;
    let batch_gap = BATCH as f64 / open_rate;
    let query_gap = batch_gap / w.queries_per_batch;
    let n_batches = (open_s / batch_gap) as u64;
    let n_queries = (open_s / query_gap) as u64;
    let start = Instant::now() + Duration::from_millis(5);
    let (mut b, mut q) = (0u64, 0u64);
    while (b < n_batches || q < n_queries) && io_error.is_none() {
        let batch_due = b as f64 * batch_gap;
        let query_due = (q as f64 + 0.5) * query_gap;
        let is_batch = q >= n_queries || (b < n_batches && batch_due <= query_due);
        let due = start + Duration::from_secs_f64(if is_batch { batch_due } else { query_due });
        pace(due);
        if is_batch {
            let frame = ClientMsg::Ingest {
                seq: b,
                batch: inputs.batch(b),
            };
            let t = Instant::now();
            if let Err(e) = send_frame(&mut tx, &frame) {
                io_error = Some(e.to_string());
            }
            let sent = Instant::now();
            batches.push(SentBatch {
                seq: b,
                due,
                sent,
                send: sent - t,
                open_loop: true,
            });
            b += 1;
        } else {
            let key = inputs.query_key(q);
            let acked_before = shared.progress().ok_batches;
            if let Err(e) = send_frame(&mut tx, &ClientMsg::Query { key }) {
                io_error = Some(e.to_string());
            }
            queries.push(SentQuery {
                key,
                due,
                sent: Instant::now(),
                acked_before,
                batches_before: batches.len(),
            });
            q += 1;
        }
    }
    let sent_ops = (batches.len() + queries.len()) as u64;
    shared.wait_outstanding(sent_ops, 0, Instant::now() + REPLY_DEADLINE);

    // Saturation: a closed loop holding `window` batches in flight.
    let sat_s = seconds - open_s;
    let sat_start = Instant::now();
    let sat_end = sat_start + Duration::from_secs_f64(sat_s);
    let mut sent_ops = (batches.len() + queries.len()) as u64;
    while Instant::now() < sat_end && io_error.is_none() {
        if !shared.wait_outstanding(
            sent_ops,
            SATURATION_WINDOW - 1,
            Instant::now() + REPLY_DEADLINE,
        ) {
            break;
        }
        let seq = b;
        let frame = ClientMsg::Ingest {
            seq,
            batch: inputs.batch(seq),
        };
        let t = Instant::now();
        if let Err(e) = send_frame(&mut tx, &frame) {
            io_error = Some(e.to_string());
        }
        let sent = Instant::now();
        batches.push(SentBatch {
            seq,
            due: t,
            sent,
            send: sent - t,
            open_loop: false,
        });
        b += 1;
        sent_ops += 1;
    }
    shared.wait_outstanding(sent_ops, 0, Instant::now() + REPLY_DEADLINE);
    let _ = tx.shutdown(Shutdown::Both);
    let log = rx.join().map_err(|_| "receiver thread panicked")?;
    if let Some(e) = io_error {
        eprintln!("perfbench: connection failed mid-run: {e}");
    }

    // Match replies: acks and BUSYs by seq; an error frame fails the
    // oldest batch still unanswered; samples in query order.
    let mut outcome: Vec<Option<(bool, Instant)>> = vec![None; b as usize];
    let mut answers = Vec::new();
    let mut errors = Vec::new();
    for reply in log {
        match reply {
            Reply::Ok(seq, at) => set_outcome(&mut outcome, seq, (true, at)),
            Reply::Busy(seq, at) => set_outcome(&mut outcome, seq, (false, at)),
            Reply::Error(at) => errors.push(at),
            Reply::Samples(answer, at) => answers.push((answer, at)),
        }
    }
    for at in errors {
        if let Some(slot) = outcome.iter_mut().find(|o| o.is_none()) {
            *slot = Some((false, at));
        }
    }

    let mut applied = Vec::new();
    let mut ok_before = Vec::with_capacity(batches.len() + 1);
    let (mut lat_ms, mut residency_us, mut lag_ms, mut send_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sat_done_s = Vec::new();
    for sb in &batches {
        ok_before.push(applied.len());
        send_us.push(us(sb.send));
        if sb.open_loop {
            lag_ms.push(ms(sb.sent - sb.send - sb.due));
        }
        if let Some((true, at)) = outcome[sb.seq as usize] {
            applied.push(sb.seq);
            if sb.open_loop {
                lat_ms.push(ms(at - sb.due));
                residency_us.push(us(at - sb.sent));
            } else {
                sat_done_s.push((at - sat_start).as_secs_f64());
            }
        }
    }
    ok_before.push(applied.len());
    let failed_batches = batches.len() - applied.len();

    let mut qlat_ms = Vec::new();
    let mut query_residency_us = Vec::new();
    let mut checks = Vec::new();
    for (i, sq) in queries.iter().enumerate() {
        let Some((answer, at)) = answers.get(i) else {
            break;
        };
        qlat_ms.push(ms(*at - sq.due));
        query_residency_us.push(us(*at - sq.sent));
        checks.push(Query {
            key: sq.key,
            lo: sq.acked_before,
            hi: ok_before[sq.batches_before],
            answer: answer.clone(),
        });
    }
    let failed_queries = queries.len() - checks.len();
    let attempted = (batches.len() + queries.len()) as u64;
    let failed = (failed_batches + failed_queries) as u64;

    metrics.set("max_events_per_s", windowed_rate(&sat_done_s, BATCH as f64));
    crate::report::set_latencies(&mut metrics, &lat_ms, &qlat_ms);
    metrics.set("acked_op_share", 1.0 - failed as f64 / attempted as f64);
    metrics.set("client.failed_op_share", failed as f64 / attempted as f64);
    eprintln!(
        "perfbench: {}: {} batches ({} open-loop), {} queries, {} failed; {} ingest and {} query latency samples",
        w.name,
        batches.len(),
        n_batches,
        queries.len(),
        failed,
        lat_ms.len(),
        qlat_ms.len()
    );

    // Read-back on a second connection: STATS, then every touched key,
    // answered after the last batch.
    let mut client = Client::connect(&addr, "perfbench-verify")
        .map_err(|e| format!("verify connection: {e}"))?;
    client
        .set_read_timeout(Some(REPLY_DEADLINE))
        .map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| format!("STATS: {e}"))?;
    metrics.set("fleet_mb", stats.engine.memory_words as f64 * 8.0 / 1e6);
    metrics.set("peak_rss_mb", peak_rss_mb(&proc.pid())?);
    for key in verify::touched_keys(w, inputs, &applied) {
        let answer = client.query(key).map_err(|e| format!("QUERY {key}: {e}"))?;
        checks.push(Query {
            key,
            lo: applied.len(),
            hi: applied.len(),
            answer,
        });
    }

    match &wal_dir {
        None => {
            client
                .shutdown_server()
                .map_err(|e| format!("SHUTDOWN: {e}"))?;
            proc.wait_exit()?;
            metrics.set("durable.recovery_s", 0.0);
            metrics.set("durable.disk_bytes_per_event", 0.0);
            metrics.set("durable.acked_lost_events", 0.0);
        }
        Some(_) => {
            drop(client);
            proc.kill9()?;
        }
    }

    Ok(ServeRun {
        applied,
        queries: checks,
        positions: Vec::new(),
        attempted,
        failed,
        metrics,
        stats,
        send_us,
        lag_ms,
        residency_us,
        query_residency_us,
        wal_dir,
    })
}

fn set_outcome(outcome: &mut [Option<(bool, Instant)>], seq: u64, value: (bool, Instant)) {
    if let Some(slot) = outcome.get_mut(seq as usize) {
        *slot = Some(value);
    }
}

/// Sleep until `due`; a late sender is reported, not compensated.
fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(60) {
            std::thread::sleep(left - Duration::from_micros(50));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The correctness check of a serving run: every mid-run and read-back
/// answer reproduced by the reference, the theorem cap held, and (with
/// a WAL) the fleet recovered after `kill -9` equal to the reference
/// over the WAL prefix it recovered, which also measures the recovery.
pub fn verify(
    w: &Workload,
    inputs: &Inputs,
    run: &mut ServeRun,
    trace: bool,
) -> Result<(), String> {
    verify::within_cap(w, run.stats.engine.max_key_words as usize)?;
    run.positions = match run.wal_dir.clone() {
        None => verify::check(w, inputs, &run.applied, &run.queries, None)?,
        Some(dir) => crate::durable::check_recovery(
            w,
            inputs,
            &run.applied,
            &run.queries,
            &dir,
            trace,
            &mut run.metrics,
        )?,
    };
    Ok(())
}
