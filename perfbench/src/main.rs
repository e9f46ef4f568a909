//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-1k --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Runs one workload (see `BENCHMARK.json` for why each exists), checks
//! the program's outputs against an offline reference, prints every
//! measured figure on stderr and, as the last stdout line, one JSON
//! object: the end-to-end metrics when `--trace 0`, the per-layer
//! metrics when `--trace 1`. A run whose correctness check fails
//! reports `"correct": false` with no metrics and exits 1.
//!
//! The serving workloads start the server as a child process of this
//! binary (`perfbench serve-child serve ...`), which hands its
//! arguments to the `swsample` CLI's own command dispatcher — the same
//! code the `swsample` binary's `main` runs.

mod durable;
mod gen;
mod layers;
mod report;
mod serve;
mod trace;
mod verify;

use std::io::Write as _;
use std::path::{Path, PathBuf};

use report::{result_line, Metrics, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Scratch space inside the checkout: WAL directories (removed when the
/// run ends) and traced runs' span files (kept).
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one run produced: the verdict, and every metric it measured.
struct RunResult {
    outcome: Outcome,
    metrics: Metrics,
    /// Why the correctness check failed, if it did.
    mismatch: Option<String>,
}

/// Run a workload. `tamper` builds the reference from the template with
/// another seed, so a working check must fail (self-test only).
fn run(args: &Args, tamper: bool) -> Result<RunResult, String> {
    let w = gen::workload(&args.workload).ok_or_else(|| {
        let names: Vec<_> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{}` (one of {names:?})", args.workload)
    })?;
    let dir = RunDir(Path::new(WORK_DIR).join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let inputs = gen::Inputs::generate(&w, args.seed);
    let mut tracer = Tracer::new(args.trace);
    let reference = if tamper {
        let wrong = w.template.replace("--seed 42", "--seed 43");
        assert_ne!(wrong, w.template, "templates carry --seed 42");
        gen::Workload {
            template: Box::leak(wrong.into_boxed_str()),
            ..w
        }
    } else {
        w
    };

    let (outcome, mut metrics, checked) = match w.open_rate {
        Some(_) => {
            let mut r = serve::run(&w, &inputs, args.seconds, &dir.0)?;
            let checked = serve::verify(&reference, &inputs, &mut r, args.trace);
            if checked.is_ok() && args.trace {
                let client = layers::ClientSide {
                    stats: &r.stats,
                    send_us: &r.send_us,
                    lag_ms: &r.lag_ms,
                    residency_us: &r.residency_us,
                    query_residency_us: &r.query_residency_us,
                };
                let lr = layers::LayerRun {
                    w: &w,
                    inputs: &inputs,
                    applied: &r.applied,
                    queries: &r.queries,
                    positions: &r.positions,
                    client: Some(client),
                    wal: r.wal_dir.is_some(),
                };
                layers::measure(&lr, &dir.0, &mut tracer, &mut r.metrics)?;
            }
            (outcome(r.attempted, r.failed, &checked), r.metrics, checked)
        }
        None => {
            let mut r = durable::run(&w, &inputs, args.seconds, &dir.0)?;
            let checked = durable::verify(&reference, &inputs, &mut r, args.trace);
            if checked.is_ok() && args.trace {
                let lr = layers::LayerRun {
                    w: &w,
                    inputs: &inputs,
                    applied: &r.applied,
                    queries: &r.queries,
                    positions: &r.positions,
                    client: None,
                    wal: true,
                };
                layers::measure(&lr, &dir.0, &mut tracer, &mut r.metrics)?;
            }
            (outcome(r.attempted, r.failed, &checked), r.metrics, checked)
        }
    };
    if args.trace && tracer.len() > 0 {
        let path = Path::new(WORK_DIR).join(format!("trace-{}-seed{}.tsv", w.name, args.seed));
        tracer.write_tsv(&path)?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.len(),
            path.display()
        );
    }
    if checked.is_err() {
        metrics = Metrics::default();
    }
    Ok(RunResult {
        outcome,
        metrics,
        mismatch: checked.err(),
    })
}

fn outcome(attempted: u64, failed: u64, checked: &Result<(), String>) -> Outcome {
    Outcome {
        correct: checked.is_ok(),
        attempted: attempted.max(1),
        failed,
    }
}

fn report(args: &Args, result: &RunResult) -> Result<String, String> {
    for (name, value) in &result.metrics.0 {
        eprintln!(
            "perfbench: {name:<34} {value:>16.6} {}",
            report::unit_of(name)
        );
    }
    if let Some(why) = &result.mismatch {
        eprintln!("perfbench: correctness check FAILED: {why}");
        return Ok(result_line(&result.outcome, &Metrics::default()));
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    Ok(result_line(&result.outcome, &result.metrics.select(table)?))
}

/// Hand the arguments to the `swsample` CLI, as its binary's `main` does.
fn serve_child(argv: Vec<String>) -> ! {
    use swsample_cli::{args, commands};
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let args = match args::Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swsample: {e}");
            std::process::exit(2);
        }
    };
    let code = match commands::run(&args, &mut std::io::stdin().lock(), &mut out) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("swsample: {e}");
            1
        }
    };
    let _ = out.flush();
    std::process::exit(code);
}

/// A seconds-long check of the harness itself: every workload, traced
/// and untraced, emits exactly the declared metrics with their units
/// and `BENCHMARK.json` declares the same ones; and a deliberately
/// wrong reference makes every workload's correctness check fail.
fn self_test() -> Result<(), String> {
    let declared =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !declared.contains(&entry) {
            return Err(format!("BENCHMARK.json does not declare {entry}"));
        }
    }
    let declared_names = declared.matches("\"name\": ").count();
    let workloads = gen::WORKLOADS.len();
    if declared_names != END_TO_END.len() + PER_LAYER.len() + workloads {
        return Err(format!(
            "BENCHMARK.json names {declared_names} metrics and workloads; the harness has {}",
            END_TO_END.len() + PER_LAYER.len() + workloads
        ));
    }
    for w in gen::WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: w.name.into(),
                seed: 7,
                seconds: 1.0,
                trace,
            };
            let result = run(&args, false)?;
            if let Some(why) = &result.mismatch {
                return Err(format!("{}: correct run judged wrong: {why}", w.name));
            }
            let line = report(&args, &result)?;
            let table = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let entry = format!("\"{name}\": {{\"value\": ");
                let with_unit = format!("\"unit\": \"{unit}\"}}");
                let at = line
                    .find(&entry)
                    .ok_or_else(|| format!("{}: `{name}` missing from {line}", w.name))?;
                if !line[at..].contains(&with_unit) {
                    return Err(format!("{}: `{name}` lacks unit {unit}", w.name));
                }
            }
            if line.matches("\"unit\"").count() != table.len() {
                return Err(format!("{}: unexpected metrics in {line}", w.name));
            }
            eprintln!(
                "self-test: {} trace={} emits its {} metrics",
                w.name,
                trace as u8,
                table.len()
            );
        }
        let args = Args {
            workload: w.name.into(),
            seed: 7,
            seconds: 1.0,
            trace: false,
        };
        let result = run(&args, true)?;
        if result.outcome.correct || !result.metrics.0.is_empty() {
            return Err(format!("{}: a wrong reference passed the check", w.name));
        }
        eprintln!(
            "self-test: {} rejects a wrong reference ({})",
            w.name,
            result.mismatch.unwrap_or_default()
        );
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        serve_child(argv[1..].to_vec());
    }
    if argv.first().map(String::as_str) == Some("--self-test") {
        match self_test() {
            Ok(()) => {
                eprintln!("self-test: ok");
                return;
            }
            Err(e) => {
                eprintln!("self-test: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = run(&args, false).and_then(|r| Ok((report(&args, &r)?, r.outcome.correct)));
    match line {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
