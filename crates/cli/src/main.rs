//! `swsample` — uniform random sampling from sliding windows, on the
//! command line.
//!
//! ```sh
//! # keep 5 distinct uniform samples of the last 1000 log lines
//! tail -f app.log | swsample seq --window 1000 --k 5 --wor --report-every 100
//!
//! # sample a timestamped stream over the last 60 ticks
//! swsample gen --kind bursty --count 10000 | swsample ts --window 60 --k 3
//!
//! # approximate count/mean/quantiles over a 300-tick window
//! swsample gen --kind zipf --count 100000 --domain 1000 \
//!   | swsample agg --window 300 --k 128 --epsilon 0.05
//!
//! # any sampler spec, one command: chain sampling over the last 5000 lines
//! tail -f app.log | swsample run --window seq --n 5000 --algo chain --k 8
//!
//! # a fleet: one independent 1000-arrival window per key, zipf key skew
//! swsample multi --keys 100000 --count 1000000 --window seq --n 1000 --k 16
//! ```

use std::io::Write;

use swsample_cli::{args, commands};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let args = match args::Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swsample: {e}");
            let _ = commands::write_help(&mut out);
            let _ = out.flush();
            std::process::exit(2);
        }
    };
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    if let Err(e) = commands::run(&args, &mut input, &mut out) {
        let _ = out.flush();
        eprintln!("swsample: {e}");
        std::process::exit(e.exit_code);
    }
    let _ = out.flush();
}
