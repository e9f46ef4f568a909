//! Workload shapes and seeded input generation.
//!
//! Every input is a pure function of the `--seed` argument and is made
//! before any timed region: a pool of zipf-drawn keys that event `i`
//! indexes cyclically, and a second pool for query keys. Event `i` is
//! `(key, i / 64, i)`, so a sampled value names the event it came from
//! and timestamps never run backwards for any key.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use swsample_core::fault::mix64;
use swsample_core::SamplerSpec;
use swsample_stream::{ValueGen, ZipfGen};

pub const BATCH: usize = 1024;
pub const THETA: f64 = 1.1;
/// Fleet shape of every fleet the benchmark builds or starts.
pub const THREADS: usize = 2;
pub const SHARDS: usize = 64;
const KEY_POOL: usize = 1 << 23;
const QUERY_POOL: usize = 1 << 16;

pub type Event = (u64, u64, u64);

/// Set-ups per run; `setup_s` is their median, and the last one
/// carries the workload.
pub const SETUPS: usize = 31;
/// Share of `--seconds` a serving workload spends in its open-loop
/// phase; the rest is the closed-loop saturation phase.
pub const OPEN_SHARE: f64 = 0.6;
/// Batches the saturation phase keeps in flight.
pub const SATURATION_WINDOW: u64 = 8;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub template: &'static str,
    pub keys: u64,
    /// `Some(events/s)`: served over TCP by a `swsample serve` child,
    /// open loop at this rate. `None`: an in-process `DurableEngine`
    /// driven by a closed-loop caller.
    pub open_rate: Option<f64>,
    /// A WAL with a full-fleet snapshot every this many batches (0: no
    /// WAL).
    pub snapshot_every: u64,
    /// Queries per ingest batch.
    pub queries_per_batch: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve-1k",
        template: "--window seq --n 1000 --k 16 --seed 42",
        keys: 1_000,
        open_rate: Some(3_000_000.0),
        snapshot_every: 0,
        queries_per_batch: 0.5,
    },
    Workload {
        name: "durable-100k",
        template: "--window seq --n 1000 --k 16 --seed 42",
        keys: 100_000,
        open_rate: None,
        snapshot_every: 512,
        queries_per_batch: 1.0,
    },
    Workload {
        name: "serve-ts-wal",
        template: "--window ts --w 1000 --k 16 --seed 42",
        keys: 10_000,
        open_rate: Some(600_000.0),
        snapshot_every: 512,
        // One per 64 events.
        queries_per_batch: BATCH as f64 / 64.0,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn spec(&self) -> SamplerSpec {
        self.template.parse().expect("workload templates parse")
    }

    /// The paper's deterministic per-key word cap for the template, as
    /// the repository's theorem-bound tests state it.
    pub fn key_word_cap(&self) -> usize {
        let spec = self.spec();
        match spec.window {
            swsample_core::spec::WindowKind::Sequence(_) => 7 * spec.k + 3,
            swsample_core::spec::WindowKind::Timestamp(w) => {
                // Theorem 3.9 per instance at n active elements, with n
                // bounded by every event of the window (64 per tick).
                let n = 64 * w;
                let log_n = (64 - n.leading_zeros()) as usize;
                spec.k * (9 * (2 * log_n + 3) + 2) + 2
            }
            other => panic!("no theorem cap for window {other:?}"),
        }
    }
}

/// The seeded inputs of one run.
pub struct Inputs {
    keys: Vec<u32>,
    query_keys: Vec<u32>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let draw = |stream: u64, n: usize| -> Vec<u32> {
            let mut rng = SmallRng::seed_from_u64(mix64(seed, stream, w.keys));
            let mut zipf = ZipfGen::new(w.keys, THETA);
            (0..n).map(|_| zipf.next_value(&mut rng) as u32).collect()
        };
        Inputs {
            keys: draw(0x6b65_7973, KEY_POOL),
            query_keys: draw(0x7175_6572, QUERY_POOL),
        }
    }

    /// Batch `b`: events `b * BATCH .. (b + 1) * BATCH`.
    pub fn batch(&self, b: u64) -> Vec<Event> {
        let first = b * BATCH as u64;
        (first..first + BATCH as u64)
            .map(|i| (self.keys[i as usize % KEY_POOL] as u64, i / 64, i))
            .collect()
    }

    /// Key of the `j`-th query.
    pub fn query_key(&self, j: u64) -> u64 {
        self.query_keys[j as usize % QUERY_POOL] as u64
    }
}
