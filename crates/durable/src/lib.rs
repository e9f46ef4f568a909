//! Durability for the keyed fleet engine: a write-ahead segment log,
//! `O(k)`-per-key snapshots, bit-identical crash recovery, and live
//! rescale.
//!
//! The repo's core invariant makes durability cheap: every sampler is a
//! pure function of `(spec, event log)`, with per-key RNG seeds derived
//! from the key alone. So a crash-consistent replica needs exactly two
//! artifacts — a checkpoint of per-key sampler states
//! ([`MultiStreamEngine::encode_shards`], `O(k)` words per key) and the
//! suffix of ingest batches since that checkpoint (the WAL). Replaying
//! the suffix into the restored fleet reproduces the uncrashed run **bit
//! for bit**, at any shard count, at any thread count.
//!
//! The layout on disk, all little-endian, every record CRC-framed
//! (`[len u32][crc32 u32][payload]`, see [`frame`]):
//!
//! * **WAL** ([`wal::SegmentLog`]) — `wal-<index>.seg` files of framed
//!   `[seq u64][batch]` records, one per *ingest batch* (batch
//!   boundaries are replay-significant: some samplers draw RNG in
//!   batch-major order). Appends go to the active segment; the file is
//!   fsynced when it rolls over the segment-size threshold and on
//!   [`snapshot`](engine::DurableEngine::snapshot). A torn final record
//!   in the **final** segment is tolerated at recovery (the crash wrote
//!   a partial frame); torn or corrupt records anywhere else are hard
//!   errors.
//! * **Snapshots** ([`snapshot`]) — `snap-<wal_seq>.snap` files: a
//!   header frame (template spec string, backend, shard/thread counts,
//!   the first WAL seq *not* covered, key count) followed by one frame
//!   per key wrapping the key and the sampler's own checksummed
//!   [`SamplerState`](swsample_core::SamplerState) record. The fleet is
//!   never copied: [`snapshot::write_fleet_snapshot`] encodes each shard
//!   straight from the live store under its read lock, shard-parallel on
//!   the engine's worker threads, and writes the shard images in shard
//!   order with at most two per thread in memory. The bytes equal
//!   [`snapshot::write_snapshot`] of [`MultiStreamEngine::save_states`].
//!   Written to a temp file, fsynced, renamed, and the directory
//!   fsynced — a crash mid-snapshot leaves the previous snapshot intact,
//!   and a failed write removes the temp file. Once a snapshot is
//!   durable, all but the newest [`snapshot::SNAPSHOTS_KEPT`] (two) are
//!   deleted. Recovery takes the newest snapshot that validates
//!   end-to-end and falls back to the older one with a warning (a
//!   corrupted byte anywhere in a snapshot fails its CRC).
//! * **Recovery** ([`engine::DurableEngine::open`]) — latest valid
//!   snapshot + replay of WAL records with `seq >=` the snapshot's
//!   position.
//!
//! Fault injection for all of the above lives in [`failpoint`]:
//! `SWSAMPLE_FAILPOINT=kill-after-appends=N[,torn-tail=B]` crashes the
//! process (exit code [`failpoint::CRASH_EXIT_CODE`]) mid-ingest, and
//! the CI crash-recovery smoke byte-diffs the resumed run's output
//! against an uncrashed reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod failpoint;
pub mod frame;
pub mod snapshot;
pub mod wal;

pub use engine::{DurableEngine, DurableOptions, ResumeOverrides};
pub use failpoint::{FailPlan, CRASH_EXIT_CODE, SHUTDOWN_EXIT_CODE};

use std::path::PathBuf;

use swsample_core::state::StateError;
#[cfg(doc)]
use swsample_stream::MultiStreamEngine;

/// Everything that can go wrong opening, appending to, or recovering a
/// durable fleet.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A sampler state record failed to decode or apply.
    State(StateError),
    /// A durable file is structurally invalid (and not covered by the
    /// final-segment torn-tail tolerance).
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// The on-disk configuration and the caller's disagree (e.g. a
    /// resume with a different template).
    Config(String),
    /// A snapshot writer produced a different number of key frames than
    /// its header announces; the snapshot was not written.
    KeyCount {
        /// The header's `keys`.
        header: u64,
        /// Key frames actually produced.
        written: u64,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable i/o error: {e}"),
            DurableError::State(e) => write!(f, "durable state error: {e}"),
            DurableError::Corrupt { file, detail } => {
                write!(f, "corrupt durable file {}: {detail}", file.display())
            }
            DurableError::Config(msg) => write!(f, "durable config error: {msg}"),
            DurableError::KeyCount { header, written } => write!(
                f,
                "snapshot header announces {header} keys but {written} key frames were written"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<StateError> for DurableError {
    fn from(e: StateError) -> Self {
        DurableError::State(e)
    }
}
