//! `O(k)`-per-key fleet snapshots: `snap-<wal_seq>.snap` files holding a
//! config header plus every key's compact sampler state.
//!
//! Both writers — [`write_fleet_snapshot`], streaming a live fleet
//! shard by shard, and [`write_snapshot`], over already-saved states —
//! share one per-key frame encoder and one file writer, so for the same
//! fleet they produce the same bytes. A snapshot
//! is written to a temp file, fsynced, and renamed into place, so a
//! crash mid-write can never damage an existing snapshot.
//! Reading validates every frame's CRC, the header version, the key
//! count, and each embedded sampler record's own checksum; any failure
//! makes the whole snapshot invalid, and recovery falls back to the next
//! older one.

use std::fs::{self, File, OpenOptions};
use std::hash::Hash;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};

use swsample_core::state::{crc32, SamplerState, StateCodec, StateReader, StateWriter};
use swsample_stream::MultiStreamEngine;

use crate::frame::{self, FrameRead, FRAME_HEADER_BYTES};
use crate::DurableError;

/// Version tag leading every snapshot header.
pub const SNAPSHOT_VERSION: u32 = 1;

/// What a snapshot file decodes to: its recorded fleet configuration
/// plus every key's sampler state.
pub type SnapshotContents<K, T> = (SnapshotMeta, Vec<(K, SamplerState<T>)>);

/// The fleet configuration a snapshot records alongside its states —
/// everything needed to rebuild the engine before restoring keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The template spec, in its canonical `Display` form.
    pub template: String,
    /// Fleet backend token (`soa` / `erased`).
    pub backend: String,
    /// Shard count at snapshot time.
    pub shards: u64,
    /// Worker-thread count at snapshot time.
    pub threads: u64,
    /// The first WAL sequence number **not** reflected in these states:
    /// recovery replays records with `seq >= wal_seq`.
    pub wal_seq: u64,
    /// Number of per-key state frames that follow the header.
    pub keys: u64,
}

/// Name of the snapshot covering everything before `wal_seq`. Fixed
/// width so lexicographic order is numeric order.
pub fn snapshot_name(wal_seq: u64) -> String {
    format!("snap-{wal_seq:016x}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

/// All snapshot paths in `dir`, ascending by covered WAL position.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

fn corrupt(path: &Path, detail: impl Into<String>) -> DurableError {
    DurableError::Corrupt {
        file: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Snapshots [`DurableEngine::snapshot`](crate::DurableEngine::snapshot)
/// keeps on disk: the newest, plus one to fall back to should the
/// newest fail validation.
pub const SNAPSHOTS_KEPT: usize = 2;

/// Encoded frames [`write_snapshot`] buffers before each file write.
const WRITE_CHUNK_BYTES: usize = 1 << 20;

/// Append `body` to `w` as one CRC frame, byte for byte what
/// [`frame::write_frame`] writes: the length and checksum fields are
/// reserved, then filled in once the payload is in place.
fn put_frame(w: &mut StateWriter, body: impl FnOnce(&mut StateWriter)) {
    let at = w.len();
    w.put_u64(0);
    body(w);
    let payload = &w.as_bytes()[at + FRAME_HEADER_BYTES..];
    debug_assert!(payload.len() <= frame::MAX_FRAME_BYTES as usize);
    let (len, crc) = (payload.len() as u32, crc32(payload));
    w.set_u32_at(at, len);
    w.set_u32_at(at + 4, crc);
}

/// Append one key's snapshot frame to `w`: the key, then the state's
/// self-checksummed record behind a `u32` length.
fn encode_key_frame<K: StateCodec, T: StateCodec + Clone>(
    w: &mut StateWriter,
    key: &K,
    state: &SamplerState<T>,
) {
    put_frame(w, |w| {
        key.encode_state(w);
        let at = w.len();
        w.put_u32(0);
        state.encode_record_into(w);
        let len = w.len() - at - 4;
        w.set_u32_at(at, len as u32);
    });
}

/// Write a snapshot atomically: the header frame, then the key frames
/// `frames` writes (returning how many), into `snap.tmp`; fsync; rename
/// into place; fsync the directory. A failure at any step removes the
/// temp file and leaves existing snapshots untouched; a frame count
/// other than `meta.keys` is [`DurableError::KeyCount`].
fn write_atomically(
    dir: &Path,
    meta: &SnapshotMeta,
    frames: impl FnOnce(&mut File) -> Result<u64, DurableError>,
) -> Result<PathBuf, DurableError> {
    let tmp_path = dir.join("snap.tmp");
    let final_path = dir.join(snapshot_name(meta.wal_seq));
    let written = (|| {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut header = StateWriter::new();
        put_frame(&mut header, |w| {
            w.put_u32(SNAPSHOT_VERSION);
            w.put_len_bytes(meta.template.as_bytes());
            w.put_len_bytes(meta.backend.as_bytes());
            w.put_u64(meta.shards);
            w.put_u64(meta.threads);
            w.put_u64(meta.wal_seq);
            w.put_u64(meta.keys);
        });
        file.write_all(header.as_bytes())?;
        let written = frames(&mut file)?;
        if written != meta.keys {
            return Err(DurableError::KeyCount {
                header: meta.keys,
                written,
            });
        }
        file.sync_all()?;
        fs::rename(&tmp_path, &final_path)?;
        Ok(())
    })();
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    // Persist the rename itself.
    File::open(dir)?.sync_all()?;
    Ok(final_path)
}

/// Write a snapshot of `states` to `dir`, atomically. Returns the final
/// path. Overwrites an existing snapshot at the same `wal_seq` (the
/// newer states cover at least as much of the log).
///
/// The file is byte-identical to [`write_fleet_snapshot`]'s for the
/// fleet these states were saved from.
pub fn write_snapshot<K: StateCodec, T: StateCodec + Clone>(
    dir: &Path,
    meta: &SnapshotMeta,
    states: &[(K, SamplerState<T>)],
) -> Result<PathBuf, DurableError> {
    write_atomically(dir, meta, |file| {
        let mut w = StateWriter::new();
        for (key, state) in states {
            encode_key_frame(&mut w, key, state);
            if w.len() >= WRITE_CHUNK_BYTES {
                file.write_all(w.as_bytes())?;
                w.clear();
            }
        }
        file.write_all(w.as_bytes())?;
        Ok(states.len() as u64)
    })
}

/// Write a snapshot of `engine`'s live fleet to `dir`, atomically,
/// without collecting its states first: each shard is encoded straight
/// from the store by [`MultiStreamEngine::encode_shards`] (shard-parallel
/// on the engine's worker threads, a few shard images in memory at a
/// time) and written in shard order as it completes. `meta.keys` must
/// equal the fleet's key count.
///
/// The file is byte-identical to
/// `write_snapshot(dir, meta, &engine.save_states()?)`.
pub fn write_fleet_snapshot<K, T>(
    dir: &Path,
    meta: &SnapshotMeta,
    engine: &MultiStreamEngine<K, T>,
) -> Result<PathBuf, DurableError>
where
    K: StateCodec + Hash + Eq + Clone + Send + Sync + 'static,
    T: StateCodec + Clone + Send + Sync + 'static,
{
    write_atomically(dir, meta, |file| {
        let mut written = 0u64;
        engine.encode_shards(encode_key_frame, |image, keys| {
            file.write_all(image)?;
            written += keys as u64;
            Ok::<(), DurableError>(())
        })?;
        Ok(written)
    })
}

/// Delete all but the newest `keep` snapshots in `dir`.
pub(crate) fn retain_newest(dir: &Path, keep: usize) -> Result<(), DurableError> {
    let snapshots = list_snapshots(dir)?;
    let stale = snapshots.len().saturating_sub(keep);
    for (_, path) in &snapshots[..stale] {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// Read and fully validate one snapshot file.
pub fn read_snapshot<K: StateCodec, T: StateCodec + Clone>(
    path: &Path,
) -> Result<SnapshotContents<K, T>, DurableError> {
    let mut r = BufReader::new(File::open(path)?);
    let header = match frame::read_frame(&mut r)? {
        FrameRead::Frame(p) => p,
        FrameRead::Eof => return Err(corrupt(path, "empty snapshot")),
        FrameRead::Torn(detail) => return Err(corrupt(path, format!("header: {detail}"))),
    };
    let mut hr = StateReader::new(&header);
    let meta = (|| -> Result<SnapshotMeta, swsample_core::state::StateError> {
        let version = hr.get_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(swsample_core::state::StateError::Version(version));
        }
        let template = String::from_utf8(hr.get_len_bytes()?.to_vec())
            .map_err(|_| swsample_core::state::StateError::Corrupt("non-utf8 template".into()))?;
        let backend = String::from_utf8(hr.get_len_bytes()?.to_vec())
            .map_err(|_| swsample_core::state::StateError::Corrupt("non-utf8 backend".into()))?;
        let shards = hr.get_u64()?;
        let threads = hr.get_u64()?;
        let wal_seq = hr.get_u64()?;
        let keys = hr.get_u64()?;
        hr.finish()?;
        Ok(SnapshotMeta {
            template,
            backend,
            shards,
            threads,
            wal_seq,
            keys,
        })
    })()
    .map_err(|e| corrupt(path, format!("header: {e}")))?;
    if let Some(expect) =
        parse_snapshot_name(path.file_name().and_then(|n| n.to_str()).unwrap_or(""))
    {
        if expect != meta.wal_seq {
            return Err(corrupt(
                path,
                format!(
                    "file name says wal_seq {expect}, header says {}",
                    meta.wal_seq
                ),
            ));
        }
    }
    let mut states = Vec::with_capacity(meta.keys.min(1 << 20) as usize);
    for i in 0..meta.keys {
        let body = match frame::read_frame(&mut r)? {
            FrameRead::Frame(p) => p,
            FrameRead::Eof => {
                return Err(corrupt(
                    path,
                    format!("truncated: {i} of {} key frames", meta.keys),
                ))
            }
            FrameRead::Torn(detail) => {
                return Err(corrupt(path, format!("key frame {i}: {detail}")))
            }
        };
        let mut br = StateReader::new(&body);
        let entry = (|| -> Result<(K, SamplerState<T>), swsample_core::state::StateError> {
            let key = K::decode_state(&mut br)?;
            let record = br.get_len_bytes()?;
            let state = SamplerState::<T>::decode_record(record)?;
            br.finish()?;
            Ok((key, state))
        })()
        .map_err(|e| corrupt(path, format!("key frame {i}: {e}")))?;
        states.push(entry);
    }
    match frame::read_frame(&mut r)? {
        FrameRead::Eof => Ok((meta, states)),
        _ => Err(corrupt(path, "trailing data after final key frame")),
    }
}

/// The newest snapshot in `dir` that validates end to end, or `None` if
/// the directory holds no snapshot at all. Invalid snapshots are skipped
/// with a warning — that is the corrupt-snapshot recovery path.
#[allow(clippy::type_complexity)]
pub fn latest_valid<K: StateCodec, T: StateCodec + Clone>(
    dir: &Path,
) -> Result<Option<(PathBuf, SnapshotMeta, Vec<(K, SamplerState<T>)>)>, DurableError> {
    let mut snapshots = list_snapshots(dir)?;
    snapshots.reverse();
    let any = !snapshots.is_empty();
    for (_, path) in snapshots {
        match read_snapshot::<K, T>(&path) {
            Ok((meta, states)) => return Ok(Some((path, meta, states))),
            Err(e) => {
                eprintln!("swsample-durable: skipping invalid snapshot: {e}");
            }
        }
    }
    if any {
        // Snapshots existed but none validated — recovery would have to
        // replay a log whose base configuration is unknown.
        return Err(DurableError::Corrupt {
            file: dir.to_path_buf(),
            detail: "every snapshot in the directory is corrupt".into(),
        });
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swsample-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn demo_states(n: u64) -> Vec<(u64, SamplerState<u64>)> {
        // WindowBuffer is the simplest family to fabricate states for:
        // its payload is just a clock, an index, an rng, and a buffer.
        (0..n)
            .map(|key| {
                (
                    key,
                    SamplerState::WindowBuffer {
                        now: key,
                        next_index: key + 1,
                        rng: swsample_core::state::RngState([key, 1, 2, 3]),
                        buf: vec![swsample_core::Sample::new(key * 3, key, key)],
                    },
                )
            })
            .collect()
    }

    fn demo_meta(n: u64, wal_seq: u64) -> SnapshotMeta {
        SnapshotMeta {
            template: "--window seq --n 8 --mode wr --algo buffer --k 2 --seed 7".into(),
            backend: "erased".into(),
            shards: 4,
            threads: 2,
            wal_seq,
            keys: n,
        }
    }

    #[test]
    fn round_trips_meta_and_states() {
        let dir = tmp_dir("roundtrip");
        let states = demo_states(5);
        let meta = demo_meta(5, 42);
        let path = write_snapshot(&dir, &meta, &states).expect("write");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snapshot_name(42)
        );
        let (got_meta, got_states) = read_snapshot::<u64, u64>(&path).expect("read");
        assert_eq!(got_meta, meta);
        assert_eq!(got_states, states);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_skips_corrupt_newest() {
        let dir = tmp_dir("fallback");
        write_snapshot(&dir, &demo_meta(3, 10), &demo_states(3)).expect("older");
        let newer = write_snapshot(&dir, &demo_meta(4, 20), &demo_states(4)).expect("newer");
        // Corrupt one byte in the middle of the newest snapshot.
        let mut bytes = fs::read(&newer).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newer, bytes).expect("write");
        let (path, meta, states) = latest_valid::<u64, u64>(&dir)
            .expect("scan")
            .expect("found");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snapshot_name(10)
        );
        assert_eq!(meta.wal_seq, 10);
        assert_eq!(states.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_an_error_and_no_snapshots_is_none() {
        let dir = tmp_dir("allcorrupt");
        assert!(latest_valid::<u64, u64>(&dir).expect("scan").is_none());
        let path = write_snapshot(&dir, &demo_meta(2, 5), &demo_states(2)).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        bytes[4] ^= 0x01;
        fs::write(&path, bytes).expect("write");
        assert!(matches!(
            latest_valid::<u64, u64>(&dir),
            Err(DurableError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_of_a_snapshot_is_an_error() {
        let dir = tmp_dir("trunc");
        let path = write_snapshot(&dir, &demo_meta(3, 9), &demo_states(3)).expect("write");
        let bytes = fs::read(&path).expect("read");
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).expect("write");
            assert!(
                read_snapshot::<u64, u64>(&path).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
