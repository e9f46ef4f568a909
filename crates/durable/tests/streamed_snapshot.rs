//! The streamed snapshot writer against the collected one: for every
//! spec-expressible family, several thread counts and fleet shapes, a snapshot encoded straight from the live fleet
//! (`write_fleet_snapshot`, what `DurableEngine::snapshot` writes) must
//! be byte for byte the file `write_snapshot(save_states())` writes —
//! and both must equal the original format, rebuilt here frame by frame
//! from the public codecs. Each streamed snapshot is then restored and
//! must answer `sample_k` exactly as the fleet it came from.
//!
//! Also: snapshot retention, typed errors in place of panics, and the
//! temp file never outliving a failed write.

use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use swsample_core::state::StateWriter;
use swsample_core::{FleetBackend, Sample, SamplerSpec};
use swsample_durable::snapshot::{
    self, list_snapshots, read_snapshot, write_fleet_snapshot, write_snapshot, SnapshotMeta,
    SNAPSHOTS_KEPT, SNAPSHOT_VERSION,
};
use swsample_durable::{frame, DurableEngine, DurableError, DurableOptions};
use swsample_stream::{FxHasher, MultiStreamEngine};

/// One canonical template per family the spec grammar can express.
const FAMILIES: &[(&str, &str)] = &[
    (
        "seq-wr",
        "--window seq --n 48 --mode wr --algo paper --k 3 --seed 201",
    ),
    (
        "seq-wor",
        "--window seq --n 48 --mode wor --algo paper --k 3 --seed 202",
    ),
    (
        "ts-wr",
        "--window ts --w 24 --mode wr --algo paper --k 3 --seed 203",
    ),
    (
        "ts-wor",
        "--window ts --w 24 --mode wor --algo paper --k 3 --seed 204",
    ),
    (
        "reservoir-l",
        "--window stream --mode wor --algo reservoir-l --k 3 --seed 205",
    ),
    (
        "chain",
        "--window seq --n 48 --mode wr --algo chain --k 3 --seed 206",
    ),
    (
        "priority",
        "--window ts --w 24 --mode wr --algo priority --k 3 --seed 207",
    ),
    (
        "priority-topk",
        "--window ts --w 24 --mode wor --algo priority --k 3 --seed 208",
    ),
    (
        "buffer-seq",
        "--window seq --n 48 --mode wor --algo window-buffer --k 3 --seed 209",
    ),
    (
        "buffer-ts",
        "--window ts --w 24 --mode wor --algo window-buffer --k 3 --seed 210",
    ),
];

const THREADS: &[usize] = &[1, 2, 8];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swsample-streamed-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The engine's shard for `key` (its Fx hash, high half folded down).
fn shard_of(key: u64, shards: usize) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    let h = h.finish();
    ((h >> 32) ^ h) as usize & (shards - 1)
}

/// A fleet shape: a shard count and the keys to materialize.
struct Fleet {
    name: &'static str,
    shards: usize,
    keys: Vec<u64>,
}

/// Empty, one key, very uneven shards (most keys in one shard, a few in
/// another, the rest empty), and many more shards than any thread
/// count's in-flight window. The last two are large enough to take the
/// shard-parallel path.
fn fleets() -> Vec<Fleet> {
    let shards = 8;
    let mut uneven: Vec<u64> = (0..)
        .filter(|&k| shard_of(k, shards) == 5)
        .take(1500)
        .collect();
    uneven.extend((0..).filter(|&k| shard_of(k, shards) == 2).take(3));
    uneven.extend((0..).filter(|&k| shard_of(k, shards) == 7).take(40));
    vec![
        Fleet {
            name: "empty",
            shards: 4,
            keys: Vec::new(),
        },
        Fleet {
            name: "single",
            shards: 4,
            keys: vec![42],
        },
        Fleet {
            name: "uneven",
            shards,
            keys: uneven,
        },
        Fleet {
            name: "wide",
            shards: 64,
            keys: (0..1600).map(|k| k * 7 + 1).collect(),
        },
    ]
}

/// Feed every key a few events, in batches, with a non-decreasing clock.
fn populate(engine: &MultiStreamEngine<u64, u64>, keys: &[u64]) {
    let mut e = 0u64;
    for round in 0..3u64 {
        let batch: Vec<(u64, u64, u64)> = keys
            .iter()
            .flat_map(|&k| {
                (0..=(k + round) % 4).map(move |i| (k, round * 10 + i, k ^ (round << 20) ^ i))
            })
            .map(|(k, now, v)| {
                e += 1;
                (k, now, v.wrapping_add(e))
            })
            .collect();
        engine.ingest_parallel(&batch);
    }
}

fn meta_for(engine: &MultiStreamEngine<u64, u64>, wal_seq: u64) -> SnapshotMeta {
    SnapshotMeta {
        template: engine.template().to_string(),
        backend: engine.backend().token().to_string(),
        shards: engine.num_shards() as u64,
        threads: engine.num_threads() as u64,
        wal_seq,
        keys: engine.num_keys() as u64,
    }
}

/// The original snapshot writer's bytes, rebuilt from the public frame
/// and state codecs: header frame, then one frame per saved state
/// wrapping the key and its length-prefixed record.
fn original_format(meta: &SnapshotMeta, engine: &MultiStreamEngine<u64, u64>) -> Vec<u8> {
    use swsample_core::state::StateCodec;
    let mut out = Vec::new();
    let mut header = StateWriter::new();
    header.put_u32(SNAPSHOT_VERSION);
    header.put_len_bytes(meta.template.as_bytes());
    header.put_len_bytes(meta.backend.as_bytes());
    header.put_u64(meta.shards);
    header.put_u64(meta.threads);
    header.put_u64(meta.wal_seq);
    header.put_u64(meta.keys);
    frame::write_frame(&mut out, &header.into_bytes()).expect("vec write");
    for (key, state) in engine.save_states().expect("save_states") {
        let mut body = StateWriter::new();
        key.encode_state(&mut body);
        body.put_len_bytes(&state.encode_record());
        frame::write_frame(&mut out, &body.into_bytes()).expect("vec write");
    }
    out
}

fn samples(engine: &MultiStreamEngine<u64, u64>, keys: &[u64]) -> Vec<Option<Vec<Sample<u64>>>> {
    keys.iter().map(|k| engine.sample_k(k)).collect()
}

#[test]
fn streamed_snapshot_is_byte_identical_for_every_family_threads_and_shape() {
    let mut cases = 0;
    for (family, template) in FAMILIES {
        let spec: SamplerSpec = template.parse().expect("template");
        for &threads in THREADS {
            for fleet in fleets() {
                let tag = format!("{family}-t{threads}-{}", fleet.name);
                let engine = MultiStreamEngine::<u64, u64>::with_threads(
                    spec.clone(),
                    fleet.shards,
                    swsample_baselines::spec::build::<u64>,
                    threads,
                )
                .expect("engine");
                populate(&engine, &fleet.keys);
                assert_eq!(engine.num_keys(), fleet.keys.len(), "{tag}");
                let meta = meta_for(&engine, 7);

                let streamed_dir = tmp_dir(&format!("{tag}-s"));
                let streamed = write_fleet_snapshot(&streamed_dir, &meta, &engine)
                    .unwrap_or_else(|e| panic!("{tag}: streamed write: {e}"));
                let collected_dir = tmp_dir(&format!("{tag}-c"));
                let collected = write_snapshot(
                    &collected_dir,
                    &meta,
                    &engine.save_states().expect("save_states"),
                )
                .unwrap_or_else(|e| panic!("{tag}: collected write: {e}"));
                let streamed_bytes = fs::read(&streamed).expect("read streamed");
                assert!(
                    streamed_bytes == fs::read(&collected).expect("read collected"),
                    "{tag}: streamed snapshot differs from write_snapshot(save_states())"
                );
                assert!(
                    streamed_bytes == original_format(&meta, &engine),
                    "{tag}: snapshot differs from the original format"
                );

                // Restore the streamed snapshot onto a fresh fleet (the
                // other shape, to show layout independence) and compare
                // every key's answer.
                let (got_meta, states) = read_snapshot::<u64, u64>(&streamed).expect("read back");
                assert_eq!(got_meta, meta, "{tag}");
                let mut restored = MultiStreamEngine::<u64, u64>::with_factory(
                    spec.clone(),
                    fleet.shards * 2,
                    swsample_baselines::spec::build::<u64>,
                )
                .expect("engine");
                restored.restore_states(states).expect("restore");
                assert_eq!(
                    samples(&restored, &fleet.keys),
                    samples(&engine, &fleet.keys),
                    "{tag}: restored fleet answers differently"
                );
                let _ = fs::remove_dir_all(&streamed_dir);
                let _ = fs::remove_dir_all(&collected_dir);
                cases += 1;
            }
        }
    }
    // 10 families, 3 thread counts, 4 shapes.
    assert_eq!(cases, 10 * THREADS.len() * 4);
}

fn no_temp_file(dir: &Path) -> bool {
    !dir.join("snap.tmp").exists()
}

#[test]
fn key_count_mismatch_is_an_error_and_leaves_nothing_behind() {
    let dir = tmp_dir("keycount");
    let spec: SamplerSpec = FAMILIES[0].1.parse().expect("template");
    let engine = MultiStreamEngine::<u64, u64>::with_threads(
        spec,
        8,
        swsample_baselines::spec::build::<u64>,
        2,
    )
    .expect("engine");
    populate(&engine, &(0..2000).collect::<Vec<_>>());
    let mut meta = meta_for(&engine, 3);
    meta.keys += 1;
    let err = write_fleet_snapshot(&dir, &meta, &engine).expect_err("streamed");
    assert!(
        matches!(
            err,
            DurableError::KeyCount {
                header: 2001,
                written: 2000
            }
        ),
        "got {err:?}"
    );
    let err =
        write_snapshot(&dir, &meta, &engine.save_states().expect("save")).expect_err("collected");
    assert!(matches!(err, DurableError::KeyCount { .. }), "got {err:?}");
    assert!(no_temp_file(&dir), "a failed write left snap.tmp behind");
    assert!(list_snapshots(&dir).expect("list").is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_directory_is_an_io_error_not_a_panic() {
    let dir = tmp_dir("missing").join("no-such-subdir");
    let engine = MultiStreamEngine::<u64, u64>::new(FAMILIES[0].1.parse().expect("template"))
        .expect("engine");
    let err = write_fleet_snapshot(&dir, &meta_for(&engine, 0), &engine).expect_err("no dir");
    assert!(matches!(err, DurableError::Io(_)), "got {err:?}");
    let _ = fs::remove_dir_all(dir.parent().expect("parent"));
}

fn keyed_batch(b: u64) -> Vec<(u64, u64, u64)> {
    (0..50u64)
        .map(|i| {
            let e = b * 50 + i;
            (e % 23, e / 5, e.wrapping_mul(0x9e37_79b9))
        })
        .collect()
}

fn all_samples(engine: &MultiStreamEngine<u64, u64>) -> Vec<Option<Vec<Sample<u64>>>> {
    samples(engine, &(0..23).collect::<Vec<_>>())
}

/// Only the newest two snapshots stay on disk, and the older one still
/// carries recovery when the newest is corrupt.
#[test]
fn snapshot_retention_keeps_two_and_falls_back_to_the_older() {
    let dir = tmp_dir("retention");
    let spec: SamplerSpec = FAMILIES[1].1.parse().expect("template");
    let mut durable = DurableEngine::<u64, u64>::create(
        &dir,
        spec.clone(),
        4,
        2,
        FleetBackend::Auto,
        DurableOptions {
            snapshot_every: Some(3),
            ..DurableOptions::default()
        },
    )
    .expect("create");
    let mut reference = MultiStreamEngine::<u64, u64>::with_factory(
        spec,
        4,
        swsample_baselines::spec::build::<u64>,
    )
    .expect("reference");
    for b in 0..20 {
        durable.ingest(&keyed_batch(b)).expect("ingest");
        reference.ingest(&keyed_batch(b));
    }
    durable.sync().expect("sync");
    drop(durable);
    // Snapshots at 0, 3, 6, ..., 18: only 15 and 18 remain.
    let kept: Vec<u64> = list_snapshots(&dir)
        .expect("list")
        .into_iter()
        .map(|(seq, _)| seq)
        .collect();
    assert_eq!(kept.len(), SNAPSHOTS_KEPT);
    assert_eq!(kept, vec![15, 18]);
    assert!(no_temp_file(&dir));

    // Corrupt the newest: recovery must come from seq 15 plus replay.
    let newest = dir.join(snapshot::snapshot_name(18));
    let mut bytes = fs::read(&newest).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, bytes).expect("corrupt");
    let (path, meta, _) = snapshot::latest_valid::<u64, u64>(&dir)
        .expect("scan")
        .expect("a valid snapshot");
    assert_eq!(path, dir.join(snapshot::snapshot_name(15)));
    assert_eq!(meta.wal_seq, 15);
    let reopened = DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).expect("open");
    assert_eq!(reopened.next_seq(), 20);
    assert_eq!(all_samples(reopened.engine()), all_samples(&reference));
    let _ = fs::remove_dir_all(&dir);
}
