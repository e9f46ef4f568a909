//! Streamed checkpoint encoding behind
//! [`MultiStreamEngine::encode_shards`](super::MultiStreamEngine::encode_shards):
//! every shard's key records are encoded straight from the live fleet,
//! under that shard's read lock, into a reused per-shard buffer, and
//! handed to the caller in shard order — the order
//! [`save_states`](super::MultiStreamEngine::save_states) lists keys in.
//!
//! Encoding runs on the engine's worker count: the calling thread plus
//! scoped helpers, all claiming shards from one ordered cursor. Only the
//! calling thread emits, so the output order never depends on which
//! thread encoded a shard. A claim may run at most `window` shards ahead
//! of the next one to emit, which bounds the encoded bytes in flight to
//! a few shard images regardless of fleet size. Small fleets encode
//! inline, with no thread spawned.

use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

use swsample_core::state::{SamplerState, StateError, StateWriter};

use super::Shard;

/// Fleets with fewer keys than this encode inline: a helper thread's
/// spawn would cost more than it saves.
const PARALLEL_MIN_KEYS: usize = 1024;

/// Encoded-but-unemitted shard images allowed per encoding thread.
const IMAGES_PER_THREAD: usize = 2;

/// Encode one shard's keys, in slot order, appending to `w`. Returns the
/// number of keys encoded.
fn encode_shard<K: Hash + Eq + Clone, T: Clone + 'static>(
    shard: &RwLock<Shard<K, T>>,
    w: &mut StateWriter,
    encode: &impl Fn(&mut StateWriter, &K, &SamplerState<T>),
) -> Result<usize, StateError> {
    shard
        .read()
        .expect("shard lock poisoned")
        .save_each(|key, state| encode(w, key, &state))
}

/// See [`MultiStreamEngine::encode_shards`](super::MultiStreamEngine::encode_shards).
pub(super) fn encode_shards<K, T, E>(
    shards: &[Arc<RwLock<Shard<K, T>>>],
    threads: usize,
    encode: impl Fn(&mut StateWriter, &K, &SamplerState<T>) + Sync,
    mut emit: impl FnMut(&[u8], usize) -> Result<(), E>,
) -> Result<(), E>
where
    K: Hash + Eq + Clone + Send + Sync,
    T: Clone + Send + Sync + 'static,
    E: From<StateError>,
{
    let keys: usize = shards
        .iter()
        .map(|s| s.read().expect("shard lock poisoned").registry.len())
        .sum();
    let helpers = threads.min(shards.len()).saturating_sub(1);
    if helpers == 0 || keys < PARALLEL_MIN_KEYS {
        let mut w = StateWriter::new();
        for shard in shards {
            let n = encode_shard(shard, &mut w, &encode)?;
            emit(w.as_bytes(), n)?;
            w.clear();
        }
        return Ok(());
    }
    let queue = Queue::new(shards.len(), (helpers + 1) * IMAGES_PER_THREAD);
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| queue.help(shards, &encode));
        }
        queue.drain(shards, &encode, &mut emit)
    })
}

/// The shared claim/reorder state of one parallel encode.
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled when an image completes, an image is emitted, or the
    /// encode stops.
    changed: Condvar,
}

struct QueueState {
    total: usize,
    window: usize,
    /// Next shard to hand out.
    claimed: usize,
    /// Next shard to emit; every shard below it has been emitted.
    emitted: usize,
    /// Encoded images waiting for their turn: `(shard, image, keys)`.
    ready: Vec<(usize, StateWriter, usize)>,
    /// Emitted images' buffers, kept for reuse.
    free: Vec<StateWriter>,
    /// The first encode failure, for the emitting thread to return.
    failed: Option<StateError>,
    /// No further claims: the encode failed, the emitting thread left,
    /// or a helper unwound.
    stop: bool,
}

impl QueueState {
    /// Claim the next shard if the window allows, with a buffer to
    /// encode it into.
    fn try_claim(&mut self) -> Option<(usize, StateWriter)> {
        if self.stop || self.claimed == self.total || self.claimed >= self.emitted + self.window {
            return None;
        }
        self.claimed += 1;
        Some((self.claimed - 1, self.free.pop().unwrap_or_default()))
    }
}

/// Stops the encode when the emitting thread leaves `drain` by any path
/// (done, error, or unwind), so no helper waits for a window that will
/// never move.
struct StopOnDrop<'a>(&'a Queue);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().stop = true;
        self.0.changed.notify_all();
    }
}

impl Queue {
    fn new(total: usize, window: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                total,
                window,
                claimed: 0,
                emitted: 0,
                ready: Vec::with_capacity(window),
                free: Vec::with_capacity(window),
                failed: None,
                stop: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Every update leaves the state consistent, so a guard poisoned by
    /// an unwinding thread is still safe to use.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        self.changed
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper thread: claim, encode, and hand back images until the
    /// shards run out or the encode stops.
    fn help<K: Hash + Eq + Clone, T: Clone + 'static>(
        &self,
        shards: &[Arc<RwLock<Shard<K, T>>>],
        encode: &impl Fn(&mut StateWriter, &K, &SamplerState<T>),
    ) {
        loop {
            let mut q = self.lock();
            let (shard, mut w) = loop {
                if let Some(claim) = q.try_claim() {
                    break claim;
                }
                if q.stop || q.claimed == q.total {
                    return;
                }
                q = self.wait(q);
            };
            drop(q);
            let res = catch_unwind(AssertUnwindSafe(|| {
                encode_shard(&shards[shard], &mut w, encode)
            }));
            let mut q = self.lock();
            let res = match res {
                Ok(res) => res,
                Err(payload) => {
                    // Stop the others, then let the scope's join re-raise.
                    q.stop = true;
                    self.changed.notify_all();
                    drop(q);
                    resume_unwind(payload);
                }
            };
            match res {
                Ok(keys) => q.ready.push((shard, w, keys)),
                Err(e) => {
                    q.failed.get_or_insert(e);
                    q.stop = true;
                }
            }
            self.changed.notify_all();
        }
    }

    /// The calling thread: emit images in shard order, and encode shards
    /// itself whenever the next image is not ready yet.
    fn drain<K: Hash + Eq + Clone, T: Clone + 'static, E: From<StateError>>(
        &self,
        shards: &[Arc<RwLock<Shard<K, T>>>],
        encode: &impl Fn(&mut StateWriter, &K, &SamplerState<T>),
        emit: &mut impl FnMut(&[u8], usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let _stop = StopOnDrop(self);
        let mut q = self.lock();
        while q.emitted < q.total {
            if let Some(e) = q.failed.take() {
                return Err(e.into());
            }
            let next = q.emitted;
            if let Some(at) = q.ready.iter().position(|r| r.0 == next) {
                let (_, mut w, keys) = q.ready.swap_remove(at);
                drop(q);
                emit(w.as_bytes(), keys)?;
                w.clear();
                q = self.lock();
                q.free.push(w);
                q.emitted += 1;
                self.changed.notify_all();
            } else if let Some((shard, mut w)) = q.try_claim() {
                drop(q);
                let res = encode_shard(&shards[shard], &mut w, encode);
                q = self.lock();
                q.ready.push((shard, w, res?));
            } else if q.stop {
                // A helper unwound; joining the scope re-raises its panic.
                return Ok(());
            } else {
                q = self.wait(q);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use swsample_core::spec::SamplerSpec;
    use swsample_core::state::{StateError, StateWriter};

    use crate::MultiStreamEngine;

    fn fleet(threads: usize) -> MultiStreamEngine<u64, u64> {
        let spec: SamplerSpec = "--window seq --n 32 --k 2 --seed 3".parse().expect("spec");
        let engine = MultiStreamEngine::with_threads(spec, 16, SamplerSpec::build::<u64>, threads)
            .expect("engine");
        let batch: Vec<(u64, u64, u64)> = (0..4000).map(|e| (e % 3000, e, e)).collect();
        engine.ingest_parallel(&batch);
        engine
    }

    #[test]
    fn images_arrive_in_shard_order_with_every_key_once() {
        for threads in [1, 2, 8] {
            let engine = fleet(threads);
            let mut seen = Vec::new();
            engine
                .encode_shards(
                    |w: &mut StateWriter, key: &u64, _state| w.put_u64(*key),
                    |image, keys| {
                        assert_eq!(image.len(), keys * 8);
                        seen.extend(
                            image
                                .chunks(8)
                                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
                        );
                        Ok::<(), StateError>(())
                    },
                )
                .expect("encode");
            assert_eq!(seen, engine.keys(), "threads {threads}");
        }
    }

    #[test]
    fn an_emit_error_stops_the_encode_and_is_returned() {
        let engine = fleet(4);
        let mut emitted = 0;
        let res = engine.encode_shards(
            |w: &mut StateWriter, key: &u64, _state| w.put_u64(*key),
            |_, _| {
                emitted += 1;
                if emitted == 3 {
                    Err(StateError::Corrupt("disk full".into()))
                } else {
                    Ok(())
                }
            },
        );
        assert!(matches!(res, Err(StateError::Corrupt(_))), "got {res:?}");
        assert_eq!(emitted, 3, "no image is emitted after the failing one");
    }

    #[test]
    fn a_panicking_encoder_unwinds_instead_of_hanging() {
        let engine = fleet(4);
        let victim = engine.keys()[2500];
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.encode_shards(
                |w: &mut StateWriter, key: &u64, _state| {
                    assert_ne!(*key, victim, "encoder failure");
                    w.put_u64(*key)
                },
                |_, _| Ok::<(), StateError>(()),
            )
        }));
        assert!(res.is_err(), "the encoder's panic must reach the caller");
    }
}
