//! The correctness check: an offline fleet fed the acked batches in
//! connection order must reproduce every answer the program gave and
//! every fleet it recovered, and no key may exceed the theorem cap.
//!
//! A query reply on a live server was computed between two of its key's
//! batches, but the client only knows bounds on which: at least the
//! batches acked before the query was sent (`lo`), at most the acked
//! batches sent before it (`hi`). Positions are per key: the server
//! applies a batch shard by shard, so a later query on another key may
//! still see that key one batch behind. Per-key state depends only on
//! the key's own batched events and the queries on it, so the check runs
//! key by key. Timestamp-window queries draw from the key's RNG, so
//! where a query landed changes the key's future, and two positions can
//! give the same answer yet different states: every placement
//! consistent with the answers so far is kept, and the check fails when
//! none is left.

use std::collections::{HashMap, HashSet};

use swsample_core::{ErasedWindowSampler, FleetBackend, Sample, SamplerState};
use swsample_stream::MultiStreamEngine;

use crate::gen::{Inputs, Workload, BATCH};

pub type WireSample = (u64, u64, u64);
pub type Answer = Option<Vec<WireSample>>;

#[derive(Debug, Clone)]
pub struct Query {
    pub key: u64,
    pub lo: usize,
    pub hi: usize,
    /// The program's answer; the reference must give the same bytes.
    pub answer: Answer,
}

pub fn wire(samples: Option<Vec<Sample<u64>>>) -> Answer {
    samples.map(|s| {
        s.iter()
            .map(|x| (*x.value(), x.index(), x.timestamp()))
            .collect()
    })
}

/// A fleet recovered from a WAL directory: it must equal the reference
/// over the first `prefix` applied batches, with only the queries
/// answered before the snapshot it started from (`snapshot_seq`
/// batches in) replayed, since the WAL records batches, not queries.
pub struct Recovered<'a> {
    pub fleet: &'a MultiStreamEngine<u64, u64>,
    pub prefix: usize,
    pub snapshot_seq: usize,
}

/// A single-key reference fleet on the boxed backend: independent of
/// the program's SoA kernels, and the backend whose per-key samplers can
/// be saved and restored.
fn reference_engine(w: &Workload) -> MultiStreamEngine<u64, u64> {
    MultiStreamEngine::with_backend(
        w.spec(),
        1,
        swsample_baselines::spec::build::<u64>,
        1,
        FleetBackend::Erased,
    )
    .expect("workload template builds")
}

/// A state's bytes, minus the SeqWr `accepts` diagnostic, which the SoA
/// backend documents it does not track (it saves 0).
fn state_bytes(mut s: SamplerState<u64>) -> Vec<u8> {
    if let SamplerState::SeqWr { accepts, .. } = &mut s {
        *accepts = 0;
    }
    s.encode_record()
}

fn saved(s: &dyn ErasedWindowSampler<u64>) -> SamplerState<u64> {
    s.save_state()
        .expect("template families have durable state")
}

fn fleet_states(engine: &MultiStreamEngine<u64, u64>) -> Result<HashMap<u64, Vec<u8>>, String> {
    Ok(engine
        .save_states()
        .map_err(|e| format!("save_states: {e}"))?
        .into_iter()
        .map(|(k, s)| (k, state_bytes(s)))
        .collect())
}

pub fn within_cap(w: &Workload, max_key_words: usize) -> Result<(), String> {
    let cap = w.key_word_cap();
    if max_key_words > cap {
        return Err(format!(
            "a key holds {max_key_words} words, over the theorem cap {cap}"
        ));
    }
    Ok(())
}

/// One key's events (global event indices, increasing) and the applied
/// position of each event's batch.
struct KeyEvents<'a> {
    key: u64,
    events: &'a [u32],
    pos_of_batch: &'a [u32],
}

impl KeyEvents<'_> {
    fn pos(&self, i: u32) -> usize {
        self.pos_of_batch[i as usize / BATCH] as usize
    }

    /// Index of the first event at a position `>= p`.
    fn first_at(&self, p: usize) -> usize {
        self.events.partition_point(|&i| self.pos(i) < p)
    }

    /// Positions `c` in `(from, upto]` right after one of the key's
    /// batches: the places where its state can differ.
    fn changes(&self, from: usize, upto: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for &i in &self.events[self.first_at(from)..] {
            let c = self.pos(i) + 1;
            if c > upto {
                break;
            }
            if out.last() != Some(&c) {
                out.push(c);
            }
        }
        out
    }
}

#[derive(Clone)]
struct Hyp {
    /// `None` while the key has no sampler yet.
    state: Option<SamplerState<u64>>,
    pos: usize,
    /// The state at the recovery snapshot, once `pos` has passed it.
    at_snapshot: Option<Option<SamplerState<u64>>>,
}

/// The key's sampler, seeded as the fleet seeds it: a single-key fleet
/// lends out its boxed sampler.
struct KeySampler<'a> {
    ev: KeyEvents<'a>,
    engine: MultiStreamEngine<u64, u64>,
    /// State after the key's first batch, and that batch's position.
    first: Option<(SamplerState<u64>, usize)>,
}

impl<'a> KeySampler<'a> {
    fn new(w: &Workload, ev: KeyEvents<'a>) -> KeySampler<'a> {
        let mut engine = reference_engine(w);
        let first = ev.events.first().map(|&i0| {
            let p0 = ev.pos(i0);
            let batch: Vec<(u64, u64, u64)> = ev
                .events
                .iter()
                .take_while(|&&i| ev.pos(i) == p0)
                .map(|&i| (ev.key, i as u64 / 64, i as u64))
                .collect();
            engine.ingest(&batch);
            let state = engine
                .with_sampler(&ev.key, |s| saved(s))
                .expect("materialized by its first batch");
            (state, p0)
        });
        KeySampler { ev, engine, first }
    }

    /// `f` on the key's sampler, restored to `state`.
    fn with<R>(
        &self,
        state: &SamplerState<u64>,
        f: impl FnOnce(&mut dyn ErasedWindowSampler<u64>) -> R,
    ) -> R {
        self.engine
            .with_sampler(&self.ev.key, |s| {
                s.restore_state(state.clone())
                    .expect("restoring a saved state");
                f(s)
            })
            .expect("materialized by its first batch")
    }

    /// Apply the key's batches at positions `h.pos..to`, capturing the
    /// state at position `snapshot` on the way.
    fn advance(&self, h: &Hyp, to: usize, snapshot: usize) -> Hyp {
        let hit = |from: usize, upto: usize| from <= snapshot && snapshot <= upto;
        let mut out = h.clone();
        let mut e = self.ev.first_at(out.pos);
        let events = self.ev.events;
        if out.state.is_none() && e < events.len() && self.ev.pos(events[e]) < to {
            let (state, p0) = self.first.clone().expect("the key has events");
            if out.at_snapshot.is_none() && hit(out.pos, p0) {
                out.at_snapshot = Some(None);
            }
            out.state = Some(state);
            out.pos = p0 + 1;
            e = self.ev.first_at(out.pos);
        }
        let end = e + events[e..].partition_point(|&i| self.ev.pos(i) < to);
        if e < end {
            let state = out.state.take().expect("materialized");
            let (mut snap, mut pos) = (out.at_snapshot.take(), out.pos);
            let after = self.with(&state, |s| {
                let mut vals = Vec::new();
                let mut k = e;
                while k < end {
                    let (p, now) = (self.ev.pos(events[k]), events[k] as u64 / 64);
                    if snap.is_none() && hit(pos, p) {
                        snap = Some(Some(saved(s)));
                    }
                    vals.clear();
                    while k < end && self.ev.pos(events[k]) == p && events[k] as u64 / 64 == now {
                        vals.push(events[k] as u64);
                        k += 1;
                    }
                    s.advance_and_insert(now, &vals);
                    pos = p + 1;
                }
                saved(s)
            });
            out.state = Some(after);
            out.at_snapshot = snap;
            out.pos = pos;
        }
        if out.at_snapshot.is_none() && hit(out.pos, to) {
            out.at_snapshot = Some(out.state.clone());
        }
        out.pos = to;
        out
    }

    /// `h` after answering a query, if the answer is `want`.
    fn query(&self, h: Hyp, want: &Answer) -> Option<Hyp> {
        match &h.state {
            None => want.is_none().then_some(h),
            Some(state) => {
                let (got, after) = self.with(state, |s| (wire(s.sample_k()), saved(s)));
                (got == *want).then_some(Hyp {
                    state: Some(after),
                    ..h
                })
            }
        }
    }

    fn memory_words(&self, h: &Hyp) -> usize {
        h.state
            .as_ref()
            .map_or(0, |state| self.with(state, |s| s.memory_words()))
    }
}

/// Most placements kept alive for one key at once.
const MAX_PLACEMENTS: usize = 256;

/// Check every answer and the recovered fleet, if any. Returns the
/// position each query was placed at (its `lo` where several fit).
pub fn check(
    w: &Workload,
    inputs: &Inputs,
    applied: &[u64],
    queries: &[Query],
    recovered: Option<Recovered>,
) -> Result<Vec<usize>, String> {
    let batches = applied.last().map_or(0, |&b| b as usize + 1);
    let mut pos_of_batch = vec![u32::MAX; batches];
    let mut events: Vec<Vec<u32>> = vec![Vec::new(); w.keys as usize];
    for (p, &b) in applied.iter().enumerate() {
        pos_of_batch[b as usize] = p as u32;
        for (key, _, i) in inputs.batch(b) {
            events[key as usize].push(u32::try_from(i).expect("event index fits u32"));
        }
    }
    let mut by_key: Vec<Vec<&Query>> = vec![Vec::new(); w.keys as usize];
    for q in queries {
        by_key[q.key as usize].push(q);
    }
    let (snapshot, prefix) = recovered
        .as_ref()
        .map_or((usize::MAX, applied.len()), |r| (r.snapshot_seq, r.prefix));
    let mut recovered_states = match &recovered {
        Some(r) => fleet_states(r.fleet)?,
        None => HashMap::new(),
    };
    let mut max_words = 0;
    for key in 0..w.keys {
        let key_queries = &by_key[key as usize];
        if events[key as usize].is_empty() && key_queries.is_empty() {
            continue;
        }
        let ev = KeyEvents {
            key,
            events: &events[key as usize],
            pos_of_batch: &pos_of_batch,
        };
        let sampler = KeySampler::new(w, ev);
        let mut placements = vec![Hyp {
            state: None,
            pos: 0,
            at_snapshot: None,
        }];
        for (n, q) in key_queries.iter().enumerate() {
            let mut next = Vec::new();
            for h in &placements {
                let from = q.lo.max(h.pos);
                let mut candidates = vec![from];
                candidates.extend(sampler.ev.changes(from, q.hi));
                for c in candidates {
                    let moved = sampler.advance(h, c, snapshot);
                    next.extend(sampler.query(moved, &q.answer));
                }
            }
            if next.is_empty() {
                return Err(format!(
                    "query {n} on key {key} (bounds {}..={}) matches no placement consistent with the earlier answers",
                    q.lo, q.hi
                ));
            }
            dedup(&mut next);
            if next.len() > MAX_PLACEMENTS {
                return Err(format!(
                    "key {key}: over {MAX_PLACEMENTS} placements stay consistent"
                ));
            }
            placements = next;
        }
        let finals: Vec<Hyp> = placements
            .iter()
            .map(|h| sampler.advance(h, applied.len(), snapshot))
            .collect();
        for h in &finals {
            max_words = max_words.max(sampler.memory_words(h));
        }
        if recovered.is_some() {
            let got = recovered_states.remove(&key);
            let matches = finals.iter().any(|h| {
                let start = Hyp {
                    state: h
                        .at_snapshot
                        .clone()
                        .expect("every placement passed the snapshot"),
                    pos: snapshot,
                    at_snapshot: h.at_snapshot.clone(),
                };
                sampler
                    .advance(&start, prefix, snapshot)
                    .state
                    .map(state_bytes)
                    == got
            });
            if !matches {
                return Err(format!(
                    "key {key}: the fleet recovered from {prefix} WAL records differs from the reference"
                ));
            }
        }
    }
    if let Some(key) = recovered_states.keys().next() {
        return Err(format!(
            "the recovered fleet holds key {key}, which no acked batch carried"
        ));
    }
    within_cap(w, max_words)?;
    Ok(queries.iter().map(|q| q.lo).collect())
}

fn dedup(placements: &mut Vec<Hyp>) {
    let mut seen = HashSet::new();
    placements.retain(|h| {
        seen.insert((
            h.pos,
            h.state.clone().map(state_bytes),
            h.at_snapshot.clone().map(|s| s.map(state_bytes)),
        ))
    });
}

/// Sorted distinct keys of the applied batches.
pub fn touched_keys(w: &Workload, inputs: &Inputs, applied: &[u64]) -> Vec<u64> {
    let mut seen = vec![false; w.keys as usize];
    for &b in applied {
        for (key, _, _) in inputs.batch(b) {
            seen[key as usize] = true;
        }
    }
    (0..w.keys).filter(|&k| seen[k as usize]).collect()
}
