//! Deterministic, seeded fault injection shared by the durable and
//! serving layers.
//!
//! A [`FaultSchedule`] is a set of rules, one per [`FaultSite`], parsed
//! from the `SWSAMPLE_FAULTS` environment variable (or a `--faults`
//! flag). Each rule fires on a deterministic subset of the operations
//! that pass through its site: whether the `n`th operation faults is a
//! pure function of `(seed, site, n)` — a splitmix64-style mix reduced
//! modulo the rule's rate denominator. The same seed therefore replays
//! the *exact same* connection drops, stalls, byte flips, and transient
//! disk errors on every run, which turns an exactly-once violation
//! under chaos into a reproducible test failure rather than a flake.
//!
//! The grammar is a `name=value` comma list:
//!
//! ```text
//! SWSAMPLE_FAULTS=seed=7,drop-rx=1/61,stall-rx=1/37:5ms,flip-tx=1/71,wal-append=1/23
//! ```
//!
//! - `seed=S` — the schedule seed (defaults to 0 when omitted).
//! - `<site>=1/N` — fire on roughly one in `N` operations at `<site>`,
//!   chosen deterministically by the seeded mix (not every Nth).
//! - `<site>=1/N:Pms` — stall sites only: stall for `P` milliseconds
//!   when the rule fires.
//!
//! Sites: `drop-rx` / `drop-tx` (sever the connection while receiving /
//! sending, the tx side mid-frame), `stall-rx` / `stall-tx` (sleep past
//! the peer's deadline), `flip-tx` (flip one byte of an outgoing frame
//! so the peer's CRC catches it), `wal-append` / `wal-fsync` (transient
//! disk errors the durable engine retries boundedly), `wal-crash` (a
//! simulated SIGKILL right after a WAL append: a strict prefix of the
//! log's unflushed bytes, chosen by [`FaultHit::aux`], reaches the
//! segment file, and the durable engine refuses every later write).
//!
//! Layers consult the schedule through a [`FaultInjector`], which owns
//! the per-site operation counters (atomics, so concurrent reader and
//! writer threads share one injector) and counts every injected fault
//! for the server's STATS surface. An empty schedule short-circuits:
//! the per-operation cost in production is one branch.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Name of the environment variable [`FaultSchedule::from_env`] reads.
pub const FAULTS_ENV: &str = "SWSAMPLE_FAULTS";

/// SplitMix64 finalizer over a seed, a per-site salt, and an operation
/// index. Public because the client's retry jitter derives from the
/// same mix, keeping *all* chaos-path randomness seed-deterministic.
pub fn mix64(seed: u64, salt: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A place in the stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Sever the connection after receiving a complete frame.
    DropRx,
    /// Sever the connection mid-way through sending a frame.
    DropTx,
    /// Stall before processing a received frame.
    StallRx,
    /// Stall before sending a frame.
    StallTx,
    /// Flip one byte of an outgoing frame (the peer's CRC rejects it).
    FlipTx,
    /// Fail a WAL append with a transient (retryable) I/O error.
    WalAppend,
    /// Fail a WAL fsync with a transient (retryable) I/O error.
    WalFsync,
    /// Kill the durable engine right after a WAL append, before the
    /// batch is applied, losing a suffix of the unflushed log bytes.
    WalCrash,
}

impl FaultSite {
    /// Every site, in canonical (grammar/display) order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::DropRx,
        FaultSite::DropTx,
        FaultSite::StallRx,
        FaultSite::StallTx,
        FaultSite::FlipTx,
        FaultSite::WalAppend,
        FaultSite::WalFsync,
        FaultSite::WalCrash,
    ];

    /// The site's token in the schedule grammar.
    pub fn token(self) -> &'static str {
        match self {
            FaultSite::DropRx => "drop-rx",
            FaultSite::DropTx => "drop-tx",
            FaultSite::StallRx => "stall-rx",
            FaultSite::StallTx => "stall-tx",
            FaultSite::FlipTx => "flip-tx",
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalFsync => "wal-fsync",
            FaultSite::WalCrash => "wal-crash",
        }
    }

    /// Inverse of [`token`](Self::token).
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.token() == token)
    }

    /// True for the sites whose rules accept a `:Pms` stall duration.
    pub fn takes_duration(self) -> bool {
        matches!(self, FaultSite::StallRx | FaultSite::StallTx)
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|s| *s == self).expect("in ALL")
    }

    /// Per-site salt so two sites with the same seed and rate fire on
    /// different operation indices.
    fn salt(self) -> u64 {
        mix64(0x5157_5341_4d50_4c45, 0, self.index() as u64)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One rule of a [`FaultSchedule`]: fire at `site` on roughly one in
/// `denom` operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Where the rule applies.
    pub site: FaultSite,
    /// Rate denominator: the rule fires when the seeded mix of the
    /// operation index is divisible by `denom` (so ~1/denom of ops).
    pub denom: u64,
    /// Stall duration in milliseconds (stall sites only; 0 elsewhere).
    pub stall_ms: u64,
}

/// A fired fault: which site, which operation, and the rule's stall
/// parameter, plus an auxiliary seeded word for choosing byte offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultHit {
    /// The site that fired.
    pub site: FaultSite,
    /// 0-based index of the operation that faulted at this site.
    pub op: u64,
    /// Stall duration in milliseconds (stall sites only; 0 elsewhere).
    pub stall_ms: u64,
    /// Deterministic auxiliary randomness, e.g. to pick which byte of a
    /// frame to flip or where to cut a dropped frame.
    pub aux: u64,
}

/// A seeded schedule of fault rules. The default schedule is empty and
/// injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed mixed into every fire/no-fire decision.
    pub seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultSchedule {
    /// True if no rule is configured (the production fast path).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule for `site`, if any.
    pub fn rule(&self, site: FaultSite) -> Option<&FaultRule> {
        self.rules.iter().find(|r| r.site == site)
    }

    /// Add or replace the rule for `rule.site`, keeping canonical order.
    pub fn set_rule(&mut self, rule: FaultRule) {
        self.rules.retain(|r| r.site != rule.site);
        self.rules.push(rule);
        self.rules.sort_by_key(|r| r.site);
    }

    /// Pure fire/no-fire decision for the `n`th (0-based) operation at
    /// `site`. Same `(seed, site, n)` — same answer, every run.
    pub fn fires(&self, site: FaultSite, n: u64) -> Option<FaultHit> {
        let rule = self.rule(site)?;
        let word = mix64(self.seed, site.salt(), n);
        word.is_multiple_of(rule.denom.max(1)).then(|| FaultHit {
            site,
            op: n,
            stall_ms: rule.stall_ms,
            aux: mix64(self.seed, site.salt() ^ 0xA0A0_A0A0_A0A0_A0A0, n),
        })
    }

    /// The smallest operation index at which `site` fires, scanning the
    /// first `limit` indices. Lets tests assert "this schedule *will*
    /// inject at least one drop within N operations" deterministically.
    pub fn first_hit(&self, site: FaultSite, limit: u64) -> Option<u64> {
        self.rule(site)?;
        (0..limit).find(|&n| self.fires(site, n).is_some())
    }

    /// Parse a schedule from the [`FAULTS_ENV`] environment variable.
    /// Unset or empty means no faults; a malformed value is an error
    /// (silently ignoring a typo'd schedule would make a chaos harness
    /// pass vacuously).
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(raw) => raw.parse(),
            Err(_) => Ok(FaultSchedule::default()),
        }
    }
}

impl fmt::Display for FaultSchedule {
    /// Canonical form: `seed=S` first (omitted only when the whole
    /// schedule is empty and the seed is 0), then rules in
    /// [`FaultSite::ALL`] order. `parse(display(s)) == s` always.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rules.is_empty() && self.seed == 0 {
            return Ok(());
        }
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(f, ",{}=1/{}", rule.site, rule.denom)?;
            if rule.site.takes_duration() {
                write!(f, ":{}ms", rule.stall_ms)?;
            }
        }
        Ok(())
    }
}

impl FromStr for FaultSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut schedule = FaultSchedule::default();
        let mut seed_seen = false;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault `{part}`: expected name=value"))?;
            let (name, value) = (name.trim(), value.trim());
            if name == "seed" {
                if seed_seen {
                    return Err("fault `seed` given twice".to_string());
                }
                seed_seen = true;
                schedule.seed = value.parse().map_err(|_| {
                    format!("fault `seed`: expected an unsigned integer, got `{value}`")
                })?;
                continue;
            }
            let site = FaultSite::from_token(name)
                .ok_or_else(|| format!("unknown fault site `{name}`"))?;
            if schedule.rule(site).is_some() {
                return Err(format!("fault `{name}` given twice"));
            }
            let (rate, stall) = match value.split_once(':') {
                Some((rate, stall)) => (rate.trim(), Some(stall.trim())),
                None => (value, None),
            };
            let denom = rate
                .strip_prefix("1/")
                .and_then(|d| d.trim().parse::<u64>().ok())
                .filter(|&d| d >= 1)
                .ok_or_else(|| {
                    format!("fault `{name}`: expected a rate `1/N` (N >= 1), got `{rate}`")
                })?;
            let stall_ms = match stall {
                Some(stall) => {
                    if !site.takes_duration() {
                        return Err(format!(
                            "fault `{name}`: `:{stall}` — stall durations only apply to stall-rx/stall-tx"
                        ));
                    }
                    stall
                        .strip_suffix("ms")
                        .and_then(|ms| ms.trim().parse::<u64>().ok())
                        .ok_or_else(|| {
                            format!("fault `{name}`: expected a stall duration `<millis>ms`, got `{stall}`")
                        })?
                }
                // Stall sites default to 10ms when the duration is omitted.
                None if site.takes_duration() => 10,
                None => 0,
            };
            schedule.rules.push(FaultRule {
                site,
                denom,
                stall_ms,
            });
        }
        schedule.rules.sort_by_key(|r| r.site);
        Ok(schedule)
    }
}

/// Shared, thread-safe front end over a [`FaultSchedule`]: owns the
/// per-site operation counters and tallies fired faults.
#[derive(Debug, Default)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    ops: [AtomicU64; FaultSite::ALL.len()],
    hits: [AtomicU64; FaultSite::ALL.len()],
}

impl FaultInjector {
    /// Wrap a schedule.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultInjector {
            schedule,
            ..FaultInjector::default()
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// True if the schedule injects nothing; callers on hot paths can
    /// skip whole fault blocks behind this one branch.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Count one operation at `site`; `Some(hit)` if that operation is
    /// scheduled to fault. An empty schedule never counts or fires.
    pub fn check(&self, site: FaultSite) -> Option<FaultHit> {
        self.schedule.rule(site)?;
        let n = self.ops[site.index()].fetch_add(1, Ordering::Relaxed);
        let hit = self.schedule.fires(site, n)?;
        self.hits[site.index()].fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Faults fired so far at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.hits[site.index()].load(Ordering::Relaxed)
    }

    /// Faults fired so far across every site.
    pub fn injected_total(&self) -> u64 {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips_canonically() {
        let s: FaultSchedule = " stall-rx=1/37:5ms, seed=7,drop-rx=1/61 "
            .parse()
            .expect("parse");
        assert_eq!(s.seed, 7);
        assert_eq!(
            s.rule(FaultSite::DropRx),
            Some(&FaultRule {
                site: FaultSite::DropRx,
                denom: 61,
                stall_ms: 0
            })
        );
        assert_eq!(s.rule(FaultSite::StallRx).unwrap().stall_ms, 5);
        // Canonical display: seed first, sites in ALL order.
        let shown = s.to_string();
        assert_eq!(shown, "seed=7,drop-rx=1/61,stall-rx=1/37:5ms");
        assert_eq!(shown.parse::<FaultSchedule>().unwrap(), s);
    }

    #[test]
    fn empty_and_default_stall() {
        assert!("".parse::<FaultSchedule>().unwrap().is_empty());
        assert_eq!(FaultSchedule::default().to_string(), "");
        let s: FaultSchedule = "stall-tx=1/3".parse().unwrap();
        assert_eq!(s.rule(FaultSite::StallTx).unwrap().stall_ms, 10);
    }

    #[test]
    fn rejects_malformed_naming_the_token() {
        for (input, must_mention) in [
            ("drop-rx", "drop-rx"),
            ("drop-rx=61", "drop-rx"),
            ("drop-rx=1/0", "drop-rx"),
            ("drop-rx=1/x", "drop-rx"),
            ("flip-tx=1/3:5ms", "flip-tx"),
            ("stall-rx=1/3:5s", "stall-rx"),
            ("seed=banana", "seed"),
            ("seed=1,seed=2", "seed"),
            ("drop-rx=1/2,drop-rx=1/3", "drop-rx"),
            ("drop-sideways=1/2", "drop-sideways"),
        ] {
            let err = input.parse::<FaultSchedule>().expect_err(input);
            assert!(err.contains(must_mention), "{input}: {err}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let s: FaultSchedule = "seed=42,drop-rx=1/16".parse().unwrap();
        let fires: Vec<u64> = (0..10_000)
            .filter(|&n| s.fires(FaultSite::DropRx, n).is_some())
            .collect();
        // Same seed, same schedule: same decisions.
        let again: Vec<u64> = (0..10_000)
            .filter(|&n| s.fires(FaultSite::DropRx, n).is_some())
            .collect();
        assert_eq!(fires, again);
        // ~1/16 of 10k ops, generously bounded.
        assert!(
            (300..1000).contains(&fires.len()),
            "expected roughly 625 hits, got {}",
            fires.len()
        );
        assert_eq!(
            s.first_hit(FaultSite::DropRx, 10_000),
            fires.first().copied()
        );
        // A different seed makes different decisions.
        let other: FaultSchedule = "seed=43,drop-rx=1/16".parse().unwrap();
        let other_fires: Vec<u64> = (0..10_000)
            .filter(|&n| other.fires(FaultSite::DropRx, n).is_some())
            .collect();
        assert_ne!(fires, other_fires);
        // Sites are decorrelated: same seed, different site, different ops.
        let two: FaultSchedule = "seed=42,drop-rx=1/16,drop-tx=1/16".parse().unwrap();
        let tx: Vec<u64> = (0..10_000)
            .filter(|&n| two.fires(FaultSite::DropTx, n).is_some())
            .collect();
        assert_ne!(fires, tx);
    }

    #[test]
    fn injector_counts_ops_and_hits() {
        let injector = FaultInjector::new("seed=1,wal-append=1/4".parse().expect("schedule"));
        let mut fired = 0u64;
        for _ in 0..1000 {
            if injector.check(FaultSite::WalAppend).is_some() {
                fired += 1;
            }
        }
        assert!(fired > 0);
        assert_eq!(injector.injected(FaultSite::WalAppend), fired);
        assert_eq!(injector.injected_total(), fired);
        // Unscheduled sites never fire and never count.
        assert!(injector.check(FaultSite::FlipTx).is_none());
        assert_eq!(injector.injected(FaultSite::FlipTx), 0);
    }

    #[test]
    fn empty_injector_is_inert() {
        let injector = FaultInjector::default();
        assert!(injector.is_empty());
        for site in FaultSite::ALL {
            assert!(injector.check(site).is_none());
        }
        assert_eq!(injector.injected_total(), 0);
    }
}
