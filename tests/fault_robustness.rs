//! Property-based tests on the seeded fault-schedule grammar
//! (`swsample::core::fault`), the one fault-injection layer for every
//! site from `drop-rx` to `wal-crash`: arbitrary input never panics the
//! parser, every rejection names the offending token, and valid
//! schedules round-trip through their canonical rendering byte-stably.

use proptest::collection::vec;
use proptest::prelude::*;
use swsample::core::fault::{FaultSchedule, FaultSite};

/// Assemble a syntactically valid schedule string from raw integers:
/// `mask` selects which of the 8 sites get a rule, `denoms`/`stalls`
/// supply the parameters. Stall durations only on stall sites, per the
/// grammar.
fn build_valid_spec(seed: u64, mask: u64, denoms: &[u64], stalls: &[u64]) -> String {
    let mut parts = vec![format!("seed={seed}")];
    for (i, site) in FaultSite::ALL.iter().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        let denom = denoms[i].max(1);
        if site.takes_duration() {
            parts.push(format!("{}=1/{denom}:{}ms", site.token(), stalls[i].max(1)));
        } else {
            parts.push(format!("{}=1/{denom}", site.token()));
        }
    }
    parts.join(",")
}

/// Decode a char-index vector into a string over a fixed alphabet.
fn decode(alphabet: &str, picks: &[usize]) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    picks.iter().map(|&p| chars[p % chars.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: the parser returns `Err`, never panics.
    #[test]
    fn arbitrary_input_never_panics(bytes in vec(any::<u8>(), 0..120)) {
        let s = String::from_utf8_lossy(&bytes);
        let _ = s.parse::<FaultSchedule>();
    }

    /// Structured near-misses: `name=value` shapes drawn from the
    /// grammar's own alphabet parse or reject cleanly, and every
    /// rejection message names the offending token so a typo'd chaos
    /// run fails loudly and debuggably.
    #[test]
    fn rejections_name_the_offending_token(
        name_picks in vec(0usize..27, 1..16),
        value_picks in vec(0usize..14, 0..12),
    ) {
        let name = decode("abcdefghijklmnopqrstuvwxyz-", &name_picks);
        let value = decode("0123456789/:ms", &value_picks);
        let input = format!("{name}={value}");
        if let Err(msg) = input.parse::<FaultSchedule>() {
            prop_assert!(
                msg.contains(&name) || msg.contains(&value),
                "error `{}` names neither `{}` nor `{}`", msg, name, value
            );
        }
    }

    /// Valid schedules round-trip: parse → Display → parse is identity,
    /// and the canonical rendering is a fixed point (stable under
    /// re-canonicalization), so a logged schedule replays exactly.
    #[test]
    fn valid_schedules_round_trip_canonically(
        seed in any::<u64>(),
        mask in 0u64..256,
        denoms in vec(1u64..5000, 8..9),
        stalls in vec(1u64..500, 8..9),
    ) {
        let spec = build_valid_spec(seed, mask, &denoms, &stalls);
        let parsed: FaultSchedule = spec.parse()
            .unwrap_or_else(|e| panic!("valid spec `{spec}` rejected: {e}"));
        let canonical = parsed.to_string();
        let reparsed: FaultSchedule = canonical.parse()
            .unwrap_or_else(|e| panic!("canonical `{canonical}` rejected: {e}"));
        prop_assert_eq!(&parsed, &reparsed);
        prop_assert_eq!(canonical.clone(), reparsed.to_string(),
            "canonical form must be a fixed point");
    }

    /// Decisions are a pure function of (seed, site, op index): two
    /// schedules parsed from the same spec agree hit-for-hit, and the
    /// empty schedule never fires.
    #[test]
    fn decisions_replay_deterministically(
        seed in any::<u64>(),
        mask in 0u64..256,
        denoms in vec(1u64..200, 8..9),
        stalls in vec(1u64..500, 8..9),
        ops in 1u64..200,
    ) {
        let spec = build_valid_spec(seed, mask, &denoms, &stalls);
        let a: FaultSchedule = spec.parse().unwrap();
        let b: FaultSchedule = spec.parse().unwrap();
        for site in FaultSite::ALL {
            for n in 0..ops {
                prop_assert_eq!(a.fires(site, n).is_some(), b.fires(site, n).is_some());
            }
        }
        let empty = FaultSchedule::default();
        for site in FaultSite::ALL {
            prop_assert!(empty.fires(site, ops).is_none());
        }
    }
}
