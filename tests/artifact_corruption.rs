//! Adversarial inputs for the three artifact formats that sit beside
//! the trace container: RSCK checkpoints, RSSN session records and RSCE
//! result-cache entries. Every single-byte flip, every truncation and
//! every short extension of a well-formed artifact must come back as a
//! typed error or a clean decode, never a panic:
//!
//! * every strict prefix of an artifact is an error;
//! * every artifact with bytes appended is an error;
//! * every flipped byte of an RSCE entry is an error, because the
//!   entry carries a whole-entry checksum. RSCK and RSSN carry none
//!   over their whole body, so a flip there may decode.
//!
//! The battery is exhaustive rather than randomized, in the style of
//! `crates/trace/tests/container_corruption.rs`.

use resim::core::{Checkpoint, SimStats};
use resim::serve::{CacheEntryError, CachedCell};
use resim::session::SessionRecord;
use std::fmt::Debug;
use std::path::Path;

/// The checkpoint vector pinned by `crates/sample/tests/golden_checkpoint.rs`.
const GOLDEN_CHECKPOINT_HEX: &str = "5253434b010004000000000000000000\
                                     00000800000002020202020202020800\
                                     00001000000000020000000100000000\
                                     00000000000000000000000000000000\
                                     00000000000000000000200000000401\
                                     00000001000000000000000000000000\
                                     00000000000000000000000000000000\
                                     00000200000004010000000000000000\
                                     00000000000001040000000400000001\
                                     00000001080000000000000001000000\
                                     00000000000000000000000000000000\
                                     000000157c4a7fb979379e0104000000\
                                     41000000010000000100000000000000\
                                     00000000000000000000000000000000\
                                     0000000001000000157c4a7fb979379e";

fn golden_checkpoint() -> Vec<u8> {
    let hex: String = GOLDEN_CHECKPOINT_HEX
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("valid hex"))
        .collect()
}

fn corpus(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn cache_entry() -> Vec<u8> {
    CachedCell {
        fingerprint: 0x0123_4567_89AB_CDEF,
        workload: "gzip".to_string(),
        mode: "sampled-u1000d200k1f".to_string(),
        budget: 3_000,
        seed: 2009,
        bits_per_instr: 14.25,
        ipc_estimate: Some((1.875, 1.75, 2.0)),
        stats: SimStats {
            cycles: 1_500,
            committed: 3_000,
            ..SimStats::default()
        },
    }
    .to_bytes()
}

/// Runs the battery on `good` and returns, for each flipped artifact
/// that did not decode, its error. A panic anywhere propagates and
/// fails the test.
fn battery<T, E: Debug>(
    name: &str,
    good: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> Vec<Result<T, E>> {
    if let Err(e) = decode(good) {
        panic!("{name}: pristine artifact must decode, got {e:?}");
    }
    for cut in 0..good.len() {
        assert!(
            decode(&good[..cut]).is_err(),
            "{name}: prefix of {cut} bytes decoded"
        );
    }
    for extra in 1..=16 {
        let mut long = good.to_vec();
        long.resize(good.len() + extra, 0xA5);
        assert!(
            decode(&long).is_err(),
            "{name}: {extra} appended bytes decoded"
        );
    }
    let mut outcomes = Vec::new();
    for pos in 0..good.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.to_vec();
            bad[pos] ^= mask;
            outcomes.push(decode(&bad));
        }
    }
    outcomes
}

#[test]
fn checkpoint_corruption_is_typed() {
    battery("RSCK golden", &golden_checkpoint(), Checkpoint::from_bytes);
}

#[test]
fn session_corruption_is_typed() {
    for name in ["sampled-bzip2.rssn", "file-v2-vortex.rssn"] {
        battery(name, &corpus(name), SessionRecord::from_bytes);
    }
}

#[test]
fn every_cache_entry_flip_fails_the_checksum() {
    for (i, outcome) in battery("RSCE entry", &cache_entry(), CachedCell::from_bytes)
        .into_iter()
        .enumerate()
    {
        assert!(
            matches!(outcome, Err(CacheEntryError::ChecksumMismatch { .. })),
            "flip {i} (byte {}): {outcome:?}",
            i / 3
        );
    }
}
