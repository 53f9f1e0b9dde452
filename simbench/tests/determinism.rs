//! The deterministic-count invariant: simulated-time counts, trace-cache
//! hit/miss counts and serve simulated/served counts repeat exactly for
//! one seed, and change with the seed — so the seed reaches the program.

use resim_simbench::span::Tracer;
use resim_simbench::{replay, serve, sweep, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn counts(outcome: Outcome) -> BTreeMap<&'static str, u64> {
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.reasons);
    assert!(!outcome.counts.is_empty());
    outcome.counts
}

fn assert_invariant(run: impl Fn(u64) -> Outcome, keys: &[&str]) {
    let a = counts(run(1));
    let b = counts(run(1));
    let c = counts(run(2));
    assert_eq!(a, b, "same seed, same counts");
    for key in keys {
        assert!(a.contains_key(key), "missing count {key}");
        assert_ne!(a[key], c[key], "{key} does not follow the seed");
    }
}

#[test]
fn replay_counts_repeat_per_seed_and_follow_it() {
    let dir = scratch("determinism-replay");
    let plan = replay::Plan {
        budget: 5_000,
        passes: 2,
        setup_every: 1,
    };
    assert_invariant(
        |seed| replay::run(&dir, seed, plan, &Tracer::new(false)).unwrap(),
        &[
            "core.cycles",
            "bpred.dir_mispredicts",
            "mem.dl1_misses",
            "trace.records",
        ],
    );
}

#[test]
fn sweep_counts_repeat_per_seed_and_follow_it() {
    let plan = sweep::Plan {
        budget: 10_000,
        sweeps: 1,
        resolves: 1,
    };
    let outcome = sweep::run(5, plan, &Tracer::new(false)).unwrap();
    assert_eq!(
        outcome.counts["sweep.cold_trace_misses"], 10,
        "10 distinct traces"
    );
    assert_eq!(
        outcome.counts["sweep.warm_trace_misses"], 0,
        "warm sweeps generate nothing"
    );
    assert_invariant(
        |seed| sweep::run(seed, plan, &Tracer::new(false)).unwrap(),
        &["sweep.cycles", "sweep.committed"],
    );
}

#[test]
fn serve_counts_repeat_per_seed_and_follow_it() {
    let dir = scratch("determinism-serve");
    let exe = Path::new(env!("CARGO_BIN_EXE_simbench"));
    let plan = serve::Plan {
        budget: 5_000,
        new_grids: 3,
        overlaps: 2,
        repeats: 6,
        setups: 1,
    };
    let run = |seed| serve::run(exe, &dir, seed, plan, &Tracer::new(false)).unwrap();
    let a = counts(run(1));
    assert_eq!(a, counts(run(1)), "same seed, same counts");
    // The simulated-cell count is fixed by the plan's shape; the served
    // results follow the seed.
    assert_eq!(a["serve.cells_simulated"], 3 * 6 + 2 * 8);
    assert_ne!(a["serve.csv_fnv"], counts(run(2))["serve.csv_fnv"]);
}
