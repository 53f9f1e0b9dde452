//! The output checks bite: a damaged container, a wrong expected digest,
//! a wrong reference CSV and a served CSV that differs from the local
//! reference are each counted as a failed operation.

use resim_simbench::serve::{self, Submission};
use resim_simbench::span::Tracer;
use resim_simbench::{replay, sweep, Tally};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn replay_counts_a_flipped_container_byte_and_a_wrong_digest_as_failed() {
    let dir = scratch("checks-replay");
    let off = Tracer::new(false);
    let config = replay::machine();
    let prepared = replay::generate(7, 5_000, &off).unwrap();
    let mut containers = replay::write_containers(&dir, 7, &prepared, &off).unwrap();
    replay::seal(&mut containers).unwrap();
    let reference = replay::run_engine(&config, prepared[0].trace.source()).unwrap();

    let mut tally = Tally::default();
    for c in containers.iter().filter(|c| c.trace == 0) {
        // Intact container, right digest: passes.
        assert!(tally
            .record(replay::replay_file(&config, c, reference.digest(), &off))
            .is_some());
        // Intact container, wrong expected digest: fails.
        assert!(tally
            .record(replay::replay_file(
                &config,
                c,
                reference.digest() ^ 1,
                &off
            ))
            .is_none());
        // One flipped byte anywhere in the container fails, including
        // flips that leave the simulated statistics unchanged.
        let intact = std::fs::read(&c.path).unwrap();
        for at in [intact.len() / 2, intact.len() - intact.len() / 3] {
            let mut bytes = intact.clone();
            bytes[at] ^= 0x5A;
            std::fs::write(&c.path, &bytes).unwrap();
            assert!(tally
                .record(replay::replay_file(&config, c, reference.digest(), &off))
                .is_none());
        }
        std::fs::write(&c.path, &intact).unwrap();
    }
    assert_eq!(tally.attempted, 8);
    assert_eq!(tally.failed, 6, "{:?}", tally.reasons);
    // The warm path checks its digest too.
    assert!(
        replay::replay_slice(&config, &prepared[0].trace, reference.digest() ^ 1, &off).is_err()
    );
}

#[test]
fn sweep_counts_a_wrong_reference_csv_as_failed() {
    let off = Tracer::new(false);
    let text = sweep::scenario_text(3, 10_000);
    let reference = sweep::reference_csv(&text, 1).unwrap();
    let mut tally = Tally::default();
    let (runner, ..) = tally
        .record(sweep::cold_sweep(&text, &reference, &off))
        .unwrap();
    assert!(tally
        .record(sweep::warm_sweep(&runner, &text, &reference, &off))
        .is_some());
    let wrong = reference.replacen(",full,", ",sampled,", 1);
    assert!(tally
        .record(sweep::cold_sweep(&text, &wrong, &off))
        .is_none());
    assert!(tally
        .record(sweep::warm_sweep(&runner, &text, &wrong, &off))
        .is_none());
    assert_eq!((tally.attempted, tally.failed), (4, 2));
}

#[test]
fn serve_counts_a_csv_or_simulated_count_mismatch_as_failed() {
    let dir = scratch("checks-serve");
    let off = Tracer::new(false);
    let plan = serve::Plan {
        budget: 5_000,
        new_grids: 1,
        overlaps: 0,
        repeats: 1,
        setups: 1,
    };
    let subs = serve::sequence(11, plan);
    assert_eq!(subs.len(), 2);
    let refs = serve::references(&subs).unwrap();
    let exe = Path::new(env!("CARGO_BIN_EXE_simbench"));
    let (server, mut client, _) = serve::start_timed(exe, &dir).unwrap();

    let mut tally = Tally::default();
    let first = &subs[0];
    // A wrong reference CSV fails (the cells are simulated regardless).
    assert!(tally
        .record(serve::submit(&mut client, first, "config,workload\n", &off))
        .is_none());
    // The repeat is now a memory hit: right CSV and count pass…
    assert!(tally
        .record(serve::submit(
            &mut client,
            &subs[1],
            &refs[&first.text],
            &off
        ))
        .is_some());
    // …and a wrong expectation of the simulated count fails.
    let wrong_count = Submission {
        simulated: 3,
        ..subs[1].clone()
    };
    assert!(tally
        .record(serve::submit(
            &mut client,
            &wrong_count,
            &refs[&first.text],
            &off
        ))
        .is_none());
    server.stop(&mut client).unwrap();
    assert_eq!(
        (tally.attempted, tally.failed),
        (3, 2),
        "{:?}",
        tally.reasons
    );
}
