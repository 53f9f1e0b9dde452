//! The stable-seeding contract: the same `(workload, seed, config)` cell
//! produces byte-identical `SimStats` whether it runs serially by hand or
//! through `resim-sweep` at any thread count.

use resim_core::{Engine, EngineConfig, SimStats};
use resim_sweep::{Scenario, SweepRunner, WorkloadPoint};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::SpecBenchmark;

const BUDGET: usize = 10_000;

/// An 8-cell grid: 2 configs × 2 workloads × 1 budget × 2 seeds.
fn eight_cell_scenario() -> Scenario {
    Scenario::new()
        .config("4wide", EngineConfig::paper_4wide(), TraceGenConfig::paper())
        .config(
            "rb32",
            EngineConfig {
                rb_size: 32,
                ..EngineConfig::paper_4wide()
            },
            TraceGenConfig::paper(),
        )
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .workload(WorkloadPoint::spec(SpecBenchmark::Vpr))
        .budgets([BUDGET])
        .seeds([2009, 2010])
}

/// The hand-rolled serial reference: no runner, no cache, no threads —
/// exactly what every `resim-bench` binary did before the sweep crate.
fn serial_reference(scenario: &Scenario) -> Vec<SimStats> {
    let cells = scenario.cells();
    cells
        .iter()
        .map(|cell| {
            let config = &scenario.configs()[cell.config];
            let workload = &scenario.workloads()[cell.workload];
            let trace = generate_trace(
                workload.instantiate(cell.seed),
                cell.budget,
                &config.tracegen,
            );
            Engine::new(config.engine.clone())
                .expect("valid config")
                .run(trace.source())
        })
        .collect()
}

#[test]
fn sweep_matches_serial_reference_at_1_2_and_8_threads() {
    let scenario = eight_cell_scenario();
    let reference = serial_reference(&scenario);
    assert_eq!(reference.len(), 8);

    for threads in [1usize, 2, 8] {
        // A fresh runner (fresh cache) per thread count: nothing shared.
        let report = SweepRunner::new(threads)
            .run(&scenario)
            .expect("scenario is valid");
        assert_eq!(
            report.all_stats(),
            reference,
            "{threads}-thread sweep diverged from the serial reference"
        );
    }
}

#[test]
fn repeated_parallel_sweeps_are_bit_identical() {
    let scenario = eight_cell_scenario();
    let a = SweepRunner::new(4).run(&scenario).expect("valid");
    let b = SweepRunner::new(4).run(&scenario).expect("valid");
    assert_eq!(a.all_stats(), b.all_stats());
    // Cell metadata is stable too: order, names, budgets, seeds.
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.config, y.config);
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.budget, y.budget);
        assert_eq!(x.seed, y.seed);
    }
}

#[test]
fn shared_cache_does_not_perturb_results() {
    // Running two sweeps on one runner (warm cache) must match a cold
    // runner cell for cell.
    let scenario = eight_cell_scenario();
    let runner = SweepRunner::new(2);
    let cold = runner.run(&scenario).expect("valid");
    let warm = runner.run(&scenario).expect("valid");
    assert_eq!(cold.all_stats(), warm.all_stats());
    assert_eq!(cold.trace_cache_misses, 4, "4 unique (workload, seed) traces");
    assert_eq!(warm.trace_cache_misses, 0, "warm sweep generates nothing");
}

/// The determinism contract extends to the sampled execution mode: a grid
/// mixing full and sampled cells produces bit-identical per-cell stats —
/// and identical per-window confidence data — at any thread count.
#[test]
fn sampled_sweeps_are_thread_count_invariant() {
    use resim_sweep::CellMode;
    let scenario = eight_cell_scenario()
        .mode(CellMode::Full)
        .mode(CellMode::Sampled(
            resim_sample::SamplePlan::systematic(2_000, 500, 2),
        ));
    let reference = SweepRunner::new(1).run(&scenario).expect("valid");
    assert_eq!(reference.cells.len(), 16, "mode axis doubles the grid");

    for threads in [2usize, 8] {
        let report = SweepRunner::new(threads).run(&scenario).expect("valid");
        assert_eq!(
            report.all_stats(),
            reference.all_stats(),
            "{threads}-thread sampled sweep diverged"
        );
        for (a, b) in report.cells.iter().zip(&reference.cells) {
            assert_eq!(a.mode, b.mode);
            assert_eq!(a.sampled, b.sampled, "window data must be identical");
        }
    }

    // Sampled cells share the full cells' traces: still 4 unique keys.
    assert_eq!(reference.trace_cache_misses, 4);

    // And each sampled estimate lands near its full counterpart.
    for full in reference.cells.iter().filter(|c| c.mode == "full") {
        let sampled = reference
            .cells
            .iter()
            .find(|c| {
                c.mode != "full"
                    && c.config == full.config
                    && c.workload == full.workload
                    && c.seed == full.seed
            })
            .expect("every full cell has a sampled twin");
        let s = sampled.sampled.as_ref().expect("sampled cell carries windows");
        assert!(
            s.relative_error(full.stats.ipc()) < 0.15,
            "sampled {} vs full {} ({} / {} / seed {})",
            s.mean_ipc(),
            full.stats.ipc(),
            full.config,
            full.workload,
            full.seed
        );
    }
}

#[test]
fn subset_runs_match_the_full_run_cell_for_cell() {
    let scenario = eight_cell_scenario();
    let full = SweepRunner::new(2).run(&scenario).expect("valid scenario");

    // A scattered subset, out of dispatch order and at several thread
    // counts: each cell must be bit-identical to the full run's, and the
    // report must follow the requested order.
    let indices = [5usize, 0, 3];
    for threads in [1usize, 4] {
        let subset = SweepRunner::new(threads)
            .run_subset(&scenario, &indices, |_| {})
            .expect("valid subset");
        assert_eq!(subset.cells.len(), indices.len());
        for (slot, &index) in indices.iter().enumerate() {
            assert_eq!(
                subset.cells[slot].stats.digest(),
                full.cells[index].stats.digest(),
                "cell {index} diverges at {threads} threads"
            );
            assert_eq!(subset.cells[slot].config, full.cells[index].config);
            assert_eq!(subset.cells[slot].workload, full.cells[index].workload);
        }
    }

    // A subset generates only the traces it needs.
    let runner = SweepRunner::new(1);
    let report = runner
        .run_subset(&scenario, &[0, 1], |_| {})
        .expect("valid subset");
    assert_eq!(report.trace_cache_misses, 1, "cells 0 and 1 share one trace");

    // An index outside the grid is a typed error, not a panic.
    let err = SweepRunner::new(1)
        .run_subset(&scenario, &[8], |_| {})
        .unwrap_err();
    assert!(err.to_string().contains("outside the grid"), "{err}");
}

#[test]
fn cell_fingerprints_key_on_content_not_names() {
    let scenario = eight_cell_scenario();
    let cells = scenario.cells();
    // All 8 cells are distinct design points: distinct fingerprints.
    let mut fps: Vec<u64> = cells.iter().map(|c| scenario.cell_fingerprint(c)).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), 8);

    // Renaming a config does not move the fingerprint; changing the
    // engine does.
    let renamed = Scenario::new()
        .config("other-name", EngineConfig::paper_4wide(), TraceGenConfig::paper())
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .budgets([BUDGET])
        .seeds([2009]);
    assert_eq!(
        renamed.cell_fingerprint(&renamed.cells()[0]),
        scenario.cell_fingerprint(&cells[0]),
    );
}
