//! Measures the observability overhead: committed records per second
//! over in-memory records with the default
//! [`NullRecorder`](resim_core::NullRecorder) against the same run
//! with a collecting [`MetricsRecorder`] attached.
//!
//! The `resim-obs` contract has two halves and this binary checks
//! both:
//!
//! * **zero-overhead when off** — the `NullRecorder` path is
//!   monomorphized away (`R::ENABLED == false`), so its throughput is
//!   the plain `Engine::new` throughput, which simbench reports as
//!   `core.slice_mips` and compares against the parent commit (not
//!   checked here);
//! * **observation only when on** — with the recorder attached the
//!   `SimStats` must stay bit-identical, which this binary asserts on
//!   every run before reporting the throughput ratio.
//!
//! Usage: `obs_overhead [--budget N]` (default 20 000 records, best of
//! 5). The numbers land in EXPERIMENTS.md's "observability overhead"
//! table.

use resim_core::{Engine, MetricsRecorder, SimStats};
use resim_trace::Trace;
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::time::Instant;

const RUNS: usize = 5;

fn best_of<F: FnMut() -> SimStats>(mut run: F) -> (f64, SimStats) {
    let mut best = 0.0f64;
    let mut stats = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let s = run();
        let secs = start.elapsed().as_secs_f64();
        assert!(s.committed > 0, "bench run must make progress");
        best = best.max(s.committed as f64 / secs);
        stats = Some(s);
    }
    (best, stats.unwrap())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget: usize = args
        .iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--budget takes a number"))
        .unwrap_or(20_000);

    let config = resim_core::EngineConfig::paper_4wide();
    let trace: Trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 2009),
        budget,
        &TraceGenConfig::paper(),
    );

    println!("obs_overhead: gzip seed 2009, {budget} records, best of {RUNS}");

    let (null_rate, null_stats) = best_of(|| {
        Engine::new(config.clone())
            .expect("paper config is valid")
            .run(trace.source())
    });
    let (metrics_rate, metrics_stats) = best_of(|| {
        Engine::with_recorder(config.clone(), MetricsRecorder::new())
            .expect("paper config is valid")
            .run(trace.source())
    });

    // The recorder observes; it must never feed back into the run.
    assert_eq!(
        null_stats, metrics_stats,
        "MetricsRecorder changed the simulated statistics"
    );

    let overhead = 100.0 * (null_rate / metrics_rate - 1.0);
    println!("  null     {null_rate:10.0} records/s");
    println!("  metrics  {metrics_rate:10.0} records/s");
    println!("  overhead {overhead:9.1}%  (stats bit-identical: yes)");
    println!(
        "{{\"schema\":\"resim.bench/1\",\"bench\":\"obs_overhead\",\"budget\":{budget},\
         \"runs\":{RUNS},\"null\":{null_rate:.0},\"metrics\":{metrics_rate:.0},\
         \"overhead_pct\":{overhead:.1},\"identical\":true}}"
    );
}
