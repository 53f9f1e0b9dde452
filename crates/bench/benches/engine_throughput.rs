//! End-to-end engine throughput in **committed records per second** over
//! full runs, for every trace frontend the engine can consume:
//!
//! * `slice` — pre-decoded records in memory (`Trace::source`), the
//!   cheapest possible supply;
//! * `encoded` — the Table-3 bit-packed stream decoded on the fly
//!   (`EncodedTrace::source`);
//! * `file` — the on-disk container replayed through a buffered reader
//!   (`FileSource`), the bulk-simulation deployment mode.
//!
//! Each frontend runs over **all five SPEC workload profiles** so that
//! data-layout wins are not tuned to one branch/memory mix — gzip's
//! streaming loops, bzip2's high ILP, parser's branchy pointer chasing,
//! vortex's call-heavy working set and vpr's mispredict-prone inner
//! loops stress different engine paths. On top, `slice-2n3/gzip` and
//! `slice-n4/gzip` run the paper's simple (2N+3) and improved (N+4)
//! pipeline organizations next to the default optimized N+3, for the
//! per-organization table in `EXPERIMENTS.md` ("Engine throughput").
//!
//! Set `RESIM_BENCH_QUICK=1` to shrink the budget and sample two
//! workloads (gzip, parser) for CI smoke runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use resim_core::{Engine, EngineConfig, PipelineDescription};
use resim_trace::{save_trace_file, EncodedTrace, FileSource, Trace, TraceFileHeader};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::path::PathBuf;

fn budget() -> usize {
    if quick() {
        20_000
    } else {
        200_000
    }
}

fn quick() -> bool {
    std::env::var_os("RESIM_BENCH_QUICK").is_some()
}

fn workloads() -> Vec<SpecBenchmark> {
    if quick() {
        vec![SpecBenchmark::Gzip, SpecBenchmark::Parser]
    } else {
        SpecBenchmark::ALL.to_vec()
    }
}

/// One workload's pre-generated trace in all three supply forms.
struct Prepared {
    name: &'static str,
    trace: Trace,
    encoded: EncodedTrace,
    path: PathBuf,
}

fn prepare(bench: SpecBenchmark, n: usize) -> Prepared {
    let trace = generate_trace(Workload::spec(bench, 2009), n, &TraceGenConfig::paper());
    let encoded = trace.encode();
    let header = TraceFileHeader::for_trace(&encoded, bench.name(), 2009, 0)
        .with_correct_records(trace.correct_path_len() as u64);
    let path = std::env::temp_dir().join(format!(
        "resim-engine-throughput-{}-{}.trace",
        bench.name(),
        std::process::id()
    ));
    save_trace_file(&path, &header, &encoded).expect("write bench trace");
    Prepared { name: bench.name(), trace, encoded, path }
}

fn make_engine(config: &EngineConfig) -> Engine {
    Engine::new(config.clone()).expect("valid config")
}

fn engine_throughput(c: &mut Criterion) {
    let n = budget();
    let prepared: Vec<Prepared> = workloads().into_iter().map(|b| prepare(b, n)).collect();

    let config = EngineConfig::paper_4wide();
    let mut group = c.benchmark_group("engine_throughput");
    // Committed records per iteration: the throughput line is
    // committed-records/sec directly.
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);

    for p in &prepared {
        group.bench_function(&format!("slice/{}", p.name), |b| {
            b.iter_batched(
                || make_engine(&config),
                |mut engine| engine.run(p.trace.source()),
                BatchSize::PerIteration,
            )
        });
        group.bench_function(&format!("encoded/{}", p.name), |b| {
            b.iter_batched(
                || make_engine(&config),
                |mut engine| engine.run(p.encoded.source()),
                BatchSize::PerIteration,
            )
        });
        group.bench_function(&format!("file/{}", p.name), |b| {
            b.iter_batched(
                || {
                    (
                        make_engine(&config),
                        FileSource::open(&p.path).expect("bench trace readable"),
                    )
                },
                |(mut engine, src)| {
                    let stats = engine.run(src);
                    assert!(stats.committed > 0, "file-backed run must make progress");
                    stats
                },
                BatchSize::PerIteration,
            )
        });
    }

    // Organization axis (slice, gzip): the paper's simple 2N+3 and
    // improved N+4 grids next to the default optimized N+3, for the
    // per-organization table in EXPERIMENTS.md.
    let gzip = &prepared[0];
    for (org, desc) in [
        ("2n3", PipelineDescription::simple()),
        ("n4", PipelineDescription::improved()),
    ] {
        let org_config = EngineConfig { pipeline: desc, ..EngineConfig::paper_4wide() };
        group.bench_function(&format!("slice-{org}/gzip"), |b| {
            b.iter_batched(
                || make_engine(&org_config),
                |mut engine| engine.run(gzip.trace.source()),
                BatchSize::PerIteration,
            )
        });
    }

    group.finish();
    for p in &prepared {
        let _ = std::fs::remove_file(&p.path);
    }
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
