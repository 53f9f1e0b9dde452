//! CI bench-regression guard for the `engine_throughput` benchmark.
//!
//! Re-measures committed-records-per-second for the three trace
//! frontends (`slice`, `encoded`, `file`) at the quick-mode budget and
//! compares every row against the checked-in `BENCH_BASELINE.json` at
//! the repository root. A row that drops below
//! `baseline * (1 - allowed_drop)` fails the run (exit 1), which is how
//! CI catches an accidental O(n)-per-record regression in the decode or
//! dispatch path without a full criterion run.
//!
//! Usage:
//!
//! ```text
//! bench_guard            # measure and compare against the baseline
//! bench_guard --write    # measure and rewrite the baseline in place
//! ```
//!
//! Besides the human-readable table, the compare mode always ends with
//! one `resim.bench/1` JSON line — pass or fail — carrying every row's
//! measured/baseline/floor numbers, so CI can archive the measurement
//! with a `grep '"schema":"resim.bench/1"'` instead of parsing the
//! table.
//!
//! The measurement is best-of-N wall-clock (N = 5), which is stable to
//! a few percent on an idle machine; the 20% default tolerance leaves
//! room for CI-runner noise while still catching step-function
//! regressions. Regenerate the baseline (`--write`, on a quiet machine)
//! whenever a deliberate engine or codec change moves throughput.

use resim_core::{Engine, EngineConfig};
use resim_trace::{save_trace_file, FileSource, Trace, TraceFileHeader, TraceSource};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Same workload/budget as `engine_throughput` under `RESIM_BENCH_QUICK=1`.
const BUDGET: usize = 20_000;
const RUNS: usize = 5;
const FRONTENDS: [&str; 3] = ["slice", "encoded", "file"];

/// One measured row: a frontend and its best rate.
struct Row {
    frontend: &'static str,
    rate: f64,
}

fn baseline_path() -> PathBuf {
    // crates/bench -> repository root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_BASELINE.json")
}

/// Best-of-N committed records per second, a fresh engine per run.
fn best_of<S: TraceSource, F: FnMut() -> S>(config: &EngineConfig, mut source: F) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..RUNS {
        let mut engine = Engine::new(config.clone()).expect("paper config is valid");
        let start = Instant::now();
        let stats = engine.run(source());
        let secs = start.elapsed().as_secs_f64();
        assert!(stats.committed > 0, "bench run must make progress");
        best = best.max(stats.committed as f64 / secs);
    }
    best
}

fn measure_all() -> Vec<Row> {
    let config = EngineConfig::paper_4wide();
    let trace: Trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 2009),
        BUDGET,
        &TraceGenConfig::paper(),
    );
    let encoded = trace.encode();
    let header = TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0)
        .with_correct_records(trace.correct_path_len() as u64);
    let path = std::env::temp_dir().join(format!("resim-bench-guard-{}.trace", std::process::id()));
    save_trace_file(&path, &header, &encoded).expect("write bench trace");

    let out = FRONTENDS
        .into_iter()
        .map(|frontend| {
            let rate = match frontend {
                "slice" => best_of(&config, || trace.source()),
                "encoded" => best_of(&config, || encoded.source()),
                _ => best_of(&config, || {
                    FileSource::open(&path).expect("bench trace readable")
                }),
            };
            Row { frontend, rate }
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    out
}

/// Pulls `"key": <number>` out of the baseline JSON. The file is flat
/// and machine-written, so a scan is enough — no JSON dependency.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let after = &text[text.find(&needle)? + needle.len()..];
    let after = after.trim_start();
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

fn write_baseline(path: &Path, rows: &[Row]) {
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"engine_throughput\",\n");
    body.push_str(&format!("  \"budget\": {BUDGET},\n"));
    body.push_str(&format!("  \"runs\": {RUNS},\n"));
    body.push_str("  \"allowed_drop\": 0.20,\n");
    body.push_str("  \"records_per_sec\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        body.push_str(&format!(
            "    \"{}\": {:.0}{comma}\n",
            row.frontend, row.rate
        ));
    }
    body.push_str("  }\n}\n");
    std::fs::write(path, body).expect("write baseline");
}

fn main() {
    let write = std::env::args().any(|a| a == "--write");
    let path = baseline_path();

    println!("bench_guard: engine_throughput quick mode ({BUDGET} records, best of {RUNS})");
    let mut rows = measure_all();
    for row in &rows {
        println!("  {:14} {:10.0} records/s", row.frontend, row.rate);
    }

    if write {
        write_baseline(&path, &rows);
        println!("baseline written to {}", path.display());
        return;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "bench_guard: cannot read {} ({e}); run `bench_guard --write` to create it",
                path.display()
            );
            std::process::exit(1);
        }
    };
    let allowed_drop = json_number(&text, "allowed_drop").unwrap_or(0.20);

    // A shared CI host can dip for seconds at a time. Before declaring
    // a regression, remeasure and keep the best rate seen per row —
    // only a *persistent* shortfall survives three measurement passes.
    for _ in 0..2 {
        let below_floor = rows.iter().any(|row| {
            json_number(&text, row.frontend)
                .is_some_and(|baseline| row.rate < baseline * (1.0 - allowed_drop))
        });
        if !below_floor {
            break;
        }
        println!("bench_guard: shortfall on first pass; remeasuring to rule out host noise");
        for fresh in measure_all() {
            if let Some(row) = rows.iter_mut().find(|r| r.frontend == fresh.frontend) {
                row.rate = row.rate.max(fresh.rate);
            }
        }
    }

    let mut failed = false;
    let mut results = Vec::new();
    for row in &rows {
        let Some(baseline) = json_number(&text, row.frontend) else {
            eprintln!(
                "bench_guard: baseline has no entry for {:?}; rerun `bench_guard --write`",
                row.frontend
            );
            failed = true;
            continue;
        };
        let floor = baseline * (1.0 - allowed_drop);
        let ok = row.rate >= floor;
        let verdict = if ok { "ok" } else { "REGRESSION" };
        println!(
            "  {:14} baseline {baseline:10.0}  floor {floor:10.0}  measured {:10.0}  {verdict}",
            row.frontend, row.rate
        );
        results.push((row, baseline, floor, ok));
        if !ok {
            failed = true;
        }
    }
    // One machine-readable line, pass or fail, so CI can archive the
    // measurement without parsing the human table above.
    let body = results
        .iter()
        .map(|(row, baseline, floor, ok)| {
            format!(
                "{{\"frontend\":\"{}\",\"measured\":{:.0},\
                 \"baseline\":{baseline:.0},\"floor\":{floor:.0},\"ok\":{ok}}}",
                row.frontend, row.rate
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"schema\":\"resim.bench/1\",\"bench\":\"engine_throughput\",\
         \"budget\":{BUDGET},\"runs\":{RUNS},\"allowed_drop\":{allowed_drop},\
         \"results\":[{body}],\"ok\":{}}}",
        !failed
    );
    if failed {
        eprintln!(
            "bench_guard: throughput regressed more than {:.0}% below BENCH_BASELINE.json",
            allowed_drop * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "bench_guard: all rows within {:.0}% of baseline",
        allowed_drop * 100.0
    );
}
