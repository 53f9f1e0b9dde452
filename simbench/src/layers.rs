//! The per-layer suite of the traced run.
//!
//! Each layer's public functions are called from here inside spans
//! named `<layer>.<fn>`, at fixed sizes, and every per-layer metric is
//! derived from those spans and from the counts the calls return. The
//! simulator itself is not instrumented. Outputs are checked exactly as
//! in the workloads, so a failed call is a failed operation here too.
//!
//! `METHODOLOGY.md` maps each metric to the end-to-end metric and
//! workload it should move.

use crate::calib;
use crate::replay::{self, Container, Prepared};
use crate::serve::{self, Submission};
use crate::span::Tracer;
use crate::stats::median;
use crate::{derive_seed, sweep, Outcome, Tally};
use resim_core::SimStats;
use resim_sample::{run_sampled, SamplePlan};
use resim_serve::{CachedCell, Lookup, ResultCache};
use resim_trace::{
    FileSource, OpClass, OtherRecord, TraceRecord, TraceSource, TRACE_LAYOUT_VERSION,
};
use std::path::Path;

/// Correct-path instructions per trace in the trace and core probes.
const BUDGET: usize = 200_000;
/// Repetitions of each timed probe.
const REPS: usize = 3;
/// The sampling plan of the sample probe: 1 000 detailed records of
/// every fifth 10 000-record interval (2 % detailed).
const SAMPLE: (u64, u64, u64) = (10_000, 1_000, 5);
/// Pings timed for the wire round trip.
const PINGS: usize = 20;

/// Runs the suite; spans go to `tracer`, per-layer metrics and counts
/// to the outcome.
///
/// # Errors
///
/// Set-up failures; failed operations are counted instead.
pub fn run(exe: &Path, dir: &Path, seed: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut calib_ms = vec![calib::child_ms(exe)?];

    let prepared = replay::generate(seed, BUDGET, tracer)?;
    let mut containers = replay::write_containers(dir, seed, &prepared, tracer)?;
    replay::seal(&mut containers)?;
    trace_layer(&mut out, tracer, &prepared, &containers);
    calib_ms.push(calib::child_ms(exe)?);

    let reference = core_layer(&mut out, tracer, &prepared, &containers)?;
    calib_ms.push(calib::child_ms(exe)?);

    sample_layer(&mut out, tracer, &prepared, &reference)?;
    calib_ms.push(calib::child_ms(exe)?);

    let report = sweep_layer(&mut out, tracer, seed)?;
    calib_ms.push(calib::child_ms(exe)?);

    serve_layer(&mut out, tracer, exe, dir, seed)?;
    cache_layer(&mut out, tracer, dir, seed, &report)?;
    calib_ms.push(calib::child_ms(exe)?);

    out.metric("host.calib_ms", median(&calib_ms), "ms");
    Ok(out)
}

/// `tracegen` and `trace`: generation, `Trace::stats`, v1/v2 encode,
/// container writes, and `FileSource` decode alone.
fn trace_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    prepared: &[Prepared],
    containers: &[Container],
) {
    let correct: u64 = prepared.iter().map(|p| p.correct).sum();
    let records: u64 = prepared.iter().map(|p| p.trace.len() as u64).sum();
    let wrong = records - correct;
    out.metric(
        "tracegen.minsn_per_s",
        correct as f64 / tracer.total_seconds("tracegen.generate_trace") / 1e6,
        "Minsn/s",
    );
    out.metric(
        "tracegen.wrong_path_frac",
        wrong as f64 / records as f64,
        "ratio",
    );
    out.counts.insert("tracegen.wrong_path_records", wrong);

    for _ in 0..REPS {
        for p in prepared {
            tracer.time("trace.stats", || p.trace.stats());
        }
    }
    out.metric(
        "trace.stats_ms_per_minsn",
        tracer.total_seconds("trace.stats") * 1e3 / (REPS as f64 * correct as f64 / 1e6),
        "ms/Minsn",
    );
    out.metric(
        "trace.encode_v1_mrec_s",
        records as f64 / tracer.total_seconds("trace.encode_v1") / 1e6,
        "Mrec/s",
    );
    out.metric(
        "trace.encode_v2_mrec_s",
        records as f64 / tracer.total_seconds("trace.encode_v2") / 1e6,
        "Mrec/s",
    );
    out.metric(
        "trace.write_ms",
        median(&tracer.seconds("trace.save_trace_file")) * 1e3,
        "ms",
    );

    let mut tally = Tally::default();
    for _ in 0..REPS {
        for c in containers {
            let name = if c.layout == TRACE_LAYOUT_VERSION {
                "trace.file_decode_v1"
            } else {
                "trace.file_decode_v2"
            };
            let expected = prepared[c.trace].trace.len() as u64;
            tally.record(tracer.time(name, || decode_only(&c.path, expected)));
        }
    }
    for (layout, span, bits_name, rate_name) in [
        (
            1,
            "trace.file_decode_v1",
            "trace.bits_per_insn_v1",
            "trace.file_decode_v1_mrec_s",
        ),
        (
            2,
            "trace.file_decode_v2",
            "trace.bits_per_insn_v2",
            "trace.file_decode_v2_mrec_s",
        ),
    ] {
        let bits: u64 = containers
            .iter()
            .filter(|c| c.layout == layout)
            .map(|c| c.len_bits)
            .sum();
        out.metric(bits_name, bits as f64 / records as f64, "bits/insn");
        out.counts.insert(
            if layout == 1 {
                "trace.bits_v1"
            } else {
                "trace.bits_v2"
            },
            bits,
        );
        out.metric(
            rate_name,
            REPS as f64 * records as f64 / tracer.total_seconds(span) / 1e6,
            "Mrec/s",
        );
    }
    out.tally.absorb(tally);
}

/// Drains a container through `FileSource` batch fills, no engine.
fn decode_only(path: &Path, expected: u64) -> Result<u64, String> {
    let mut source = FileSource::open(path).map_err(|e| e.to_string())?;
    let pad = TraceRecord::Other(OtherRecord {
        pc: 0,
        class: OpClass::Nop,
        dest: None,
        src1: None,
        src2: None,
        wrong_path: false,
    });
    let mut buf = vec![pad; resim_core::DEFAULT_BATCH];
    let mut n = 0u64;
    loop {
        let got = source.fill(&mut buf);
        if got == 0 {
            break;
        }
        n += got as u64;
    }
    std::hint::black_box(&buf);
    match source.error() {
        Some(e) => Err(format!("{}: {e}", path.display())),
        None if n != expected => Err(format!(
            "{}: decoded {n} of {expected} records",
            path.display()
        )),
        None => Ok(n),
    }
}

/// `core`: the engine over in-memory records and over containers; the
/// simulated-time counts come from the reference runs.
fn core_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    prepared: &[Prepared],
    containers: &[Container],
) -> Result<Vec<SimStats>, String> {
    let config = replay::machine();
    let reference: Vec<SimStats> = prepared
        .iter()
        .map(|p| replay::run_engine(&config, p.trace.source()))
        .collect::<Result<_, _>>()?;
    let mut tally = Tally::default();
    let (mut slice_committed, mut file_committed) = (0u64, 0u64);
    for _ in 0..REPS {
        for (p, r) in prepared.iter().zip(&reference) {
            if let Some(s) =
                tally.record(replay::replay_slice(&config, &p.trace, r.digest(), tracer))
            {
                slice_committed += s.committed;
            }
        }
        for c in containers {
            let expected = reference[c.trace].digest();
            if let Some((s, _)) = tally.record(replay::replay_file(&config, c, expected, tracer)) {
                file_committed += s.committed;
            }
        }
    }
    let slice = slice_committed as f64 / tracer.total_seconds("core.run_slice") / 1e6;
    let file = file_committed as f64 / tracer.total_seconds("core.run_file") / 1e6;
    out.metric("core.slice_mips", slice, "Minsn/s");
    out.metric("core.file_mips", file, "Minsn/s");
    out.metric("core.decode_tax", 1.0 - file / slice, "ratio");

    let m = replay::record_counts(out, &reference);
    out.metric("core.cycles", m.cycles as f64, "count");
    out.metric("core.committed", m.committed as f64, "count");
    out.metric("core.ipc", m.ipc(), "insn/cycle");
    out.metric(
        "bpred.mispredicts_per_kinsn",
        m.predictor.dir_mispredicts as f64 * 1e3 / m.committed as f64,
        "1/kinsn",
    );
    out.metric("mem.il1_miss_rate", m.il1_miss_rate(), "ratio");
    out.metric("mem.dl1_miss_rate", m.dl1_miss_rate(), "ratio");
    out.tally.absorb(tally);
    Ok(reference)
}

/// `sample`: `run_sampled` against the full run of the same trace.
fn sample_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    prepared: &[Prepared],
    reference: &[SimStats],
) -> Result<(), String> {
    let config = replay::machine();
    let plan = SamplePlan::systematic(SAMPLE.0, SAMPLE.1, SAMPLE.2);
    let (mut detailed, mut total, mut err_pct) = (0u64, 0u64, 0.0);
    for _ in 0..REPS {
        for (p, full) in prepared.iter().zip(reference) {
            let s = tracer
                .time("sample.run_sampled", || {
                    run_sampled(&config, p.trace.source(), &plan)
                })
                .map_err(|e| format!("run_sampled: {e}"))?;
            detailed += s.records_detailed;
            total += s.records_total;
            err_pct += (s.mean_ipc() - full.ipc()).abs() / full.ipc() * 100.0;
        }
    }
    let runs = (REPS * prepared.len()) as f64;
    let sampled_s = tracer.total_seconds("sample.run_sampled");
    out.metric("sample.cell_ms", sampled_s * 1e3 / runs, "ms");
    out.metric(
        "sample.speedup",
        tracer.total_seconds("core.run_slice") / sampled_s,
        "x",
    );
    out.metric("sample.coverage", detailed as f64 / total as f64, "ratio");
    out.metric("sample.ipc_err_pct", err_pct / runs, "%");
    out.counts
        .insert("sample.records_detailed", detailed / REPS as u64);
    Ok(())
}

/// `sweep` (and `toml`): resolution, phase walls and pool efficiency of
/// the `sweep` workload's scenario.
fn sweep_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    seed: u64,
) -> Result<resim_sweep::SweepReport, String> {
    let text = sweep::scenario_text(seed, sweep::Plan::for_seconds(1).budget);
    let reference = sweep::reference_csv(&text, 1)?;
    let mut tally = Tally::default();
    let (mut generate, mut simulate, mut efficiency) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..REPS {
        let Some((runner, report, phases)) =
            tally.record(sweep::cold_sweep(&text, &reference, tracer))
        else {
            continue;
        };
        generate.push(phases.generate.as_secs_f64() * 1e3);
        simulate.push(phases.simulate.as_secs_f64() * 1e3);
        let busy: f64 = report.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
        efficiency.push(busy / (report.threads as f64 * phases.simulate.as_secs_f64()));
        last = Some((runner, report));
    }
    let (runner, report) = last.ok_or("every sweep failed")?;
    // The cold sweep generates every trace; a warm sweep on the same
    // runner reuses them all.
    let warm = tally.record(sweep::warm_sweep(&runner, &text, &reference, tracer));
    out.metric(
        "sweep.parse_ms",
        median(&tracer.seconds("sweep.resolve")) * 1e3,
        "ms",
    );
    out.metric("sweep.generate_ms", median(&generate), "ms");
    out.metric("sweep.simulate_ms", median(&simulate), "ms");
    out.metric("sweep.pool_efficiency", median(&efficiency), "ratio");
    let (mut hits, mut misses) = (report.trace_cache_hits, report.trace_cache_misses);
    if let Some(w) = warm {
        hits += w.trace_cache_hits;
        misses += w.trace_cache_misses;
    }
    out.metric(
        "sweep.trace_cache_hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
    );
    out.counts.insert("sweep.trace_cache_hits", hits);
    out.counts.insert("sweep.trace_cache_misses", misses);
    out.tally.absorb(tally);
    Ok(report)
}

/// `serve`: the wire round trip, the submit/wait split, server counters
/// and RSS growth per cold submission, on a short fixed sequence.
fn serve_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    exe: &Path,
    dir: &Path,
    seed: u64,
) -> Result<(), String> {
    let plan = serve::Plan {
        new_grids: 4,
        overlaps: 2,
        repeats: 12,
        setups: 1,
        ..serve::Plan::STANDARD
    };
    let subs: Vec<Submission> = serve::sequence(seed, plan);
    let refs = serve::references(&subs)?;
    let (server, mut client, _) = serve::start_timed(exe, dir)?;
    let mut tally = Tally::default();
    for _ in 0..PINGS {
        tally.record(
            tracer
                .time("serve.ping", || client.ping())
                .map_err(|e| format!("ping: {e}")),
        );
    }
    let rss_start = server.peak_rss_mb().unwrap_or(0.0);
    let (mut submit_ms, mut wait_cold, mut wait_warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut cold = 0u64;
    for sub in &subs {
        let Some(s) = tally.record(serve::submit(&mut client, sub, &refs[&sub.text], tracer))
        else {
            continue;
        };
        submit_ms.push(s.submit_s * 1e3);
        let wait = (s.latency_s - s.submit_s) * 1e3;
        if s.simulated > 0 {
            cold += 1;
            wait_cold.push(wait);
        } else {
            wait_warm.push(wait);
        }
    }
    let metrics = tally.record(client.metrics().map_err(|e| format!("metrics: {e}")));
    let rss_end = server.peak_rss_mb().unwrap_or(0.0);
    tally.record(server.stop(&mut client));

    out.metric(
        "serve.ping_rtt_ms",
        median(&tracer.seconds("serve.ping")) * 1e3,
        "ms",
    );
    out.metric("serve.submit_rtt_ms", median(&submit_ms), "ms");
    out.metric("serve.wait_rtt_cold_ms", median(&wait_cold), "ms");
    out.metric("serve.wait_rtt_warm_ms", median(&wait_warm), "ms");
    if let Some(m) = metrics {
        let sim = serve::counter(&m, "serve_cells_simulated").unwrap_or(0);
        let mem = serve::counter(&m, "serve_cells_served_mem").unwrap_or(0);
        out.metric("serve.cells_simulated", sim as f64, "count");
        out.metric("serve.cells_served_mem", mem as f64, "count");
        out.metric("serve.hit_ratio", mem as f64 / (sim + mem) as f64, "ratio");
        out.counts.insert("serve.cells_simulated", sim);
        out.counts.insert("serve.cells_served_mem", mem);
    }
    out.metric(
        "serve.rss_mb_per_cold",
        (rss_end - rss_start) / cold.max(1) as f64,
        "MB",
    );
    out.tally.absorb(tally);
    Ok(())
}

/// `ResultCache::insert` (RSCE write) and `lookup` (memory hit) on a
/// scratch directory, with the sweep report's cells as entries.
fn cache_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    dir: &Path,
    seed: u64,
    report: &resim_sweep::SweepReport,
) -> Result<(), String> {
    let cache_dir = dir.join("result-cache");
    let cache = ResultCache::with_dir(&cache_dir).map_err(|e| e.to_string())?;
    let cells: Vec<CachedCell> = report
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| CachedCell::from_result(derive_seed(seed, 9000 + i as u64), c))
        .collect();
    let mut tally = Tally::default();
    for c in &cells {
        tally.record(
            tracer
                .time("serve.cache_insert", || cache.insert(c.clone()))
                .map_err(|e| format!("cache insert: {e}")),
        );
    }
    for _ in 0..REPS {
        for c in &cells {
            let found = tracer.time("serve.cache_lookup", || cache.lookup(c.fingerprint));
            tally.record(match found {
                Lookup::Memory(hit) if hit == *c => Ok(()),
                other => Err(format!("cache lookup returned {other:?}")),
            });
        }
    }
    out.metric(
        "serve.cache_insert_us",
        median(&tracer.seconds("serve.cache_insert")) * 1e6,
        "us",
    );
    out.metric(
        "serve.cache_lookup_us",
        median(&tracer.seconds("serve.cache_lookup")) * 1e6,
        "us",
    );
    out.tally.absorb(tally);
    Ok(())
}
