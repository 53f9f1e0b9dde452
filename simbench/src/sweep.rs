//! `sweep` — the paper's bulk design-space use.
//!
//! One operation takes the scenario TOML text, parses and resolves it
//! (`ScenarioDoc::parse_str` + `to_scenario`), runs it on a fresh
//! 2-thread `SweepRunner` with a fresh `TraceCache`, and renders the
//! stable CSV (cold). The same scenario then runs again on that runner,
//! whose trace cache now holds every trace (warm: tracegen skipped).
//! Both CSVs must equal a single-thread reference computed before
//! timing starts.

use crate::span::Tracer;
use crate::stats::{median, BestOf};
use crate::{derive_seed, peak_rss_mb, Outcome, Tally};
use resim_sweep::{Scenario, ScenarioDoc, SweepPhase, SweepProgress, SweepReport, SweepRunner};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads of every runner (the benchmark uses at most two).
pub const THREADS: usize = 2;

/// Scenario variants the sweeps cycle through.
pub const VARIANTS: usize = 5;

/// Fixed operation counts of one sweep run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Correct-path instructions per trace.
    pub budget: usize,
    /// Cold sweeps (each followed by one warm sweep).
    pub sweeps: usize,
    /// Scenario resolutions timed together, once before every cold
    /// sweep, as one set-up sample (`setup_s` is the median of the
    /// variants' best samples).
    pub resolves: usize,
}

impl Plan {
    /// The plan for a run of about `seconds` on the reference host.
    pub fn for_seconds(seconds: u64) -> Self {
        Self {
            budget: 10_000,
            sweeps: (seconds as usize * 5).max(VARIANTS),
            resolves: 10,
        }
    }
}

/// The scenario: the five SPEC models × five engine configurations (a
/// 2×2 width × RB-size grid plus the paper's 2-wide cached machine) ×
/// full and sampled modes — 50 cells over 10 distinct traces.
pub fn scenario_text(seed: u64, budget: usize) -> String {
    let s = derive_seed(seed, 100) % 1_000_000;
    format!(
        r#"[sweep]
workloads = ["gzip", "bzip2", "parser", "vortex", "vpr"]
budgets = [{budget}]
seeds = [{s}]
modes = ["full", "sampled"]
threads = {THREADS}

[sweep.sample]
interval = 2000
detailed = 500
period = 2

[[sweep.config]]
name = "paper-2wide-cached"
[sweep.config.engine]
preset = "paper-2wide-cached"

[sweep.grid]
widths = [2, 4]
rb_sizes = [16, 32]
"#
    )
}

/// Parses and resolves scenario text (the `toml` and scenario layers).
pub fn resolve(text: &str, tracer: &Tracer) -> Result<Scenario, String> {
    let _span = tracer.span("sweep.resolve");
    let doc = tracer
        .time("toml.parse_str", || ScenarioDoc::parse_str(text))
        .map_err(|e| e.to_string())?;
    tracer
        .time("sweep.to_scenario", || doc.to_scenario())
        .map_err(|e| e.to_string())
}

/// Phase walls of one sweep, from its progress samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Trace-generation phase.
    pub generate: Duration,
    /// Simulation phase.
    pub simulate: Duration,
}

/// Runs `scenario` on `runner`, returning the report and its phase walls.
pub fn run_sweep(
    runner: &SweepRunner,
    scenario: &Scenario,
    tracer: &Tracer,
) -> Result<(SweepReport, Phases), String> {
    let simulate_start: Mutex<Option<Duration>> = Mutex::new(None);
    let on_progress = |p: &SweepProgress| {
        if p.phase == SweepPhase::Simulate && p.done == 0 {
            *simulate_start.lock().expect("progress lock poisoned") = Some(p.elapsed);
        }
    };
    let report = tracer
        .time("sweep.run_with_progress", || {
            runner.run_with_progress(scenario, on_progress)
        })
        .map_err(|e| e.to_string())?;
    let generate = simulate_start
        .into_inner()
        .expect("progress lock poisoned")
        .unwrap_or_default();
    let phases = Phases {
        generate,
        simulate: report.wall.saturating_sub(generate),
    };
    Ok((report, phases))
}

/// One cold operation: text → fresh runner → checked stable CSV.
/// Returns the runner (its trace cache now warm), the report and phases.
pub fn cold_sweep(
    text: &str,
    reference: &str,
    tracer: &Tracer,
) -> Result<(SweepRunner, SweepReport, Phases), String> {
    let scenario = resolve(text, tracer)?;
    let runner = SweepRunner::new(THREADS);
    let (report, phases) = run_sweep(&runner, &scenario, tracer)?;
    check_csv(&report, reference)?;
    Ok((runner, report, phases))
}

/// One warm operation: the same text on a runner whose trace cache
/// already holds every trace.
pub fn warm_sweep(
    runner: &SweepRunner,
    text: &str,
    reference: &str,
    tracer: &Tracer,
) -> Result<SweepReport, String> {
    let scenario = resolve(text, tracer)?;
    let (report, _) = run_sweep(runner, &scenario, tracer)?;
    check_csv(&report, reference)?;
    Ok(report)
}

/// The reference stable CSV of `text`, from a runner with `threads` workers.
pub fn reference_csv(text: &str, threads: usize) -> Result<String, String> {
    let scenario = resolve(text, &Tracer::new(false))?;
    SweepRunner::new(threads)
        .run(&scenario)
        .map(|r| r.to_csv_stable())
        .map_err(|e| e.to_string())
}

fn check_csv(report: &SweepReport, reference: &str) -> Result<(), String> {
    let csv = report.to_csv_stable();
    if csv == reference {
        Ok(())
    } else {
        let bad = csv
            .lines()
            .zip(reference.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(csv.lines().count().min(reference.lines().count()));
        Err(format!(
            "stable CSV differs from the reference at line {bad}"
        ))
    }
}

/// Runs the whole workload.
///
/// # Errors
///
/// A scenario that does not resolve, or a failing reference; failed
/// operations are counted in the outcome instead.
pub fn run(seed: u64, plan: Plan, tracer: &Tracer) -> Result<Outcome, String> {
    // The sweeps cycle through VARIANTS scenarios (the same grid at
    // different workload seeds); each variant's time is its best of N.
    let texts: Vec<String> = (0..VARIANTS as u64)
        .map(|k| scenario_text(derive_seed(seed, k), plan.budget))
        .collect();
    let cells_per_sweep = resolve(&texts[0], tracer)?.len() as u64;
    let references: Vec<String> = texts
        .iter()
        .map(|t| reference_csv(t, 1))
        .collect::<Result<_, _>>()?;

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut setups = BestOf::new(VARIANTS);
    let (mut cold, mut warm) = (BestOf::new(VARIANTS), BestOf::new(VARIANTS));
    let mut committed = vec![0u64; VARIANTS];
    let mut counts = None;
    for i in 0..plan.sweeps {
        let k = i % VARIANTS;
        let (text, reference) = (&texts[k], &references[k]);
        // Set-up: resolving the scenario. Sampled before every sweep and
        // summarised like the sweeps: each variant's best of N.
        let t0 = Instant::now();
        for _ in 0..plan.resolves.max(1) {
            resolve(text, tracer)?;
        }
        setups.record(k, t0.elapsed().as_secs_f64() / plan.resolves.max(1) as f64);

        let t0 = Instant::now();
        let Some((runner, report, _)) = tally.record(cold_sweep(text, reference, tracer)) else {
            continue;
        };
        cold.record(k, t0.elapsed().as_secs_f64());
        committed[k] = report.total_committed();

        let t0 = Instant::now();
        let Some(warm_report) = tally.record(warm_sweep(&runner, text, reference, tracer)) else {
            continue;
        };
        warm.record(k, t0.elapsed().as_secs_f64());
        if counts.is_none() {
            counts = Some((report, warm_report));
        }
    }

    let setup_bests: Vec<f64> = setups.bests().iter().map(|&(_, s)| s).collect();
    out.metric("setup_s", median(&setup_bests), "s");
    out.best_of_metrics(&cold, &warm, &committed, &[cells_per_sweep; VARIANTS]);
    out.metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0), "MB");
    out.notes.push(format!(
        "best of {} per variant (cold = fresh runner, warm = trace cache warm); {VARIANTS} variants; {cells_per_sweep} cells per sweep",
        plan.sweeps / VARIANTS
    ));

    if let Some((cold, warm)) = counts {
        out.counts.insert("sweep.cells", cold.len() as u64);
        out.counts.insert("sweep.committed", cold.total_committed());
        out.counts.insert(
            "sweep.cycles",
            cold.cells.iter().map(|c| c.stats.cycles).sum(),
        );
        out.counts
            .insert("sweep.cold_trace_hits", cold.trace_cache_hits);
        out.counts
            .insert("sweep.cold_trace_misses", cold.trace_cache_misses);
        out.counts
            .insert("sweep.warm_trace_hits", warm.trace_cache_hits);
        out.counts
            .insert("sweep.warm_trace_misses", warm.trace_cache_misses);
    }
    out.tally = tally;
    Ok(out)
}
