//! `simbench --workload <replay|sweep|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! the traced run with `--trace 1`. Progress and notes go to standard
//! error. Scratch files live under `.simbench_work/` in the current
//! directory and are removed on exit; the traced run's spans are kept
//! in `.simbench_out/`.

use resim_simbench::calib::{self, Calib};
use resim_simbench::span::Tracer;
use resim_simbench::{layers, replay, serve, sweep, Metric, Outcome, WorkDir, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| {
                        format!("unknown workload {value:?} (replay|sweep|serve)")
                    })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload with its plan for `seconds` (`serve` has one
/// fixed plan).
fn run_workload(
    workload: Workload,
    exe: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    match workload {
        Workload::Replay => replay::run(dir, seed, replay::Plan::for_seconds(seconds), tracer),
        Workload::Sweep => sweep::run(seed, sweep::Plan::for_seconds(seconds), tracer),
        Workload::Serve => serve::run(exe, dir, seed, serve::Plan::STANDARD, tracer),
    }
}

/// The metric a workload is chiefly about, for the tracing overhead.
fn primary(workload: Workload) -> (&'static str, bool) {
    match workload {
        Workload::Replay => ("sim_mips", true),
        Workload::Sweep => ("cells_per_s", true),
        Workload::Serve => ("warm_p50_ms", false),
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let root = PathBuf::from(".simbench_work");
    let name = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let dir = WorkDir::create(&root, &name).map_err(|e| format!("work dir: {e}"))?;
    let calib_before = calib::child_ms(&exe)?;

    let (outcome, metrics) = if args.trace {
        // The traced run: the workload untraced, then traced (their gap
        // is the tracing overhead), then the per-layer suite.
        let plain = run_workload(
            args.workload,
            &exe,
            dir.path(),
            args.seed,
            args.seconds,
            &Tracer::new(false),
        )?;
        let tracer = Tracer::new(true);
        let traced = run_workload(
            args.workload,
            &exe,
            dir.path(),
            args.seed,
            args.seconds,
            &tracer,
        )?;
        let (name, higher_is_better) = primary(args.workload);
        let (p, t) = (
            plain.get(name).unwrap_or(0.0),
            traced.get(name).unwrap_or(0.0),
        );
        let overhead = if higher_is_better {
            (p - t) / p
        } else {
            (t - p) / p
        } * 100.0;
        let suite_tracer = Tracer::new(true);
        let mut suite = layers::run(&exe, dir.path(), args.seed, &suite_tracer)?;
        suite.metric("bench.tracing_overhead_pct", overhead, "%");
        let out_dir = Path::new(".simbench_out");
        std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
        for (part, t) in [("workload", &tracer), ("layers", &suite_tracer)] {
            let path = out_dir.join(format!(
                "spans-{}-seed{}-{part}.jsonl",
                args.workload.name(),
                args.seed
            ));
            t.write_jsonl(&path).map_err(|e| e.to_string())?;
            eprintln!("simbench: {} spans written to {}", t.len(), path.display());
        }
        let mut outcome = plain;
        // Tracing only observes: the traced pass must reproduce every
        // deterministic count of the untraced one.
        outcome.tally.record(if traced.counts == outcome.counts {
            Ok(())
        } else {
            Err("traced and untraced passes disagree on a deterministic count".to_string())
        });
        outcome.tally.absorb(traced.tally);
        outcome.notes.extend(traced.notes);
        outcome
            .counts
            .extend(suite.counts.iter().map(|(k, v)| (*k, *v)));
        let metrics = suite.metrics.clone();
        outcome.tally.absorb(suite.tally);
        (outcome, metrics)
    } else {
        let outcome = run_workload(
            args.workload,
            &exe,
            dir.path(),
            args.seed,
            args.seconds,
            &Tracer::new(false),
        )?;
        let metrics = outcome.metrics.clone();
        (outcome, metrics)
    };

    let calib_after = calib::child_ms(&exe)?;
    for note in &outcome.notes {
        eprintln!("simbench: {note}");
    }
    for (k, v) in &outcome.counts {
        eprintln!("simbench: count {k} = {v}");
    }
    // Diagnostic only: never used to normalise a metric.
    eprintln!(
        "simbench: diag {{\"host.calib_ms\": {:?}, \"calib_before_ms\": {calib_before:?}, \"calib_after_ms\": {calib_after:?}}}",
        (calib_before + calib_after) / 2.0
    );
    for r in &outcome.tally.reasons {
        eprintln!("simbench: FAILED: {r}");
    }
    let t = &outcome.tally;
    Ok(json_line(t.failed == 0, t.attempted, t.failed, &metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(calib::CALIB_CHILD_FLAG) {
        println!("{:?}", Calib::new().run_ms());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some(serve::SERVE_CHILD_FLAG) {
        // `resim serve` itself, on a free local port with the given
        // cache directory and the benchmark's two worker threads.
        let Some(cache_dir) = args.get(1) else {
            eprintln!(
                "simbench: {} needs a cache directory",
                serve::SERVE_CHILD_FLAG
            );
            return ExitCode::from(2);
        };
        let cli: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            cache_dir,
            "-j",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let code = resim_cli::run_cli(&cli, &mut std::io::stdout(), &mut std::io::stderr());
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&parsed);
    // The per-run directory is gone by now; drop the shared root too
    // when no other run is using it.
    let _ = std::fs::remove_dir(".simbench_work");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(1)
        }
    }
}
