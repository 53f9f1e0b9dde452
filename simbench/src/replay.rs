//! `replay` — the paper's trace-driven use.
//!
//! Set-up generates a fixed set of SPEC-model traces and writes each as
//! an RSTR container in both record layouts. The timed part replays
//! every container through `FileSource` into a fresh `Engine` (cold:
//! the records must be decoded), each followed by the same trace from
//! its in-memory records through `SliceSource` (warm: already decoded).
//! Every replay's `SimStats` digest must equal the in-memory reference
//! run, computed before timing starts.

use crate::span::Tracer;
use crate::stats::BestOf;
use crate::{derive_seed, peak_rss_mb, Outcome, Tally};
use resim_core::{Engine, EngineConfig, Fnv64, SimStats};
use resim_sweep::ScenarioDoc;
use resim_trace::{
    save_trace_file, FileSource, Trace, TraceFileHeader, TraceSource, TRACE_LAYOUT_VERSION,
    TRACE_LAYOUT_VERSION_V2,
};
use resim_tracegen::generate_trace;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The simulated machine: 4-wide, two-level predictor, 32 KB split L1s,
/// so both the predictor and the caches are exercised.
pub const MACHINE: &str = "[engine]\npreset = \"paper-4wide\"\n[engine.memory]\nkind = \"split\"\n";

/// The SPEC models replayed.
pub const TRACES: [&str; 3] = ["gzip", "vortex", "vpr"];

/// The record layouts each trace is written in.
pub const LAYOUTS: [u16; 2] = [TRACE_LAYOUT_VERSION, TRACE_LAYOUT_VERSION_V2];

/// Fixed operation counts of one replay run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Correct-path instructions per trace.
    pub budget: usize,
    /// Passes over all containers in the timed part.
    pub passes: usize,
    /// Passes between repetitions of the set-up (their best is
    /// `setup_s`).
    pub setup_every: usize,
}

impl Plan {
    /// The plan for a run of about `seconds` on the reference host.
    pub fn for_seconds(seconds: u64) -> Self {
        Self {
            budget: 50_000,
            passes: (seconds as usize * 3).max(2),
            setup_every: 6,
        }
    }
}

/// One generated trace and its reference statistics.
#[derive(Debug)]
pub struct Prepared {
    /// Workload name.
    pub workload: &'static str,
    /// The tagged trace in memory.
    pub trace: Trace,
    /// Correct-path records in the trace.
    pub correct: u64,
}

/// One on-disk container.
#[derive(Debug, Clone)]
pub struct Container {
    /// Index into the prepared traces.
    pub trace: usize,
    /// Record layout version.
    pub layout: u16,
    /// File path.
    pub path: PathBuf,
    /// Encoded body length in bits.
    pub len_bits: u64,
    /// FNV-1a hash of the file as written (see [`seal`]).
    pub fnv: u64,
}

/// The engine configuration of [`MACHINE`].
pub fn machine() -> EngineConfig {
    ScenarioDoc::parse_str(MACHINE)
        .expect("the built-in machine parses")
        .engine
}

/// Generates the traces for `seed` (set-up, part 1).
pub fn generate(seed: u64, budget: usize, tracer: &Tracer) -> Result<Vec<Prepared>, String> {
    TRACES
        .iter()
        .enumerate()
        .map(|(i, &workload)| {
            let text = format!(
                "{MACHINE}[workload]\nname = \"{workload}\"\nseed = {}\nbudget = {budget}\n",
                derive_seed(seed, i as u64) % 1_000_000
            );
            let doc = ScenarioDoc::parse_str(&text).map_err(|e| e.to_string())?;
            let trace = tracer.time("tracegen.generate_trace", || {
                generate_trace(doc.workload_stream(), budget, &doc.tracegen)
            });
            let correct = trace.correct_path_len() as u64;
            Ok(Prepared {
                workload,
                trace,
                correct,
            })
        })
        .collect()
}

/// Encodes every trace in every layout and writes the containers
/// (set-up, part 2).
pub fn write_containers(
    dir: &Path,
    seed: u64,
    traces: &[Prepared],
    tracer: &Tracer,
) -> Result<Vec<Container>, String> {
    let tracegen_fp = ScenarioDoc::parse_str(MACHINE)
        .map_err(|e| e.to_string())?
        .tracegen
        .fingerprint();
    let mut out = Vec::new();
    for (i, p) in traces.iter().enumerate() {
        for &layout in &LAYOUTS {
            let encoded = if layout == TRACE_LAYOUT_VERSION {
                tracer.time("trace.encode_v1", || p.trace.encode())
            } else {
                tracer.time("trace.encode_v2", || p.trace.encode_v2())
            };
            let header = TraceFileHeader::for_trace(&encoded, p.workload, seed, tracegen_fp)
                .with_correct_records(p.correct);
            let path = dir.join(format!("{}-v{layout}.rstr", p.workload));
            tracer
                .time("trace.save_trace_file", || {
                    save_trace_file(&path, &header, &encoded)
                })
                .map_err(|e| e.to_string())?;
            out.push(Container {
                trace: i,
                layout,
                path,
                len_bits: encoded.len_bits(),
                fnv: 0,
            });
        }
    }
    Ok(out)
}

/// Runs a fresh engine over `source`.
pub fn run_engine(config: &EngineConfig, source: impl TraceSource) -> Result<SimStats, String> {
    let mut engine = Engine::new(config.clone()).map_err(|e| format!("engine: {e}"))?;
    Ok(engine.run(source))
}

/// Records each container's file hash, outside every timed region.
///
/// RSTR containers carry no checksum, and about a third of single-byte
/// flips in a v1 body (a fifth in v2) leave the simulated statistics
/// unchanged, so the digest check alone would not see them.
pub fn seal(containers: &mut [Container]) -> Result<(), String> {
    for c in containers {
        c.fnv = file_fnv(&c.path)?;
    }
    Ok(())
}

fn file_fnv(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| Fnv64::hash_bytes(&b))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One cold operation: checks the container is the one set-up wrote
/// (untimed), then replays it through a fresh engine (timed) and checks
/// the statistics digest against `expected`. Returns the statistics
/// and the seconds the replay took.
pub fn replay_file(
    config: &EngineConfig,
    c: &Container,
    expected: u64,
    tracer: &Tracer,
) -> Result<(SimStats, f64), String> {
    let what = c.path.display().to_string();
    if file_fnv(&c.path)? != c.fnv {
        return Err(format!("{what}: container differs from the one written"));
    }
    let t0 = Instant::now();
    let mut source = FileSource::open(&c.path).map_err(|e| e.to_string())?;
    let stats = tracer.time("core.run_file", || run_engine(config, &mut source))?;
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(e) = source.error() {
        return Err(format!("{what}: decode failed: {e}"));
    }
    Ok((check_digest(&stats, expected, &what)?, seconds))
}

/// One warm operation: replays the in-memory trace and checks the
/// statistics digest against `expected`.
pub fn replay_slice(
    config: &EngineConfig,
    trace: &Trace,
    expected: u64,
    tracer: &Tracer,
) -> Result<SimStats, String> {
    let stats = tracer.time("core.run_slice", || run_engine(config, trace.source()))?;
    check_digest(&stats, expected, "in-memory trace")
}

/// Merges per-trace statistics and records their simulated-time counts,
/// which a speed-only change must leave identical.
pub fn record_counts(out: &mut Outcome, stats: &[SimStats]) -> SimStats {
    let m = stats.iter().skip(1).fold(stats[0], |a, b| a.merge(b));
    out.counts.insert("core.cycles", m.cycles);
    out.counts.insert("core.committed", m.committed);
    out.counts
        .insert("bpred.dir_mispredicts", m.predictor.dir_mispredicts);
    out.counts.insert("mem.il1_misses", m.memory.l1i.misses());
    out.counts.insert("mem.dl1_misses", m.memory.l1d.misses());
    m
}

fn check_digest(stats: &SimStats, expected: u64, what: &str) -> Result<SimStats, String> {
    if stats.digest() == expected {
        Ok(*stats)
    } else {
        Err(format!(
            "{what}: SimStats digest {:#018x} != reference {expected:#018x}",
            stats.digest()
        ))
    }
}

/// Runs the whole workload.
///
/// # Errors
///
/// Set-up failures (generation, writing); failed operations are counted
/// in the outcome instead.
pub fn run(dir: &Path, seed: u64, plan: Plan, tracer: &Tracer) -> Result<Outcome, String> {
    let config = machine();

    // Set-up: what `resim trace` does for each container. It is repeated
    // every few passes and `setup_s` is the best repetition, read like
    // the timed part's best of N; set-up is deterministic, so each
    // repetition rewrites identical files.
    let setup = |prepared: &mut Vec<Prepared>, containers: &mut Vec<Container>| {
        prepared.clear();
        containers.clear();
        let t0 = Instant::now();
        *prepared = generate(seed, plan.budget, tracer)?;
        *containers = write_containers(dir, seed, prepared, tracer)?;
        let seconds = t0.elapsed().as_secs_f64();
        seal(containers)?;
        Ok::<f64, String>(seconds)
    };
    let (mut prepared, mut containers) = (Vec::new(), Vec::new());
    let mut setups = vec![setup(&mut prepared, &mut containers)?];

    // References, outside every timed region.
    let reference: Vec<SimStats> = prepared
        .iter()
        .map(|p| run_engine(&config, p.trace.source()))
        .collect::<Result<_, _>>()?;

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let (mut cold, mut warm) = (BestOf::new(containers.len()), BestOf::new(containers.len()));
    for pass in 0..plan.passes {
        if pass > 0 && pass % plan.setup_every.max(1) == 0 {
            setups.push(setup(&mut prepared, &mut containers)?);
        }
        for (k, c) in containers.iter().enumerate() {
            let expected = reference[c.trace].digest();
            if let Some((_, s)) = tally.record(replay_file(&config, c, expected, tracer)) {
                cold.record(k, s);
            }
            let t0 = Instant::now();
            if tally
                .record(replay_slice(
                    &config,
                    &prepared[c.trace].trace,
                    expected,
                    tracer,
                ))
                .is_some()
            {
                warm.record(k, t0.elapsed().as_secs_f64());
            }
        }
    }

    out.metric(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    let committed: Vec<u64> = containers
        .iter()
        .map(|c| reference[c.trace].committed)
        .collect();
    out.best_of_metrics(&cold, &warm, &committed, &vec![1; containers.len()]);
    out.metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0), "MB");
    out.notes.push(format!(
        "best of {} per container (cold = file replay, warm = in-memory replay); {} containers; {} set-ups",
        plan.passes,
        containers.len(),
        setups.len()
    ));

    record_counts(&mut out, &reference);
    out.counts.insert(
        "trace.records",
        prepared.iter().map(|p| p.trace.len() as u64).sum(),
    );
    out.tally = tally;
    Ok(out)
}
