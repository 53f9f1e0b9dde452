//! The resim benchmark: three workloads driven through the simulator's
//! public library and CLI surface, every output checked, end-to-end
//! metrics by name and unit, and a traced run that times each layer.
//!
//! * [`replay`] — the paper's trace-driven use: RSTR containers replayed
//!   through `FileSource` into a fresh `Engine`.
//! * [`sweep`] — the paper's bulk design-space use: scenario TOML text
//!   to a checked stable CSV on a 2-thread `SweepRunner`.
//! * [`serve`] — simulation as a service: one closed-loop `Client`
//!   against `resim serve` running in its own process.
//!
//! [`layers`] is the traced per-layer suite. `METHODOLOGY.md` next to
//! this crate says why each workload exists and which end-to-end
//! metric each layer metric should move.

pub mod calib;
pub mod layers;
pub mod replay;
pub mod serve;
pub mod span;
pub mod stats;
pub mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    /// The first failure messages (for stderr), at most [`Tally::KEEP`].
    pub reasons: Vec<String>,
}

impl Tally {
    /// How many failure reasons are kept.
    pub const KEEP: usize = 8;

    /// Counts one operation and its outcome.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(reason) => {
                self.failed += 1;
                if self.reasons.len() < Self::KEEP {
                    self.reasons.push(reason);
                }
                None
            }
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < Self::KEEP {
                self.reasons.push(r);
            }
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations and failures.
    pub tally: Tally,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Simulated-time and cache counts that must repeat exactly for a
    /// given seed (the deterministic-count invariant).
    pub counts: BTreeMap<&'static str, u64>,
    /// Human-readable notes for stderr (sample counts, percentiles).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports the timing metrics of a workload whose operation kinds
    /// repeat, from each kind's best of N ([`stats::BestOf`]).
    /// `committed[k]` and `cells[k]` are the instructions and cells one
    /// operation of kind `k` completes. The p50 is the median of the
    /// kinds' best times. The "tail" is the slowest kind's best time:
    /// not a tail. A tail over every operation reads the share of the
    /// run the host spent in its slow regime and is not steady enough
    /// to gate on, so tail regressions of these workloads go unmeasured
    /// (see `METHODOLOGY.md`).
    pub fn best_of_metrics(
        &mut self,
        cold: &stats::BestOf,
        warm: &stats::BestOf,
        committed: &[u64],
        cells: &[u64],
    ) {
        let bests = cold.bests();
        let seconds: f64 = bests.iter().map(|(_, s)| s).sum();
        let insns: u64 = bests.iter().map(|&(k, _)| committed[k]).sum();
        let done: u64 = bests.iter().map(|&(k, _)| cells[k]).sum();
        let ms = |b: &stats::BestOf| b.bests().iter().map(|(_, s)| s * 1e3).collect::<Vec<_>>();
        let slowest = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
        let (cold_ms, warm_ms) = (ms(cold), ms(warm));
        self.metric("sim_mips", insns as f64 / seconds / 1e6, "Minsn/s");
        self.metric("cells_per_s", done as f64 / seconds, "1/s");
        self.metric("cold_p50_ms", stats::median(&cold_ms), "ms");
        self.metric("cold_tail_ms", slowest(cold_ms), "ms");
        self.metric("warm_p50_ms", stats::median(&warm_ms), "ms");
        self.metric("warm_tail_ms", slowest(warm_ms), "ms");
    }

    /// The value of a metric, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Trace replay from on-disk containers.
    Replay,
    /// Design-space sweeps from scenario TOML.
    Sweep,
    /// Submissions to a `resim serve` process.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "replay" => Some(Self::Replay),
            "sweep" => Some(Self::Sweep),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Replay => "replay",
            Self::Sweep => "sweep",
            Self::Serve => "serve",
        }
    }
}

/// Derives the `i`-th input seed from the workload seed (SplitMix64),
/// so every generated input follows from `--seed` alone.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of a process, in MB, from `/proc/<pid>/status`
/// (`VmHWM`). `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => PathBuf::from(format!("/proc/{p}/status")),
        None => PathBuf::from("/proc/self/status"),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A scratch directory that is removed when dropped.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `<root>/<name>`, emptying it first if it exists.
    ///
    /// # Errors
    ///
    /// The I/O error from creating the directory.
    pub fn create(root: &Path, name: &str) -> std::io::Result<Self> {
        let path = root.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
