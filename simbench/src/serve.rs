//! `serve` — simulation as a service.
//!
//! The server is `resim serve` with an on-disk cache directory, running
//! in its own process so its peak RSS is its alone. One stock
//! `resim_serve::Client` (default socket options) plays a fixed,
//! seed-determined sequence of small grids in a closed loop: `submit`,
//! then `wait`, then the next submission. First-seen grids simulate
//! every cell and write RSCE entries; overlapping grids simulate only
//! their new cells (`run_subset`); exact repeats are memory hits. A
//! submission is cold when the response's `simulated` is above 0, warm
//! otherwise. Every served CSV must equal the local `SweepRunner`
//! stable CSV of the same scenario, computed before timing starts.

use crate::span::Tracer;
use crate::stats::{median, tail};
use crate::{derive_seed, peak_rss_mb, sweep, Outcome, Tally};
use resim_core::Fnv64;
use resim_serve::Client;
use resim_toml::json::JsonValue;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The hidden command-line flag that turns the benchmark binary into
/// `resim serve` (see `main.rs`).
pub const SERVE_CHILD_FLAG: &str = "--serve-child";

/// SPEC models the grids draw from.
const MODELS: [&str; 5] = ["gzip", "bzip2", "parser", "vortex", "vpr"];

/// Fixed operation counts of one serve run.
///
/// The shares are chosen, not measured from use: the repository holds
/// no record of real service traffic. Each count is sized for what it
/// must show (see `METHODOLOGY.md`), and none depends on run length.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Correct-path instructions per trace.
    pub budget: usize,
    /// First-seen grids. Fixed: the server keeps every trace it
    /// generates, so its RSS grows with each distinct trace.
    pub new_grids: usize,
    /// Grids that extend a first-seen grid with four more RB sizes.
    pub overlaps: usize,
    /// Exact repeats of earlier first-seen grids.
    pub repeats: usize,
    /// Server start-ups timed for `setup_s`: the workload's server, then
    /// throwaway servers spread evenly through the sequence.
    pub setups: usize,
}

impl Plan {
    /// The plan of every serve run: 40 cold submissions (24 first-seen,
    /// 16 overlaps) and 75 warm ones, so each class's tail has at least
    /// ten samples beyond it.
    pub const STANDARD: Plan = Plan {
        budget: 100_000,
        new_grids: 24,
        overlaps: 16,
        repeats: 75,
        setups: 9,
    };
}

/// One planned submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Scenario TOML text.
    pub text: String,
    /// Cells in the grid.
    pub cells: u64,
    /// Cells the server must simulate (the rest are memory hits).
    pub simulated: u64,
}

/// A grid of one SPEC model × widths {2, 4} × `rb_sizes` at one seed.
fn grid_text(model: &str, rb_sizes: &[u32], seed: u64, budget: usize) -> String {
    let rbs: Vec<String> = rb_sizes.iter().map(u32::to_string).collect();
    format!(
        "[sweep]\nworkloads = [\"{model}\"]\nbudgets = [{budget}]\nseeds = [{seed}]\n\n\
         [sweep.grid]\nwidths = [2, 4]\nrb_sizes = [{}]\n",
        rbs.join(", ")
    )
}

/// RB sizes of a first-seen grid, and of the overlap that extends it.
const NEW_RBS: [u32; 3] = [16, 32, 64];
const OVERLAP_RBS: [u32; 7] = [16, 24, 32, 48, 64, 128, 256];

/// The submission sequence for `seed`: a deterministic interleaving of
/// first-seen grids (one model, one new trace, 6 cells), overlaps (a
/// first-seen grid plus four RB sizes: 8 of its 14 cells are new, about
/// the work of a first-seen grid) and exact repeats of first-seen grids,
/// opening with a first-seen grid.
pub fn sequence(seed: u64, plan: Plan) -> Vec<Submission> {
    // (model, seed, overlapped) of each first-seen grid.
    let mut grids: Vec<(&'static str, u64, bool)> = Vec::new();
    let mut sent: Vec<(String, u64)> = Vec::new();
    let (mut new_left, mut ovl_left, mut rep_left) = (plan.new_grids, plan.overlaps, plan.repeats);
    let mut out = Vec::new();
    for step in 0u64.. {
        let r = derive_seed(seed, 1000 + step);
        let can_overlap = ovl_left > 0 && grids.iter().any(|g| !g.2);
        let can_repeat = rep_left > 0 && !sent.is_empty();
        // Weighted by what is left, so the classes stay interleaved.
        let weights = [
            new_left as u64,
            if can_overlap { ovl_left as u64 } else { 0 },
            if can_repeat { rep_left as u64 } else { 0 },
        ];
        let total: u64 = weights.iter().sum();
        if total == 0 {
            break;
        }
        let mut pick = r % total;
        let class = weights
            .iter()
            .position(|&w| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("pick < total");
        let r = r >> 8;
        let (text, cells, simulated) = match class {
            0 => {
                new_left -= 1;
                let model = MODELS[r as usize % MODELS.len()];
                let grid_seed = derive_seed(seed, 5000 + grids.len() as u64) % 1_000_000;
                grids.push((model, grid_seed, false));
                let cells = 2 * NEW_RBS.len() as u64;
                (
                    grid_text(model, &NEW_RBS, grid_seed, plan.budget),
                    cells,
                    cells,
                )
            }
            1 => {
                ovl_left -= 1;
                let open: Vec<usize> = (0..grids.len()).filter(|&i| !grids[i].2).collect();
                let g = &mut grids[open[r as usize % open.len()]];
                g.2 = true;
                let cells = 2 * OVERLAP_RBS.len() as u64;
                let new_cells = 2 * (OVERLAP_RBS.len() - NEW_RBS.len()) as u64;
                (
                    grid_text(g.0, &OVERLAP_RBS, g.1, plan.budget),
                    cells,
                    new_cells,
                )
            }
            _ => {
                rep_left -= 1;
                let (text, cells) = sent[r as usize % sent.len()].clone();
                (text, cells, 0)
            }
        };
        // Repeats replay first-seen grids only, so the cells delivered
        // per submission do not depend on the seed.
        if class == 0 {
            sent.push((text.clone(), cells));
        }
        out.push(Submission {
            text,
            cells,
            simulated,
        });
    }
    out
}

/// A `resim serve` child process.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProcess {
    /// Starts `exe` in serve mode on a free local port with `cache_dir`,
    /// and waits for its listening banner.
    ///
    /// # Errors
    ///
    /// The spawn error, or a child that exits before announcing its
    /// address.
    pub fn start(exe: &Path, cache_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .arg(SERVE_CHILD_FLAG)
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("resim-serve listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address: {banner:?}"))
            }
        }
    }

    /// Connects a stock client.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The server's peak RSS so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the server to shut down over `client` and waits for the
    /// process to exit.
    ///
    /// # Errors
    ///
    /// A refused shutdown or a non-zero exit.
    pub fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        // Drain the exit summary so the server never writes to a
        // closed pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // After a clean stop the child has been reaped and both calls
        // are no-ops; otherwise this ends a server left behind by an
        // error, so no process outlives the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts a server with an empty cache under `dir` and times it until
/// its first `ping` is answered.
///
/// # Errors
///
/// Start-up, connect or ping failures.
pub fn start_timed(exe: &Path, dir: &Path) -> Result<(ServerProcess, Client, f64), String> {
    let cache = dir.join("cache");
    if cache.exists() {
        std::fs::remove_dir_all(&cache).map_err(|e| e.to_string())?;
    }
    let t0 = Instant::now();
    let server = ServerProcess::start(exe, &cache)?;
    let mut client = server.connect()?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok((server, client, t0.elapsed().as_secs_f64()))
}

/// The result of one submission.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Cells the server simulated.
    pub simulated: u64,
    /// Seconds from `submit` to the final `wait` response.
    pub latency_s: f64,
    /// Seconds of the `submit` round trip alone.
    pub submit_s: f64,
    /// FNV-1a hash of the served CSV.
    pub csv_fnv: u64,
}

/// One operation: `submit` then `wait`, with the served CSV and the
/// simulated-cell count checked.
pub fn submit(
    client: &mut Client,
    sub: &Submission,
    reference: &str,
    tracer: &Tracer,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let accepted = tracer
        .time("serve.submit", || client.submit(&sub.text))
        .map_err(|e| format!("submit: {e}"))?;
    let submit_s = t0.elapsed().as_secs_f64();
    let job = accepted
        .get("job")
        .and_then(JsonValue::as_u64)
        .ok_or("submit response lacks a job id")?;
    let done = tracer
        .time("serve.wait", || client.wait(job, |_| {}))
        .map_err(|e| format!("wait: {e}"))?;
    let latency_s = t0.elapsed().as_secs_f64();
    let csv = done.get("csv").and_then(JsonValue::as_str).unwrap_or("");
    if csv != reference {
        return Err(format!(
            "job {job}: served CSV differs from the local reference"
        ));
    }
    let simulated = done
        .get("simulated")
        .and_then(JsonValue::as_u64)
        .unwrap_or(u64::MAX);
    if simulated != sub.simulated {
        return Err(format!(
            "job {job}: simulated {simulated} cells, the cache contract says {}",
            sub.simulated
        ));
    }
    Ok(Served {
        simulated,
        latency_s,
        submit_s,
        csv_fnv: Fnv64::hash_bytes(csv.as_bytes()),
    })
}

/// Local reference CSVs of every distinct text in `subs`.
///
/// # Errors
///
/// The first reference that fails.
pub fn references(subs: &[Submission]) -> Result<HashMap<String, String>, String> {
    let mut refs = HashMap::new();
    for s in subs {
        if !refs.contains_key(&s.text) {
            refs.insert(
                s.text.clone(),
                sweep::reference_csv(&s.text, sweep::THREADS)?,
            );
        }
    }
    Ok(refs)
}

/// A named integer counter from a `metrics` response.
pub fn counter(metrics: &JsonValue, name: &str) -> Option<u64> {
    metrics.get("counters")?.get(name)?.as_u64()
}

/// Runs the whole workload; `exe` is the benchmark binary, re-run in
/// serve mode.
///
/// # Errors
///
/// Set-up failures (server start, references); failed operations are
/// counted in the outcome instead.
pub fn run(
    exe: &Path,
    dir: &Path,
    seed: u64,
    plan: Plan,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let subs = sequence(seed, plan);
    let refs = references(&subs)?;

    // Set-up: start-up until the first ping is answered. Throwaway
    // servers repeat it through the sequence, so `setup_s` is a median
    // over the same host phases as the submissions.
    let (server, mut client, first) = start_timed(exe, dir)?;
    let mut setups = vec![first];
    let setup_every = (subs.len() / plan.setups.max(1)).max(1);

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let (mut cold_s, mut all_s) = (0.0, 0.0);
    let (mut insns, mut cells) = (0u64, 0u64);
    let mut csvs = Fnv64::new();
    for (i, sub) in subs.iter().enumerate() {
        if i > 0 && i % setup_every == 0 && setups.len() < plan.setups {
            let (probe, mut probe_client, s) = start_timed(exe, &dir.join("setup"))?;
            probe.stop(&mut probe_client)?;
            setups.push(s);
        }
        let Some(served) = tally.record(submit(&mut client, sub, &refs[&sub.text], tracer)) else {
            continue;
        };
        all_s += served.latency_s;
        cells += sub.cells;
        csvs.write_u64(served.csv_fnv);
        if served.simulated > 0 {
            cold_ms.push(served.latency_s * 1e3);
            cold_s += served.latency_s;
            insns += served.simulated * plan.budget as u64;
        } else {
            warm_ms.push(served.latency_s * 1e3);
        }
    }

    let expected_sim: u64 = subs.iter().map(|s| s.simulated).sum();
    let expected_mem: u64 = subs.iter().map(|s| s.cells - s.simulated).sum();
    let counts = tally.record(
        client
            .metrics()
            .map_err(|e| format!("metrics: {e}"))
            .and_then(|m| {
                let sim = counter(&m, "serve_cells_simulated").unwrap_or(u64::MAX);
                let mem = counter(&m, "serve_cells_served_mem").unwrap_or(u64::MAX);
                if (sim, mem) == (expected_sim, expected_mem) {
                    Ok((sim, mem))
                } else {
                    Err(format!(
                        "server counted {sim} simulated / {mem} memory hits, expected {expected_sim} / {expected_mem}"
                    ))
                }
            }),
    );
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    tally.record(server.stop(&mut client));

    let (cold_tail, cold_pct, cold_n) = tail(&cold_ms);
    let (warm_tail, warm_pct, warm_n) = tail(&warm_ms);
    out.metric("setup_s", median(&setups), "s");
    out.metric("sim_mips", insns as f64 / cold_s / 1e6, "Minsn/s");
    out.metric("cells_per_s", cells as f64 / all_s, "1/s");
    out.metric("cold_p50_ms", median(&cold_ms), "ms");
    out.metric("cold_tail_ms", cold_tail, "ms");
    out.metric("warm_p50_ms", median(&warm_ms), "ms");
    out.metric("warm_tail_ms", warm_tail, "ms");
    out.metric("peak_rss_mb", rss, "MB");
    out.notes.push(format!(
        "cold: tail p{cold_pct:.1} of {cold_n}; warm: tail p{warm_pct:.1} of {warm_n}; {} submissions",
        subs.len()
    ));
    if let Some((sim, mem)) = counts {
        out.counts.insert("serve.cells_simulated", sim);
        out.counts.insert("serve.cells_served_mem", mem);
    }
    out.counts.insert("serve.csv_fnv", csvs.finish());
    out.tally = tally;
    Ok(out)
}
