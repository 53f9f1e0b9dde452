//! Scenario-file problems must surface as `file:line:` diagnostics on
//! stderr with exit code 1 — the CLI's reason to exist over editing
//! Rust.

use resim_cli::run_for_test;
use resim_serve::{Client, ResultCache, Server};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-diag-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_on(test: &str, scenario: &str, args: &[&str]) -> (i32, String, String) {
    let dir = scratch(test);
    let path = dir.join("s.toml");
    fs::write(&path, scenario).unwrap();
    let mut full = args.to_vec();
    full.extend(["-s", path.to_str().unwrap()]);
    let result = run_for_test(&full);
    fs::remove_dir_all(&dir).unwrap();
    result
}

#[test]
fn typo_in_key_reports_file_and_line() {
    let (code, out, err) = run_on("typo", "[engine]\nwidth = 4\nwidht = 2\n", &["describe"]);
    assert_eq!(code, 1);
    assert_eq!(out, "");
    assert!(err.contains("s.toml:3:"), "diagnostic must carry file:line — got {err}");
    assert!(err.contains("widht"), "{err}");
}

#[test]
fn structural_config_errors_are_diagnostics_too() {
    let (code, _, err) = run_on("structural", "[engine]\nmem_read_ports = 4\n", &["describe"]);
    assert_eq!(code, 1);
    assert!(err.contains("memory ports"), "{err}");

    let (code, _, err) = run_on(
        "geometry",
        "[engine.predictor]\nkind = \"bimodal\"\nsize = 1000\n",
        &["describe"],
    );
    assert_eq!(code, 1);
    assert!(err.contains("s.toml:3:"), "{err}");
    assert!(err.contains("power of two"), "{err}");
}

#[test]
fn syntax_errors_carry_their_line() {
    let (code, _, err) = run_on("syntax", "[engine]\nwidth = \n", &["run"]);
    assert_eq!(code, 1);
    assert!(err.contains("s.toml:2:"), "{err}");
}

#[test]
fn missing_scenario_file_is_reported() {
    let (code, _, err) = run_for_test(&["run", "-s", "/nonexistent/s.toml"]);
    assert_eq!(code, 1);
    assert!(err.contains("cannot read scenario"), "{err}");
}

#[test]
fn sample_without_plan_is_pointed_out() {
    let (code, _, err) = run_on("noplan", "[engine]\nwidth = 4\n", &["sample"]);
    assert_eq!(code, 1);
    assert!(err.contains("[sample]"), "{err}");
}

#[test]
fn sweep_problems_resolve_lazily_with_context() {
    // `describe` must resolve the sweep and report its problems...
    let (code, _, err) = run_on(
        "badsweep",
        "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n",
        &["describe"],
    );
    assert_eq!(code, 1);
    assert!(err.contains("at least one configuration"), "{err}");

    // ...while `run` on the same file does not care.
    let (code, _, err) = run_on(
        "badsweep2",
        "[workload]\nbudget = 500\n[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n",
        &["run"],
    );
    assert_eq!(code, 0, "stderr: {err}");
}

/// A `[sweep] stats` key, which older scenarios may carry, is an
/// ordinary unknown key, locally and over the wire.
#[test]
fn removed_stats_key_is_an_unknown_key() {
    let scenario = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n\
                    stats = \"lite\"\n[[sweep.config]]\nname = \"a\"\n";
    let (code, _, err) = run_on("stats-sweep", scenario, &["sweep"]);
    assert_eq!(code, 1);
    assert!(err.contains("s.toml:5: unknown key \"stats\""), "{err}");

    let server = Arc::new(Server::bind("127.0.0.1:0", ResultCache::in_memory(), 1).unwrap());
    let addr = server.local_addr().to_string();
    let handle = {
        let server = server.clone();
        std::thread::spawn(move || server.run().expect("serve loop"))
    };
    let (code, _, err) = run_on("stats-submit", scenario, &["submit", "--addr", &addr]);
    assert_eq!(code, 1);
    assert!(err.contains("[bad-scenario]"), "{err}");
    assert!(err.contains("line 5: unknown key \"stats\""), "{err}");
    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn replaying_a_foreign_trace_warns_about_the_fingerprint() {
    let dir = scratch("fingerprint");
    let perfect = dir.join("perfect.toml");
    let twolevel = dir.join("twolevel.toml");
    let trace = dir.join("t.trace");
    fs::write(
        &perfect,
        "[engine.predictor]\nkind = \"perfect\"\n[workload]\nbudget = 2000\n",
    )
    .unwrap();
    fs::write(&twolevel, "[workload]\nbudget = 2000\n").unwrap();

    let (code, _, err) = run_for_test(&[
        "trace", "-s", perfect.to_str().unwrap(), "-o", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");

    // Replaying a perfect-predictor trace on the two-level scenario
    // runs, but says what it is doing.
    let (code, out, err) = run_for_test(&[
        "run", "-s", twolevel.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("fingerprint mismatch"), "{out}");

    // The matching scenario replays without the warning.
    let (code, out, _) = run_for_test(&[
        "run", "-s", perfect.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    assert!(!out.contains("fingerprint mismatch"), "{out}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replaying_a_stale_trace_warns_on_explicit_workload_mismatch() {
    let dir = scratch("stale");
    let scenario = dir.join("s.toml");
    let engine_only = dir.join("engine-only.toml");
    let trace = dir.join("t.trace");
    fs::write(&scenario, "[workload]\nname = \"gzip\"\nseed = 1\nbudget = 2000\n").unwrap();
    fs::write(&engine_only, "[engine]\nrb_size = 32\n").unwrap();

    // The trace is written with an overridden seed...
    let (code, _, err) = run_for_test(&[
        "trace", "-s", scenario.to_str().unwrap(),
        "--seed", "999",
        "-o", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");

    // ...so replaying it against the scenario's [workload] warns.
    let (code, out, err) = run_for_test(&[
        "run", "-s", scenario.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("seed 999") && out.contains("seed 1"), "{out}");

    // A scenario with no [workload] section replays anything quietly.
    let (code, out, err) = run_for_test(&[
        "run", "-s", engine_only.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(!out.contains("warning"), "{out}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replaying_an_alien_file_is_an_error() {
    let dir = scratch("alien");
    let scenario = dir.join("s.toml");
    let bogus = dir.join("bogus.trace");
    fs::write(&scenario, "[workload]\nbudget = 100\n").unwrap();
    fs::write(&bogus, b"ELF!not-a-trace").unwrap();
    let (code, _, err) = run_for_test(&[
        "run",
        "-s",
        scenario.to_str().unwrap(),
        "--trace",
        bogus.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("RSTR"), "magic mismatch must be explained: {err}");
    fs::remove_dir_all(&dir).unwrap();
}
