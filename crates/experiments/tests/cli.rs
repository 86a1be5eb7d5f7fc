//! The two experiment binaries behind CI gates, `service_bench` and
//! `bench_report`, refuse a command line they cannot honour: a flag
//! whose value is missing or does not parse, and any argument that is
//! not one of their flags, exit 2 naming it — before any work runs and
//! before `results/` is touched. A malformed budget must never run as
//! "no budget", and a malformed size must never fall back to the
//! canonical configuration and rewrite a tracked file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

/// A uniquely named, initially empty working directory, removed on
/// drop: the binaries write `results/` relative to their working
/// directory, so each run gets one of its own.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "hydra_experiments_cli_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the working directory");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(bin: &str, args: &[&str], cwd: &Path) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("run the experiment binary")
}

/// Runs each `(args, named)` case from a fresh working directory and
/// asserts a usage failure: exit status 2, `named` in the error, and
/// no `results/` directory left behind.
fn assert_refused(bin: &str, cases: &[(&[&str], &str)]) {
    for (args, named) in cases {
        let dir = TempDir::new();
        let out = run(bin, args, dir.path());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(named),
            "{args:?}: the error must name {named}; stderr:\n{stderr}"
        );
        assert!(
            !dir.path().join("results").exists(),
            "{args:?} wrote results/ before refusing"
        );
    }
}

#[test]
fn service_bench_refuses_malformed_values_and_unknown_flags() {
    assert_refused(
        env!("CARGO_BIN_EXE_service_bench"),
        &[
            (&["--overhead-budget", "2%"], "--overhead-budget"),
            (&["--budget-secs", "6O"], "--budget-secs"),
            (&["--requests", "10k"], "--requests"),
            (&["--tenants", "4", "--requests"], "--requests"),
            (&["--seed", "-1"], "--seed"),
            (&["--conn", "64"], "--conn"),
            // The TCP replay grid and its stage assertions are gone.
            (&["--conns", "1"], "--conns"),
            (&["--reactors", "2"], "--reactors"),
            (&["--assert-stages"], "--assert-stages"),
        ],
    );
}

#[test]
fn bench_report_refuses_malformed_values_and_unknown_flags() {
    assert_refused(
        env!("CARGO_BIN_EXE_bench_report"),
        &[
            (&["--budget-multiple"], "--budget-multiple"),
            (&["--budget-multiple", "8x"], "--budget-multiple"),
            (&["--per-group", "1", "--jobs", "four"], "--jobs"),
            (&["--per-grup", "1"], "--per-grup"),
        ],
    );
}

/// The control: every flag `service_bench` documents is still accepted,
/// and a reduced configuration leaves the tracked file alone.
#[test]
fn service_bench_accepts_its_own_flags() {
    let dir = TempDir::new();
    let out = run(
        env!("CARGO_BIN_EXE_service_bench"),
        &[
            "--requests",
            "300",
            "--tenants",
            "4",
            "--shards",
            "2",
            "--batch",
            "64",
            "--seed",
            "7",
            "--budget-secs",
            "600",
        ],
        dir.path(),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("left untouched"), "stdout:\n{stdout}");
    assert!(!dir.path().join("results").exists());
}
