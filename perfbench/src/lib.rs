//! The repository benchmark: three workloads against the real programs,
//! end-to-end metrics from an untraced run, and per-layer metrics from a
//! traced run that times calls into each layer's public functions.
//!
//! * `serve_durable` — `rts_adaptd` primary with journal, compaction and
//!   replication to a journaled standby; the stream, replica catch-up,
//!   SIGKILL and `Coordinator::fail_over` ([`serve`]);
//! * `serve_volatile` — the same daemon, stream and seed with no journal
//!   ([`serve`]);
//! * `design_sweep` — the Fig. 7a Table 3 sweep on 2 and 4 cores, all four
//!   schemes cold ([`sweep`]).
//!
//! The traced run adds the layer ladder ([`ladder`]).

pub mod env;
pub mod fleet;
pub mod ladder;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, queries, task sets).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Informational `key=value` lines (sample counts, client CPU, …).
    pub info: Vec<String>,
    /// Wall seconds of the measured phase (for the tracing overhead).
    pub measured_s: f64,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The value of a metric already added.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Whether every check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The repository root this benchmark was built from.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// Builds `rts_adaptd` from the repository's own workspace (release
/// profile, into `CARGO_TARGET_DIR` or `<repo>/.bench_build`) and returns
/// its path.
///
/// # Errors
///
/// Cargo failed.
pub fn build_daemon() -> Result<PathBuf, String> {
    let root = repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join(".bench_build"), PathBuf::from);
    let target = if target.is_absolute() {
        target
    } else {
        std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(target)
    };
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rts-adapt",
            "--bin",
            "rts_adaptd",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rts_adaptd failed ({status})"));
    }
    Ok(target.join("release").join("rts_adaptd"))
}
