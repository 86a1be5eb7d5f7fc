//! Regeneration harness for every table and figure of the HYDRA-C paper.
//!
//! | Artifact | Module / binary |
//! |---|---|
//! | Table 1 (security task catalog) | `table1_catalog` binary over [`ids_sim::catalog`] |
//! | Table 2 (rover platform) | `table2_platform` binary over [`ids_sim::rover`] |
//! | Table 3 (generator parameters) | `table3_params` binary over [`rts_taskgen::table3`] |
//! | Fig. 5a/5b (rover detection time & context switches) | [`fig5`], `fig5_rover` binary |
//! | Fig. 6 (period distance vs utilization) | [`sweep`], `fig6_period_quality` binary |
//! | Fig. 7a (acceptance ratios) | [`sweep`], `fig7a_acceptance` binary |
//! | Fig. 7b (period-vector distances) | [`sweep`], `fig7b_period_distance` binary |
//!
//! `run_all` regenerates everything and writes text + CSV to `results/`.
//! Every binary accepts an optional sample-size argument (`--trials N`,
//! `--per-group N`) and `--full` to use the paper's original sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig5;
pub mod report;
pub mod service;
pub mod stats;
pub mod store;
pub mod sweep;

pub use fig5::{run_fig5, PeriodProtocol, SchemeAggregate};
pub use report::{results_dir, write_figure_csv, TextTable};
pub use service::{
    record_workload, run_service_load, run_service_load_with, RecordedWorkload, ServiceConfig,
    ServiceReport,
};
pub use stats::{percent_faster, Summary};
pub use store::{SweepStore, SCHEMA_VERSION};
pub use sweep::{default_jobs, run_sweep, SweepConfig, SweepResult};

/// Exits with status 2 after naming what was wrong with the command
/// line: a binary refuses what it cannot honour instead of guessing.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// The value after `flag`, parsed; `None` when the flag is absent. A
/// missing or unparsable value is a usage error: a malformed budget must
/// not run as no budget, nor a malformed size as the default.
fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(at + 1) else {
        usage_error(&format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(parsed) => Some(parsed),
        Err(_) => usage_error(&format!("{flag} {value:?} is not a number")),
    }
}

/// Parses `--flag N` style arguments with a default, plus `--full`
/// overrides. An explicit `--flag N` always wins over `--full`, so e.g.
/// `--full --jobs 2` caps the worker count while still running the
/// paper-scale sweep. Tiny on purpose — no CLI dependency. A flag given
/// without a value, or with one that does not parse, exits with status 2
/// naming the flag.
#[must_use]
pub fn arg_usize(args: &[String], flag: &str, default: usize, full_value: usize) -> usize {
    arg_value(args, flag).unwrap_or(if arg_present(args, "--full") {
        full_value
    } else {
        default
    })
}

/// Parses an optional `--flag X` floating-point argument. A flag given
/// without a value, or with one that does not parse, exits with status 2
/// naming the flag.
#[must_use]
pub fn arg_f64(args: &[String], flag: &str) -> Option<f64> {
    arg_value(args, flag)
}

/// Exits with status 2 naming the first argument that is neither one of
/// `flags` (each of which takes the argument after it as its value) nor
/// one of `switches`: a mistyped flag must not run as if it were absent.
pub fn reject_unknown_args(args: &[String], flags: &[&str], switches: &[&str]) {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if flags.contains(&arg.as_str()) {
            args.next();
        } else if !switches.contains(&arg.as_str()) {
            usage_error(&format!("unknown argument {arg:?}"));
        }
    }
}

/// Whether a bare `--flag` switch is present.
#[must_use]
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_arg_parsing() {
        let args: Vec<String> = ["--baseline-secs", "5.56"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_f64(&args, "--baseline-secs"), Some(5.56));
        assert_eq!(arg_f64(&args, "--missing"), None);
        assert_eq!(arg_f64(&[], "--baseline-secs"), None);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--per-group", "7"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_usize(&args, "--per-group", 50, 250), 7);
        assert_eq!(arg_usize(&args, "--trials", 35, 100), 35);
        let full: Vec<String> = vec!["--full".into()];
        assert_eq!(arg_usize(&full, "--per-group", 50, 250), 250);
        assert_eq!(arg_usize(&[], "--per-group", 50, 250), 50);
        // An explicit value beats --full (e.g. `--full --jobs 2`).
        let both: Vec<String> = ["--full", "--jobs", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_usize(&both, "--jobs", 8, 8), 2);
        assert_eq!(arg_usize(&both, "--per-group", 50, 250), 250);
    }
}
