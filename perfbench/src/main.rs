//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics (from a separate
//! traced run plus the layer ladder) with `--trace 1`. Exits 1 when a
//! correctness check fails, 2 on a usage or environment error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::fleet::Mode;
use perfbench::ladder::{self, LadderScale};
use perfbench::serve::{self, ServeScale};
use perfbench::sweep::{self, SweepScale};
use perfbench::trace::Tracer;
use perfbench::{env, result_line, Outcome};

/// Run seconds per serving fleet: each fleet is one independently
/// seeded 64-tenant stream, so a run averages over several fleets.
const SECONDS_PER_FLEET: usize = 5;
/// Requests in each fleet's stream: enough for every tenant to reach the
/// 512-delta compaction threshold once.
const FLEET_STREAM: usize = 35_000;
/// Volatile passes over each fleet's stream (volatile serving is about
/// thirty times faster than durable serving on a 2-core box, so both
/// measure for about the same time).
const VOLATILE_PASSES: usize = 25;
/// Sweep task sets per utilization group and core count per `--seconds`.
const SWEEP_PER_GROUP_PER_SECOND: usize = 100;

const WORKLOADS: [&str; 3] = ["serve_durable", "serve_volatile", "design_sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: (number("--seconds")? as usize).max(1),
        trace,
    })
}

fn serve_scale(mode: Mode, seconds: usize, traced: bool) -> ServeScale {
    // The traced run serves one fleet once, so its spans stay small.
    ServeScale {
        fleets: if traced {
            1
        } else {
            seconds.div_ceil(SECONDS_PER_FLEET)
        },
        tenants: 64,
        requests: FLEET_STREAM,
        passes: if mode == Mode::Volatile && !traced {
            VOLATILE_PASSES
        } else {
            1
        },
        setups: if traced { 1 } else { 9 },
        window: 32,
    }
}

fn sweep_scale(seconds: usize, traced: bool) -> SweepScale {
    SweepScale {
        per_group: SWEEP_PER_GROUP_PER_SECOND * seconds / if traced { 4 } else { 1 },
        setups: if traced { 1 } else { 5 },
        cross_check: 5,
    }
}

/// One run of the workload; `traced` selects the traced-run scale.
fn run_workload(
    args: &Args,
    bin: Option<&Path>,
    dir: &Path,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mode = match args.workload.as_str() {
        "serve_durable" => Mode::Durable,
        "serve_volatile" => Mode::Volatile,
        _ => {
            return Ok(sweep::run(
                args.seed,
                &sweep_scale(args.seconds, traced),
                tracer,
            ))
        }
    };
    let scale = serve_scale(mode, args.seconds, traced);
    let fleets = serve::record(&scale, args.seed);
    let bin = bin.expect("serving workloads build the daemon");
    serve::run(mode, bin, dir, &fleets, &scale, tracer).map(|(outcome, _)| outcome)
}

fn merge(into: &mut Outcome, from: Outcome) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.problems.extend(from.problems);
    into.info.extend(from.info);
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let needs_daemon = args.trace || args.workload != "design_sweep";
    let bin = if needs_daemon {
        Some(perfbench::build_daemon()?)
    } else {
        None
    };
    let bin = bin.as_deref();
    if !args.trace {
        return run_workload(args, bin, dir, false, &mut Tracer::new(false));
    }
    // Traced run: the same workload untraced and traced (their difference
    // is the tracing overhead), then the layer ladder.
    let untraced = run_workload(
        args,
        bin,
        &dir.join("untraced"),
        true,
        &mut Tracer::new(false),
    )?;
    let mut tracer = Tracer::new(true);
    let traced = run_workload(args, bin, &dir.join("traced"), true, &mut tracer)?;
    let overhead = (traced.measured_s - untraced.measured_s) / untraced.measured_s * 100.0;
    let scale = LadderScale {
        stream: ServeScale {
            fleets: 1,
            tenants: 64,
            requests: 5_000,
            passes: 1,
            setups: 1,
            window: 32,
        },
        solver_samples: 1_000,
        sweep_per_group: 5,
    };
    let mut report = ladder::run(
        bin.expect("built above"),
        &dir.join("ladder"),
        args.seed,
        &scale,
        &mut tracer,
    )?;
    ladder::self_times(&tracer, &mut report);
    report.metric("trace.overhead_pct", overhead, "%");
    report.metric("trace.spans", tracer.spans().len() as f64, "count");
    let spans = dir
        .parent()
        .unwrap_or(dir)
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    report.info.push(format!(
        "traced measured_s={:.4} untraced measured_s={:.4} spans={}",
        traced.measured_s,
        untraced.measured_s,
        spans.display()
    ));
    merge(&mut report, untraced);
    merge(&mut report, traced);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = std::env::current_dir()
        .expect("a working directory")
        .join(".bench_run");
    let dir = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    println!("env {}", env::stamp(&dir));
    if args.workload == "serve_durable" && env::fs_type(&dir) == "tmpfs" {
        // fsync is free on tmpfs: that would measure a different program.
        eprintln!(
            "perfbench: refusing serve_durable with journals on tmpfs ({})",
            dir.display()
        );
        let _ = std::fs::remove_dir_all(&dir);
        return ExitCode::from(2);
    }
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.info {
        println!("info {line}");
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
