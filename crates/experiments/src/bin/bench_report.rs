//! Timed benchmark of the Fig. 7a design-space sweep, emitting a
//! machine-readable `results/BENCH_sweep.json` so the hot path's
//! performance trajectory is tracked across PRs.
//!
//! Usage: `bench_report [--cores M] [--per-group N] [--jobs N]
//!                      [--baseline-secs S] [--budget-secs S]
//!                      [--budget-multiple K] [--full]`
//!
//! Defaults match the acceptance configuration this repo benchmarks
//! against: 2 cores, 25 tasksets/group, 4 jobs. The sweep always runs
//! fresh (it *is* the benchmark — the record store is never read here);
//! afterwards the record population is persisted to
//! `results/sweep_records/`, so the figure bins regenerate from exactly
//! the records this timed run produced, and the report's statistics are
//! derived from that persisted population. Only the canonical
//! configuration rewrites the tracked `results/BENCH_sweep.json`;
//! reduced runs report to stdout only. `--baseline-secs` records a
//! reference wall time (e.g. the pre-optimization sequential run) and
//! adds the resulting speedup to the report. Two budget knobs turn the
//! run into a smoke test that exits non-zero on a hot-path regression:
//! `--budget-secs` is an absolute wall-clock cap, and
//! `--budget-multiple K` caps the run at `K ×` the wall time recorded in
//! the tracked `BENCH_sweep.json` (read *before* this run rewrites it) —
//! CI uses the multiple so the guard follows the tracked trajectory
//! instead of a hard-coded number. A flag given without a value or with
//! one that does not parse, and any argument that is not one of the
//! flags above, exit 2 before anything runs, so a malformed budget can
//! never silently disable its gate.

use hydra_core::schemes::Scheme;
use hydra_experiments::{
    arg_f64, reject_unknown_args, results_dir, run_sweep, SweepConfig, SweepStore,
};
use rts_taskgen::table3::{NUM_GROUPS, TASKSETS_PER_GROUP};

/// Every flag that takes a value (`--full` is the one that does not).
const FLAGS: [&str; 6] = [
    "--cores",
    "--per-group",
    "--jobs",
    "--baseline-secs",
    "--budget-secs",
    "--budget-multiple",
];

/// Reads `wall_secs` out of the tracked BENCH_sweep.json (no JSON dep:
/// the file is machine-written by this very binary, so a line scan is
/// exact enough — any parse failure just disables the multiple budget).
fn tracked_wall_secs() -> Option<f64> {
    let text = std::fs::read_to_string(results_dir().join("BENCH_sweep.json")).ok()?;
    let line = text.lines().find(|l| l.contains("\"wall_secs\""))?;
    line.split(':')
        .nth(1)?
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cores = hydra_experiments::arg_usize(&args, "--cores", 2, 2);
    let per_group = hydra_experiments::arg_usize(&args, "--per-group", 25, TASKSETS_PER_GROUP);
    let jobs = hydra_experiments::arg_usize(&args, "--jobs", 4, 4);
    let baseline_secs = arg_f64(&args, "--baseline-secs");
    let budget_secs = arg_f64(&args, "--budget-secs");
    let budget_multiple = arg_f64(&args, "--budget-multiple");
    reject_unknown_args(&args, &FLAGS, &["--full"]);
    // Resolve the relative budget against the *previous* tracked record,
    // before this run rewrites the file.
    let multiple_budget = match budget_multiple {
        Some(mult) => match tracked_wall_secs() {
            Some(tracked) => Some((mult, tracked)),
            None => {
                eprintln!(
                    "error: --budget-multiple given but no tracked wall_secs in {}",
                    results_dir().join("BENCH_sweep.json").display()
                );
                std::process::exit(1);
            }
        },
        None => None,
    };

    let config = SweepConfig::new(cores, per_group).with_jobs(jobs);
    eprint!("bench sweep M={cores} ({per_group}/group, {jobs} jobs): ");
    rts_analysis::phase_stats::reset();
    hydra_core::phase_stats::reset();
    let started = std::time::Instant::now();
    let sweep = run_sweep(&config, |g| eprint!("{g} "));
    let wall_secs = started.elapsed().as_secs_f64();
    let walks = rts_analysis::phase_stats::snapshot();
    let solver = hydra_core::phase_stats::snapshot();
    eprintln!("done");

    // Persist the population: the figure bins become thin readers of the
    // records this timed run produced, and the stats below are derived
    // from the persisted result so the report and the store cannot drift.
    let store = SweepStore::tracked();
    let store_path = match store.save(&sweep) {
        Ok(path) => {
            println!("wrote {}", path.display());
            path
        }
        Err(e) => {
            eprintln!("error: could not persist sweep records: {e}");
            std::process::exit(1);
        }
    };
    let sweep = store
        .load(&config)
        .expect("a just-persisted population must load back");

    let records = sweep.records.len();
    assert_eq!(
        records,
        NUM_GROUPS * per_group,
        "sweep lost records (some slots exhausted their regeneration \
         budget) — the benchmark population is no longer comparable"
    );
    let tasksets_per_sec = records as f64 / wall_secs;
    let accepted_hydra_c: usize = sweep
        .records
        .iter()
        .filter(|r| r.accepted(Scheme::HydraC))
        .count();

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fig7a_sweep\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"tasksets_per_group\": {per_group},\n"));
    json.push_str(&format!("  \"groups\": {NUM_GROUPS},\n"));
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!("  \"seed\": {},\n", config.seed));
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"accepted_hydra_c\": {accepted_hydra_c},\n"));
    json.push_str("  \"solver_phase\": {\n");
    json.push_str(&format!("    \"selections\": {},\n", solver.selections));
    json.push_str(&format!("    \"probes\": {},\n", solver.probes));
    json.push_str(&format!("    \"cascades\": {},\n", solver.cascades));
    json.push_str(&format!(
        "    \"mean_cascade_tasks\": {:.2},\n",
        solver.mean_cascade_tasks()
    ));
    json.push_str(&format!("    \"topdiff_walks\": {},\n", walks.walks));
    json.push_str(&format!("    \"topdiff_evals\": {},\n", walks.evals));
    json.push_str(&format!(
        "    \"mean_evals_per_walk\": {:.2},\n",
        walks.mean_evals()
    ));
    json.push_str(&format!(
        "    \"quick_confirms\": {}\n",
        walks.quick_confirms
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"record_store\": \"{}\",\n",
        store_path.display()
    ));
    json.push_str(&format!("  \"wall_secs\": {wall_secs:.4},\n"));
    json.push_str(&format!("  \"tasksets_per_sec\": {tasksets_per_sec:.2}"));
    if let Some(base) = baseline_secs {
        json.push_str(&format!(",\n  \"baseline_sequential_secs\": {base:.4}"));
        json.push_str(&format!(
            ",\n  \"speedup_vs_baseline\": {:.2}",
            base / wall_secs
        ));
    }
    json.push_str("\n}\n");

    // Only the canonical configuration updates the tracked trajectory
    // file — a reduced smoke run (CI) or an ad-hoc sweep must not
    // overwrite the PR-over-PR record with incomparable numbers.
    let canonical = cores == 2 && per_group == 25 && jobs == 4;
    if canonical {
        let dir = results_dir();
        let path = dir.join("BENCH_sweep.json");
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    } else {
        println!("non-canonical configuration: results/BENCH_sweep.json left untouched");
    }
    print!("{json}");

    if let Some(budget) = budget_secs {
        assert!(
            wall_secs <= budget,
            "sweep took {wall_secs:.2}s, over the {budget:.2}s budget — hot-path regression"
        );
        println!("within budget ({wall_secs:.2}s <= {budget:.2}s)");
    }
    if let Some((mult, tracked)) = multiple_budget {
        let budget = mult * tracked;
        assert!(
            wall_secs <= budget,
            "sweep took {wall_secs:.2}s, over {mult}x the tracked {tracked:.2}s \
             ({budget:.2}s) — hot-path regression vs results/BENCH_sweep.json"
        );
        println!("within tracked budget ({wall_secs:.2}s <= {mult} x {tracked:.2}s)");
    }
}
