//! `hydra` — command-line front end for the HYDRA-C framework.
//!
//! Reads a plain-text system specification, runs the period-selection
//! algorithms and all four schemes, prints the integration report and
//! (optionally) validates the selected periods in simulation.
//!
//! ```console
//! $ cargo run --bin hydra -- analyze rover.sys
//! $ cargo run --bin hydra -- analyze rover.sys --strategy exhaustive --simulate 60
//! $ cargo run --bin hydra -- example > rover.sys   # print a template spec
//! ```
//!
//! A missing or unparsable value, or an argument the subcommand does
//! not take, exits with status 2 and the usage text; an unreadable or
//! malformed spec exits with status 1.
//!
//! Spec format (one directive per line, `#` comments):
//!
//! ```text
//! cores 2
//! rt  navigation 240 500        # name wcet_ms period_ms [deadline_ms]
//! rt  camera     1120 5000
//! pin navigation 0              # optional; unpinned RT tasks are best-fit
//! pin camera     1
//! sec tripwire   5342 10000     # name wcet_ms tmax_ms
//! sec kmod       223  10000
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use hydra_c::analysis::CarryInStrategy;
use hydra_c::hydra::sensitivity::{rt_wcet_margin, security_wcet_margin};
use hydra_c::hydra::{select_periods, Scheme};
use hydra_c::model::prelude::*;
use hydra_c::partition::{partition_rt_tasks, FitHeuristic, SortOrder};
use hydra_c::sim::{SecurityPlacement, SimConfig, Simulation};

/// A parsed specification, before assembly.
#[derive(Debug, Default, PartialEq)]
struct Spec {
    cores: usize,
    rt: Vec<(String, u64, u64, Option<u64>)>,
    sec: Vec<(String, u64, u64)>,
    pins: HashMap<String, usize>,
}

/// Parses the spec text. Returns `(spec, errors)`; the spec is usable
/// only when `errors` is empty.
fn parse_spec(text: &str) -> (Spec, Vec<String>) {
    let mut spec = Spec::default();
    let mut errors = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut err = |msg: String| errors.push(format!("line {}: {msg}", lineno + 1));
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[0] {
            "cores" => match fields.get(1).and_then(|v| v.parse::<usize>().ok()) {
                Some(c) if c > 0 => spec.cores = c,
                _ => err("cores needs a positive integer".into()),
            },
            "rt" => {
                if fields.len() < 4 {
                    err("rt needs: name wcet_ms period_ms [deadline_ms]".into());
                    continue;
                }
                match (
                    fields[2].parse::<u64>(),
                    fields[3].parse::<u64>(),
                    fields.get(4).map(|v| v.parse::<u64>()),
                ) {
                    (Ok(c), Ok(t), None) => spec.rt.push((fields[1].into(), c, t, None)),
                    (Ok(c), Ok(t), Some(Ok(d))) => {
                        spec.rt.push((fields[1].into(), c, t, Some(d)));
                    }
                    _ => err("rt parameters must be integers (milliseconds)".into()),
                }
            }
            "sec" => {
                if fields.len() < 4 {
                    err("sec needs: name wcet_ms tmax_ms".into());
                    continue;
                }
                match (fields[2].parse::<u64>(), fields[3].parse::<u64>()) {
                    (Ok(c), Ok(t)) => spec.sec.push((fields[1].into(), c, t)),
                    _ => err("sec parameters must be integers (milliseconds)".into()),
                }
            }
            "pin" => {
                if fields.len() < 3 {
                    err("pin needs: rt_task_name core_index".into());
                    continue;
                }
                match fields[2].parse::<usize>() {
                    Ok(core) => {
                        spec.pins.insert(fields[1].into(), core);
                    }
                    Err(_) => err("pin core index must be an integer".into()),
                }
            }
            other => err(format!("unknown directive `{other}`")),
        }
    }
    if spec.cores == 0 {
        errors.push("missing `cores` directive".into());
    }
    if spec.sec.is_empty() {
        errors.push("no security tasks (`sec` directives) given".into());
    }
    (spec, errors)
}

/// Assembles the parsed spec into a [`System`].
fn assemble(spec: &Spec) -> Result<System, String> {
    let platform = Platform::new(spec.cores).map_err(|e| e.to_string())?;
    let rt_tasks: Result<Vec<RtTask>, String> = spec
        .rt
        .iter()
        .map(|(name, c, t, d)| {
            let task = match d {
                None => RtTask::new(Duration::from_ms(*c), Duration::from_ms(*t)),
                Some(d) => RtTask::with_deadline(
                    Duration::from_ms(*c),
                    Duration::from_ms(*t),
                    Duration::from_ms(*d),
                ),
            };
            task.map(|t| t.labeled(name.clone()))
                .map_err(|e| format!("rt task `{name}`: {e}"))
        })
        .collect();
    let rt = RtTaskSet::new_rate_monotonic(rt_tasks?);

    // Pins are by name; everything else is best-fit around them. For
    // simplicity: if *any* pin is given, all tasks must be pinned.
    let partition = if spec.pins.is_empty() {
        partition_rt_tasks(
            platform,
            &rt,
            FitHeuristic::BestFit,
            SortOrder::DecreasingUtilization,
        )
        .map_err(|e| format!("RT partitioning failed: {e}"))?
    } else {
        let assignment: Result<Vec<CoreId>, String> = rt
            .iter()
            .map(|task| {
                let name = task.label().unwrap_or_default();
                spec.pins
                    .get(name)
                    .map(|&c| CoreId::new(c))
                    .ok_or_else(|| format!("task `{name}` has no pin but others do"))
            })
            .collect();
        Partition::new(platform, assignment?).map_err(|e| e.to_string())?
    };

    let sec = SecurityTaskSet::new(
        spec.sec
            .iter()
            .map(|(name, c, t)| {
                SecurityTask::new(Duration::from_ms(*c), Duration::from_ms(*t))
                    .map(|s| s.labeled(name.clone()))
                    .map_err(|e| format!("security task `{name}`: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?,
    );
    System::new(platform, rt, partition, sec).map_err(|e| e.to_string())
}

const EXAMPLE_SPEC: &str = "\
# HYDRA-C system specification — the paper's rover platform.
cores 2
rt  navigation 240  500
rt  camera     1120 5000
pin navigation 0
pin camera     1
sec tripwire   5342 10000
sec kmod       223  10000
";

fn analyze(path: &str, strategy: CarryInStrategy, simulate_s: Option<u64>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (spec, errors) = parse_spec(&text);
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("error: {e}");
        }
        return ExitCode::FAILURE;
    }
    let system = match assemble(&spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{system}");
    for core in system.platform().cores() {
        let names: Vec<String> = system
            .rt_tasks_on(core)
            .iter()
            .map(|&i| system.rt_tasks()[i].label().unwrap_or("rt").to_owned())
            .collect();
        println!(
            "  {core}: {} (U = {:.3})",
            names.join(", "),
            system.rt_utilization_on(core)
        );
    }

    match select_periods(&system, strategy) {
        Ok(sel) => {
            println!("\nselected monitoring periods (HYDRA-C, {strategy:?}):");
            for (i, task) in system.security_tasks().iter().enumerate() {
                println!(
                    "  {:<16} T* = {:>8.1} ms   (T^max {:>8.1} ms, WCRT {:>8.1} ms)",
                    task.label().unwrap_or("sec"),
                    sel.periods[i].as_ms(),
                    task.t_max().as_ms(),
                    sel.response_times[i].as_ms(),
                );
            }
            if let Some(m) = security_wcet_margin(&system, strategy) {
                println!("  security WCET margin: {m:.3}x");
            }
            if let Some(m) = rt_wcet_margin(&system, strategy) {
                println!("  RT WCET margin      : {m:.3}x");
            }
            if let Some(seconds) = simulate_s {
                let specs = hydra_c::sim::system_specs(
                    &system,
                    sel.periods.as_slice(),
                    SecurityPlacement::Migrating,
                );
                let labels: Vec<String> = specs.iter().map(|s| s.label.clone()).collect();
                let out = Simulation::new(system.platform(), specs)
                    .run(&SimConfig::new(Duration::from_ms(seconds * 1000)));
                println!(
                    "\nsimulated {seconds} s: {} deadline misses, {} context switches, {} migrations",
                    out.metrics.total_deadline_misses(),
                    out.metrics.context_switches,
                    out.metrics.migrations,
                );
                let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                print!("{}", out.metrics.per_task_report(&label_refs));
            }
        }
        Err(e) => println!("\nHYDRA-C: UNSCHEDULABLE — {e}"),
    }

    println!("\nscheme comparison:");
    for scheme in Scheme::all() {
        let outcome = scheme.evaluate(&system, strategy);
        match outcome.objective() {
            Some(obj) => println!(
                "  {:<12} schedulable, Σ periods = {:.1} ms",
                scheme.label(),
                obj.as_ms()
            ),
            None => println!("  {:<12} rejected", scheme.label()),
        }
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "\
usage: hydra <analyze|example> [...]
  hydra example                   print a template specification
  hydra analyze <spec-file>       integrate + report
    --strategy exhaustive|topdiff carry-in handling (default topdiff)
    --simulate SECONDS            validate the selection in simulation";

/// `hydra analyze`'s command line: the spec file, the carry-in strategy
/// and the simulated seconds. An unknown flag, a second spec file, or a
/// flag whose value is missing or does not parse is an error naming it.
fn analyze_args(args: &[String]) -> Result<(&str, CarryInStrategy, Option<u64>), String> {
    let mut path = None;
    let mut strategy = CarryInStrategy::TopDiff;
    let mut simulate_s = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--strategy" => {
                strategy = match value()? {
                    "topdiff" => CarryInStrategy::TopDiff,
                    "exhaustive" => CarryInStrategy::Exhaustive,
                    other => {
                        return Err(format!("--strategy `{other}`: use exhaustive or topdiff"))
                    }
                }
            }
            "--simulate" => {
                let seconds = value()?;
                let seconds = seconds
                    .parse()
                    .map_err(|e| format!("--simulate `{seconds}`: {e}"))?;
                simulate_s = Some(seconds);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown argument `{flag}`")),
            spec if path.is_none() => path = Some(spec),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let path = path.ok_or("missing <spec-file>")?;
    Ok((path, strategy, simulate_s))
}

/// Names what the command line got wrong, prints the usage text and
/// returns exit status 2.
fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example") => match args.get(1) {
            Some(extra) => usage(&format!("unexpected argument `{extra}`")),
            None => {
                print!("{EXAMPLE_SPEC}");
                ExitCode::SUCCESS
            }
        },
        Some("analyze") => match analyze_args(&args[1..]) {
            Ok((path, strategy, simulate_s)) => analyze(path, strategy, simulate_s),
            Err(e) => usage(&e),
        },
        Some(other) => usage(&format!("unknown subcommand `{other}`")),
        None => usage("missing subcommand"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_spec_parses_cleanly() {
        let (spec, errors) = parse_spec(EXAMPLE_SPEC);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(spec.cores, 2);
        assert_eq!(spec.rt.len(), 2);
        assert_eq!(spec.sec.len(), 2);
        assert_eq!(spec.pins["navigation"], 0);
    }

    #[test]
    fn example_spec_assembles_to_the_rover() {
        let (spec, _) = parse_spec(EXAMPLE_SPEC);
        let system = assemble(&spec).unwrap();
        assert_eq!(system.num_cores(), 2);
        assert!((system.min_total_utilization() - 1.2605).abs() < 1e-9);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let (_, errors) = parse_spec("cores 2\nbogus x\nsec s 1 10\n");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("line 2:"));
    }

    #[test]
    fn missing_sections_are_reported() {
        let (_, errors) = parse_spec("rt a 1 10\n");
        assert!(errors.iter().any(|e| e.contains("cores")));
        assert!(errors.iter().any(|e| e.contains("security")));
    }

    #[test]
    fn partial_pins_are_rejected_at_assembly() {
        let text = "cores 2\nrt a 1 10\nrt b 1 10\npin a 0\nsec s 1 100\n";
        let (spec, errors) = parse_spec(text);
        assert!(errors.is_empty());
        let err = assemble(&spec).unwrap_err();
        assert!(err.contains("no pin"), "{err}");
    }

    #[test]
    fn unpinned_specs_use_best_fit() {
        let text = "cores 2\nrt a 60 100\nrt b 60 100\nsec s 10 1000\n";
        let (spec, errors) = parse_spec(text);
        assert!(errors.is_empty());
        let system = assemble(&spec).unwrap();
        // Two 60% tasks cannot share a core; best-fit separates them.
        let p = system.partition();
        assert_ne!(p.core_of(0), p.core_of(1));
    }

    #[test]
    fn bad_numbers_are_errors_not_panics() {
        let (_, errors) = parse_spec("cores two\nrt a x 10\nsec s 1 y\npin a z\n");
        // Four line-level parse errors, plus the resulting structural
        // errors (no cores, no security tasks survived parsing).
        assert_eq!(errors.len(), 6, "{errors:?}");
        assert!(errors.iter().filter(|e| e.starts_with("line")).count() == 4);
    }
}
