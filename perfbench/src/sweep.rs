//! The design-sweep workload: Table 3 task sets on 2 and 4 cores, all
//! four schemes evaluated cold through the public
//! `generate_workload` → `assemble_system` → `Scheme::evaluate` path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use hydra_core::assemble::assemble_system;
use hydra_core::schemes::Scheme;
use hydra_experiments::store::SweepStore;
use hydra_experiments::sweep::{run_sweep, SweepConfig, TasksetRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rts_analysis::semi::CarryInStrategy;
use rts_model::{PeriodVector, System};
use rts_partition::FitHeuristic;
use rts_taskgen::table3::{generate_workload, Table3Config, UtilizationGroup, NUM_GROUPS};

use crate::trace::Tracer;
use crate::{env, stats, Outcome};

/// Draws one slot may discard before it is left empty (the library
/// sweep's rule).
const MAX_ATTEMPTS_PER_SLOT: usize = 200;

/// Core counts of the sweep (the paper's Fig. 7a).
pub const CORES: [usize; 2] = [2, 4];

/// Size of one sweep run.
#[derive(Clone, Copy, Debug)]
pub struct SweepScale {
    /// Task sets per utilization group and core count.
    pub per_group: usize,
    /// Population set-ups timed for `setup_s`.
    pub setups: usize,
    /// Slots per group cross-checked against the library's `run_sweep`.
    pub cross_check: usize,
}

/// One generated, partitioned task set.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// Utilization group.
    pub group: usize,
    /// Slot index within the group.
    pub index: usize,
    /// Achieved `U/M` of the draw.
    pub norm_util: f64,
    /// The assembled system.
    pub system: System,
}

/// The per-slot child seed: SplitMix64 over `(seed, group, index)`, the
/// mix `hydra_experiments::sweep` uses, so a slot draws the same task
/// set here as in the library sweep.
#[must_use]
pub fn slot_seed(seed: u64, group: usize, index: usize) -> u64 {
    let tag = ((group as u64) << 32) | index as u64;
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates and partitions `per_group` task sets per group. Returns the
/// population and the number of draws it took.
pub fn prepare(
    cores: usize,
    per_group: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> (Vec<Prepared>, u64) {
    let table3 = Table3Config::for_cores(cores);
    let mut population = Vec::with_capacity(NUM_GROUPS * per_group);
    let mut draws = 0;
    for group in 0..NUM_GROUPS {
        for index in 0..per_group {
            let mut rng = StdRng::seed_from_u64(slot_seed(seed, group, index));
            let id = (group * per_group + index) as u64;
            for _ in 0..MAX_ATTEMPTS_PER_SLOT {
                draws += 1;
                let w = tracer.time("taskgen.generate", None, id, || {
                    generate_workload(&table3, UtilizationGroup::new(group), &mut rng)
                });
                let norm_util = w.normalized_utilization();
                let assembled = tracer.time("partition.assemble", None, id, || {
                    assemble_system(
                        w.platform,
                        w.rt_tasks,
                        w.security_tasks,
                        FitHeuristic::BestFit,
                    )
                });
                if let Ok(system) = assembled {
                    population.push(Prepared {
                        group,
                        index,
                        norm_util,
                        system,
                    });
                    break;
                }
            }
        }
    }
    (population, draws)
}

/// Evaluates all four schemes on every task set with `jobs` threads (the
/// calling thread is one of them). Returns the records in population
/// order and each task set's evaluation time in microseconds.
pub fn evaluate(
    population: &[Prepared],
    jobs: usize,
    tracer: &mut Tracer,
) -> (Vec<TasksetRecord>, Vec<f64>) {
    type Stamped = (usize, TasksetRecord, Instant, [Instant; Scheme::COUNT + 1]);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done: Vec<Stamped> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = population.get(i) else { break };
            let started = Instant::now();
            let mut stamps = [started; Scheme::COUNT + 1];
            let mut periods: [Option<PeriodVector>; Scheme::COUNT] = [None, None, None, None];
            for (k, slot) in periods.iter_mut().enumerate() {
                *slot = Scheme::from_index(k)
                    .evaluate(&p.system, CarryInStrategy::TopDiff)
                    .periods;
                stamps[k + 1] = Instant::now();
            }
            let record = TasksetRecord {
                group: p.group,
                norm_util: p.norm_util,
                t_max: PeriodVector::at_max(p.system.security_tasks()),
                periods,
            };
            done.push((i, record, started, stamps));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let others: Vec<_> = (1..jobs.max(1)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in others {
            done.extend(handle.join().expect("sweep worker panicked"));
        }
        done
    });
    done.sort_by_key(|d| d.0);
    let mut latencies = Vec::with_capacity(done.len());
    let mut records = Vec::with_capacity(done.len());
    for (i, record, started, stamps) in done {
        let end = stamps[Scheme::COUNT];
        latencies.push(end.duration_since(started).as_nanos() as f64 / 1e3);
        let parent = tracer.record("sweep.taskset", None, i as u64, started, end);
        for k in 0..Scheme::COUNT {
            tracer.record("solver.scheme", parent, i as u64, stamps[k], stamps[k + 1]);
        }
        records.push(record);
    }
    (records, latencies)
}

/// Runs the design sweep for `seed` (2 cores at `seed + 2`, 4 cores at
/// `seed + 4`, as the library's `SweepConfig::new` offsets its seed).
#[must_use]
pub fn run(seed: u64, scale: &SweepScale, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let jobs = env::nproc();

    let mut setup_s = Vec::new();
    let mut populations: Vec<Vec<Prepared>> = Vec::new();
    for _ in 0..scale.setups.max(1) {
        let started = Instant::now();
        let drawn: Vec<Vec<Prepared>> = CORES
            .iter()
            .map(|&cores| prepare(cores, scale.per_group, seed + cores as u64, tracer).0)
            .collect();
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(first) = populations.first() {
            let same = first
                .iter()
                .zip(&drawn[0])
                .all(|(a, b)| a.norm_util.to_bits() == b.norm_util.to_bits());
            out.check(same, || "population generation is not deterministic".into());
        }
        populations = drawn;
    }
    out.metric("setup_s", stats::median(&setup_s), "s");

    // Round r evaluates every ROUNDS-th task set from offset r of both
    // core counts, so every round holds the same mix of groups.
    let cpu0 = env::cpu_us("self");
    let started = Instant::now();
    let mut rounds = stats::Rounds::default();
    let mut evaluated: Vec<Vec<TasksetRecord>> = populations.iter().map(|_| Vec::new()).collect();
    for round in 0..stats::ROUNDS {
        for (population, records) in populations.iter().zip(&mut evaluated) {
            let share: Vec<Prepared> = population
                .iter()
                .skip(round)
                .step_by(stats::ROUNDS)
                .cloned()
                .collect();
            let share_started = Instant::now();
            let (done, latencies) = evaluate(&share, jobs, tracer);
            rounds.add(done.len(), share_started.elapsed().as_secs_f64(), latencies);
            records.extend(done);
        }
        rounds.close();
    }
    // Back to population order for the record checks.
    for records in &mut evaluated {
        let n = records.len();
        let mut ordered: Vec<Option<TasksetRecord>> = vec![None; n];
        let mut next = records.drain(..);
        for round in 0..stats::ROUNDS {
            for i in (round..n).step_by(stats::ROUNDS) {
                ordered[i] = next.next();
            }
        }
        drop(next);
        *records = ordered.into_iter().flatten().collect();
    }
    out.measured_s = started.elapsed().as_secs_f64();
    let cpu_us = env::cpu_us("self") - cpu0;
    let count: usize = evaluated.iter().map(Vec::len).sum();
    out.attempted = count as u64;
    out.metric("throughput_per_s", rounds.throughput(), "1/s");
    out.metric("latency_p50_us", rounds.latency(0.50), "us");
    out.metric("latency_p99_us", rounds.latency(0.99), "us");
    out.metric("cpu_us_per_op", cpu_us / count as f64, "us");
    out.metric("rss_peak_mb", env::peak_rss_mb("self"), "MB");
    let accepted: usize = evaluated
        .iter()
        .flatten()
        .filter(|r| r.accepted(Scheme::HydraC))
        .count();
    out.info.push(format!(
        "tasksets={count} jobs={jobs} rounds={} round_rate_range={:.3} samples_per_round>={} \
         beyond_p99>={} overall_per_s={:.1} hydra_c_accepted={accepted}",
        rounds.len(),
        rounds.throughput_range(),
        rounds.min_samples(),
        stats::samples_beyond(rounds.min_samples(), 0.99),
        count as f64 / out.measured_s,
    ));

    // The measured records equal the library sweep's for the first slots
    // of every group.
    for ((&cores, population), records) in CORES.iter().zip(&populations).zip(&evaluated) {
        let config = SweepConfig {
            cores,
            tasksets_per_group: scale.cross_check,
            seed: seed + cores as u64,
            strategy: CarryInStrategy::TopDiff,
            jobs,
        };
        let library = run_sweep(&config, |_| ());
        let ours: Vec<&TasksetRecord> = population
            .iter()
            .zip(records)
            .filter(|(p, _)| p.index < scale.cross_check)
            .map(|(_, r)| r)
            .collect();
        let same = ours.len() == library.records.len()
            && ours.iter().zip(&library.records).all(|(a, b)| *a == b);
        if !same {
            out.failed += 1;
        }
        out.check(same, || {
            format!("{cores} cores: records differ from run_sweep")
        });
    }
    check_tracked(&mut out, jobs);
    out
}

/// The tracked record files this workload reproduces every run. The
/// tracked 4-core file (`c4_n50_s45241`) is re-derived and its
/// difference reported, not failed: one of its 500 records (group 8)
/// carries a HYDRA-C period one tick above what the solver computes
/// today, so it must be regenerated before it can be a check.
const TRACKED: [(usize, usize, u64, bool); 2] = [(2, 50, 45239, true), (4, 50, 45241, false)];

/// Re-derives the tracked `results/sweep_records` populations through
/// this benchmark's own generate → assemble → evaluate path and compares
/// them record for record.
fn check_tracked(out: &mut Outcome, jobs: usize) {
    let store = SweepStore::at(crate::repo_root().join("results").join("sweep_records"));
    for (cores, per_group, seed, enforced) in TRACKED {
        let config = SweepConfig {
            cores,
            tasksets_per_group: per_group,
            seed,
            strategy: CarryInStrategy::TopDiff,
            jobs,
        };
        let mut off = Tracer::new(false);
        let (population, _) = prepare(cores, per_group, seed, &mut off);
        let (records, _) = evaluate(&population, jobs, &mut off);
        let tracked = store.load(&config).map_or_else(Vec::new, |t| t.records);
        let differing = tracked.iter().zip(&records).filter(|(a, b)| a != b).count()
            + tracked.len().abs_diff(records.len());
        let path = store.path_for(&config);
        out.info.push(format!(
            "tracked {}: {differing} of {} records differ",
            path.display(),
            records.len()
        ));
        if enforced {
            out.attempted += records.len() as u64;
            out.failed += differing as u64;
            out.check(differing == 0, || {
                format!(
                    "{differing} records differ from the tracked {}",
                    path.display()
                )
            });
        }
    }
}
