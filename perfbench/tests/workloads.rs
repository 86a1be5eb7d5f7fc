//! Tiny configurations of every workload and of the layer ladder: each
//! must pass all of its correctness checks with no failed operation.
//! Run with `cargo test --release` (the sweep re-derives the tracked
//! record files, which is slow unoptimized).

use std::path::PathBuf;

use hydra_experiments::service::{record_workload, ServiceConfig};
use perfbench::fleet::Mode;
use perfbench::ladder::{self, LadderScale};
use perfbench::serve::{self, ServeScale};
use perfbench::sweep::{self, SweepScale};
use perfbench::trace::Tracer;
use perfbench::{build_daemon, Outcome};

/// The load client counts the process's threads, so the tests that
/// start threads run one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(name: &str) -> PathBuf {
    let dir = perfbench::repo_root()
        .join(".bench_run")
        .join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_clean(outcome: &Outcome) {
    assert!(outcome.problems.is_empty(), "{:#?}", outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    assert!(outcome.correct());
}

fn tiny_serve() -> ServeScale {
    ServeScale {
        fleets: 2,
        tenants: 4,
        requests: 300,
        passes: 2,
        setups: 2,
        window: 4,
    }
}

fn serve_tiny(mode: Mode, name: &str) {
    let _serial = serial();
    let bin = build_daemon().expect("rts_adaptd builds");
    let scale = tiny_serve();
    let fleets = serve::record(&scale, 3);
    let dir = scratch(name);
    let (outcome, layers) = serve::run(mode, &bin, &dir, &fleets, &scale, &mut Tracer::new(false))
        .expect("fleet starts");
    let _ = std::fs::remove_dir_all(&dir);
    assert_clean(&outcome);
    for metric in [
        "setup_s",
        "throughput_per_s",
        "latency_p50_us",
        "latency_p99_us",
        "rss_peak_mb",
    ] {
        let value = outcome
            .get(metric)
            .unwrap_or_else(|| panic!("{metric} missing"));
        assert!(value.is_finite() && value > 0.0, "{metric} = {value}");
    }
    // CPU time comes in 10 ms ticks: a tiny run may read zero.
    assert!(outcome.get("cpu_us_per_op").is_some_and(|v| v >= 0.0));
    if mode == Mode::Durable {
        assert_eq!(layers.adopted, scale.fleets * scale.passes * scale.tenants);
    }
}

#[test]
fn tiny_serve_durable_passes_every_check() {
    serve_tiny(Mode::Durable, "durable");
}

#[test]
fn tiny_serve_volatile_passes_every_check() {
    serve_tiny(Mode::Volatile, "volatile");
}

#[test]
fn tiny_design_sweep_passes_every_check() {
    let _serial = serial();
    let scale = SweepScale {
        per_group: 3,
        setups: 2,
        cross_check: 2,
    };
    let outcome = sweep::run(9, &scale, &mut Tracer::new(false));
    assert_clean(&outcome);
    assert_eq!(outcome.get("throughput_per_s").map(|v| v > 0.0), Some(true));
}

#[test]
fn tiny_ladder_reports_every_layer() {
    let _serial = serial();
    let bin = build_daemon().expect("rts_adaptd builds");
    let dir = scratch("ladder");
    let mut tracer = Tracer::new(true);
    let scale = LadderScale {
        stream: ServeScale {
            fleets: 1,
            setups: 1,
            passes: 1,
            ..tiny_serve()
        },
        solver_samples: 20,
        sweep_per_group: 1,
    };
    let mut outcome = ladder::run(&bin, &dir, 4, &scale, &mut tracer).expect("ladder runs");
    let _ = std::fs::remove_dir_all(&dir);
    ladder::self_times(&tracer, &mut outcome);
    assert_clean(&outcome);
    for layer in ladder::LAYERS {
        assert!(
            outcome
                .metrics
                .iter()
                .any(|(name, _, _)| name.starts_with(layer)),
            "no metric for layer {layer}"
        );
    }
    assert_eq!(outcome.get("replication.delivered_ratio"), Some(1.0));
    assert_eq!(outcome.get("journal.fsyncs_per_accept"), Some(1.0));
}

/// The in-process recording the serving checks compare against, at the
/// tracked service configuration.
#[test]
fn tracked_config_verdict_populations() {
    let recorded = record_workload(&ServiceConfig::new(100_000));
    assert_eq!((recorded.accepted, recorded.rejected), (99_576, 424));
}
