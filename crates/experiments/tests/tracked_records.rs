//! The tracked sweep records are what today's solver computes: every
//! record file under `results/sweep_records/` loads through the store
//! and equals, record for record, a fresh `run_sweep` of its own
//! configuration. A record file goes stale only when the population
//! legitimately changes; regenerate it with the figure bins' `--fresh`
//! flag (`fig7a_acceptance --fresh` rewrites both n50 files).

use std::path::{Path, PathBuf};

use hydra_experiments::{run_sweep, SweepConfig, SweepStore, SCHEMA_VERSION};
use rts_analysis::semi::CarryInStrategy;

fn records_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sweep_records")
}

/// The configuration a record file is keyed by, read back from its name
/// (`sweep_v1_c4_n50_s45241_topdiff.tsv`).
fn config_of(name: &str) -> SweepConfig {
    let key = name
        .strip_prefix(&format!("sweep_v{SCHEMA_VERSION}_"))
        .and_then(|rest| rest.strip_suffix(".tsv"))
        .unwrap_or_else(|| panic!("{name} is not a v{SCHEMA_VERSION} record file"));
    let fields: Vec<&str> = key.split('_').collect();
    let number = |field: &str, tag: char| -> u64 {
        field
            .strip_prefix(tag)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{name}: bad `{tag}` field {field:?}"))
    };
    let [cores, per_group, seed, strategy] = fields[..] else {
        panic!("{name}: expected four key fields");
    };
    let mut config = SweepConfig::new(number(cores, 'c') as usize, number(per_group, 'n') as usize);
    config.seed = number(seed, 's');
    config.strategy = match strategy {
        "topdiff" => CarryInStrategy::TopDiff,
        "exhaustive" => CarryInStrategy::Exhaustive,
        other => panic!("{name}: unknown strategy {other:?}"),
    };
    config
}

#[test]
fn every_tracked_record_file_equals_a_fresh_sweep() {
    let dir = records_dir();
    let store = SweepStore::at(&dir);
    // The canonical populations: the bench configuration and the two
    // default figure configurations.
    for config in [
        SweepConfig::new(2, 25),
        SweepConfig::new(2, 50),
        SweepConfig::new(4, 50),
    ] {
        let path = store.path_for(&config);
        assert!(path.exists(), "{} is missing", path.display());
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read the record store")
        .map(|entry| entry.expect("list the record store").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".tsv"))
        .collect();
    names.sort();
    for name in &names {
        let config = config_of(name);
        let tracked = store
            .load(&config)
            .unwrap_or_else(|| panic!("{name} does not load as its own configuration"));
        let fresh = run_sweep(&config, |_| ());
        assert_eq!(tracked.records.len(), fresh.records.len(), "{name}");
        for (i, (tracked, fresh)) in tracked.records.iter().zip(&fresh.records).enumerate() {
            // Two header lines precede the records.
            assert_eq!(
                tracked,
                fresh,
                "{name} line {} (group {}) differs from a fresh sweep",
                i + 3,
                tracked.group
            );
        }
    }
}
