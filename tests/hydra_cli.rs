//! The `hydra` command line, driven as a subprocess: a flag whose value
//! is missing or does not parse, and any argument the subcommand does
//! not take, exit 2 naming it before any analysis runs; the flags it
//! documents still work.

use std::path::PathBuf;
use std::process::{Command, Output};

const HYDRA: &str = env!("CARGO_BIN_EXE_hydra");

fn hydra(args: &[&str]) -> Output {
    Command::new(HYDRA).args(args).output().expect("run hydra")
}

/// The CLI's own template spec (the rover), written to a file unique
/// to `tag` so parallel tests never share one.
fn rover_spec(tag: &str) -> PathBuf {
    let example = hydra(&["example"]);
    assert!(example.status.success());
    let path = std::env::temp_dir().join(format!("hydra_cli_{tag}_{}.sys", std::process::id()));
    std::fs::write(&path, &example.stdout).expect("write the spec");
    path
}

#[test]
fn bad_arguments_exit_with_usage_naming_them() {
    let spec = rover_spec("refused");
    let spec = spec.to_str().expect("utf-8 temp path");
    for (args, named) in [
        (&["analyze", spec, "--simulate", "6O"][..], "6O"),
        (&["analyze", spec, "--strategi", "exhaustive"], "--strategi"),
        (&["analyze", spec, "--strategy"], "--strategy"),
        (&["analyze", spec, "--simulate"], "--simulate"),
        (&["analyze", spec, spec], spec),
        (&["example", "rover"], "rover"),
        // Refused before as well, but with status 1.
        (&["analyze", spec, "--strategy", "bogus"], "bogus"),
        (&["analyse", spec], "analyse"),
    ] {
        let out = hydra(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
        assert!(stderr.contains("usage: hydra"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not analyze");
    }
    let _ = std::fs::remove_file(spec);
}

/// The control: both documented flags are honoured, in either order
/// around the spec file.
#[test]
fn documented_flags_are_honoured() {
    let spec = rover_spec("accepted");
    let spec = spec.to_str().expect("utf-8 temp path");
    for args in [
        &[
            "analyze",
            spec,
            "--strategy",
            "exhaustive",
            "--simulate",
            "2",
        ][..],
        &[
            "analyze",
            "--simulate",
            "2",
            "--strategy",
            "exhaustive",
            spec,
        ],
    ] {
        let out = hydra(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("(HYDRA-C, Exhaustive)"), "{stdout}");
        assert!(
            stdout.contains("simulated 2 s: 0 deadline misses"),
            "{stdout}"
        );
    }
    let _ = std::fs::remove_file(spec);
}
