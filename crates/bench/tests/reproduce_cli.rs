//! CLI contract of the `reproduce` driver, mirroring the `tunedb` CLI suite
//! (`crates/tunestore/tests/tunedb_cli.rs`): `--list` enumerates the figure
//! harnesses and exits 0 without running anything; usage errors exit 2 with
//! a one-line diagnostic, never a panic.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn list_prints_every_figure_harness_and_exits_zero() {
    let output = reproduce(&["--list"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "--list must not warn: {stderr}");
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        names,
        ["fig1", "table1", "fig6", "fig7", "fig9", "fig11", "fig12"],
        "--list prints exactly the known harnesses, one per line, in paper order"
    );
    // Every listed name must be accepted by --only (the list is the
    // contract for scripting subsets).
    for name in names {
        let probe = reproduce(&["--only", name, "--list"]);
        assert_eq!(probe.status.code(), Some(0), "--only {name} rejected");
    }
}

#[test]
fn unknown_only_target_names_itself_and_lists_the_valid_ones() {
    let output = reproduce(&["--only", "fig99"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one-line diagnostic, got: {stderr}");
    assert_eq!(
        lines[0],
        "reproduce: unknown target 'fig99' (valid targets: fig1, table1, fig6, fig7, fig9, fig11, fig12)",
        "the diagnostic must quote the bad name and enumerate every valid target"
    );
    // The same contract holds for a bad name buried in a comma list.
    let output = reproduce(&["--only", "fig1,nope"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown target 'nope'"),
        "list parsing must name the offending entry: {stderr}"
    );
}

#[test]
fn usage_errors_exit_with_code_two() {
    for args in [
        vec!["--frobnicate"],
        vec!["--store"],
        vec!["--only"],
        vec!["--only", "fig99"],
        vec!["--warm"],                // --warm needs --store
        vec!["--verify"],              // --verify needs --store
        vec!["--profile"],             // --profile needs an output path
        vec!["--sim-workers"],         // needs a worker count
        vec!["--sim-workers", "0"],    // zero workers is meaningless
        vec!["--sim-workers", "many"], // not a number
        vec!["--cache-mode"],          // needs a mode
        vec!["--cache-mode", "wrong"], // not a known tier
    ] {
        let output = reproduce(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?}: expected usage error, stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "args {args:?}: panicked instead of reporting: {stderr}"
        );
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "args {args:?}: one-line diagnostic");
        assert!(
            lines[0].starts_with("reproduce: "),
            "args {args:?}: diagnostic names the binary: {stderr}"
        );
    }
}

#[test]
fn sim_workers_is_respected_in_smoke_runs() {
    let output = reproduce(&["--smoke", "--only", "fig11", "--sim-workers", "2"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("sim-workers=2"),
        "the trace sharding line reports the requested worker count: {stdout}"
    );
    assert!(
        stdout.contains("shards"),
        "fig11 reports its shard plan: {stdout}"
    );
}

#[test]
fn cache_mode_is_accepted_and_reported_in_smoke_runs() {
    // Every valid spelling runs and announces itself on stdout; the
    // analytic tier produces the same table shape with estimated counters.
    for mode in ["exact", "analytic"] {
        let output = reproduce(&["--smoke", "--only", "table1", "--cache-mode", mode]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(0),
            "mode {mode}: stderr: {stderr}"
        );
        assert!(
            stdout.contains(&format!("cache mode: {mode}")),
            "mode {mode}: the run announces its cache tier: {stdout}"
        );
        assert!(
            stdout.contains("L1 Loads (single iteration)"),
            "mode {mode}: Table 1 keeps its trace-backed rows: {stdout}"
        );
    }
    // `auto`, the retired split tier, is a usage error whose diagnostic
    // names the valid modes.
    let output = reproduce(&["--cache-mode", "auto"]);
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&output.stderr).trim_end(),
        r#"reproduce: --cache-mode needs one of exact or analytic, got "auto""#
    );
}

#[test]
fn fig12_prints_both_the_strong_and_the_weak_scaling_table() {
    let output = reproduce(&["--smoke", "--only", "fig12"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    for table in [
        "=== Figure 12a: strong scaling (seconds per run) ===",
        "=== Figure 12b: weak scaling (seconds per run) ===",
    ] {
        assert!(stdout.contains(table), "missing {table:?}: {stdout}");
    }
}

#[test]
fn smoke_run_never_reports_a_negative_speedup_as_faster() {
    let output = reproduce(&["--smoke"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let summary = stdout
        .lines()
        .find(|line| line.starts_with("daisy vs hand-tuned Fortran: "))
        .unwrap_or_else(|| panic!("fig11 prints its summary line: {stdout}"));
    assert!(
        summary.ends_with("% faster") || summary.ends_with("% slower"),
        "{summary}"
    );
    for line in stdout.lines().filter(|line| line.ends_with("% faster")) {
        let value = line
            .rsplit(' ')
            .nth(1)
            .and_then(|word| word.strip_suffix('%'))
            .unwrap_or_default();
        assert!(
            !value.starts_with('-'),
            "a negative gain must read as slower: {line}"
        );
    }
}

#[test]
fn profile_writes_a_parseable_json_lines_profile_and_verbose_prints_phases() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("profile.json");
    let path_str = path.to_str().expect("utf8 path");

    let output = reproduce(&[
        "--smoke",
        "--only",
        "fig7",
        "--verbose",
        "--profile",
        path_str,
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("phases ["),
        "--verbose prints per-phase timings: {stdout}"
    );
    assert!(
        stdout.contains("================ profile ================"),
        "--profile prints the aggregate span tree: {stdout}"
    );
    assert!(
        stdout.contains(&format!("profile written to {}", path.display())),
        "--profile names the output file: {stdout}"
    );

    // The file round-trips through the same parser daisyprof uses, and the
    // run's schedule spans made it in.
    let contents = std::fs::read_to_string(&path).expect("profile file exists");
    let profile = telemetry::Profile::from_json_lines(&contents).expect("profile parses");
    assert_eq!(profile.label, "reproduce");
    assert!(
        profile.spans.keys().any(|path| path.contains("schedule")),
        "profile records scheduler spans: {contents}"
    );
    assert!(
        !profile.counters.is_empty(),
        "profile records counters: {contents}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
