//! End-to-end tests of the `cloudlb` CLI binary.

use std::process::Command;

fn cloudlb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cloudlb"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn array(v: &serde_json::Value) -> &[serde_json::Value] {
    match v {
        serde_json::Value::Array(items) => items,
        other => panic!("expected a JSON array, got {other:?}"),
    }
}

#[test]
fn run_subcommand_reports_penalty() {
    let out = cloudlb(&["run", "--app", "jacobi2d", "--cores", "4", "--iters", "20"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("jacobi2d on 4 cores"), "{stdout}");
    assert!(stdout.contains("penalty"), "{stdout}");
    assert!(stdout.contains("W/node"), "{stdout}");
}

#[test]
fn run_subcommand_json_is_parseable() {
    let out = cloudlb(&[
        "run", "--app", "wave2d", "--cores", "4", "--iters", "20", "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(v["scenario"]["app"], "wave2d");
    assert_eq!(v["scenario"]["cores"], 4);
    assert_eq!(v["scenario"]["iterations"], 20);
    assert!(v["penalty"].as_f64().expect("number") > 0.0);
    assert!(v["base_s"].as_f64().expect("number") > 0.0);
    assert_eq!(array(&v["impacts"]).len(), 0, "no chaos layer is on");
}

/// `run --json` describes the run it made: a clean machine has no
/// interference penalty.
#[test]
fn run_json_reports_the_scenario_it_ran() {
    let out = cloudlb(&[
        "run", "--app", "jacobi2d", "--cores", "8", "--iters", "30", "--bg", "none", "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(v["scenario"]["bg"], "None");
    assert_eq!(v["penalty"].as_f64().expect("number"), 0.0);
}

/// The JSON record carries one impact per active layer, and its counters
/// are the ones the text report prints.
#[test]
fn run_json_carries_the_network_impact_and_counters() {
    let args = [
        "run", "--app", "jacobi2d", "--cores", "8", "--iters", "30", "--net-fault", "flaky_cloud",
    ];
    let text = cloudlb(&args);
    assert!(text.status.success(), "{}", String::from_utf8_lossy(&text.stderr));
    let stdout = String::from_utf8_lossy(&text.stdout);
    let lost: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("network: "))
        .and_then(|l| l.split(' ').next())
        .expect("network line")
        .parse()
        .expect("lost copies");

    let out = cloudlb(&[&args[..], &["--json"]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    let impacts = array(&v["impacts"]);
    assert_eq!(impacts.len(), 1, "{impacts:?}");
    assert_eq!(impacts[0]["layer"], "Network");
    assert_eq!(v["net"]["lost_copies"].as_u64().expect("number"), lost);
}

/// Under `--json` the sweep prints the points on stdout; the summary
/// footer of `--stream-summary` goes to stderr.
#[test]
fn matrix_stream_summary_json_prints_the_points() {
    let out = cloudlb(&[
        "matrix", "--app", "jacobi2d", "--fast", "--iters", "10", "--jobs", "2",
        "--stream-summary", "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    let points = array(&v);
    assert_eq!(points.len(), 2, "one point per core count of --fast");
    assert_eq!(points[0]["cores"], 4);
    assert!(String::from_utf8_lossy(&out.stderr).contains("streaming summary"));
}

#[test]
fn fig1_subcommand_prints_a_timeline() {
    let out = cloudlb(&["fig1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interfered"), "{stdout}");
    assert!(stdout.contains("pe   0"), "{stdout}");
}

#[test]
fn bad_flags_fail_with_usage() {
    for args in [&["run", "--cores", "7"][..], &["bogus"][..], &[][..]] {
        let out = cloudlb(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn trace_subcommand_renders_timeline_and_profile() {
    let out = cloudlb(&["trace", "--app", "jacobi2d", "--cores", "4", "--iters", "10"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("legend:"), "{stdout}");
    assert!(stdout.contains("usage profile"), "{stdout}");
    assert!(stdout.contains("% app"), "{stdout}");
}

#[test]
fn scenario_file_drives_a_run() {
    let path = std::env::temp_dir().join("cloudlb_cli_test_scenario.json");
    std::fs::write(
        &path,
        r#"{"app":"wave2d","cores":4,"iterations":15,"strategy":"cloudrefine",
            "lb_period":5,"bg":{"TwoCore":{"demand_frac":1.0}},"bg_weight":1.0,
            "seed":3,"trace":false}"#,
    )
    .expect("temp file");
    let out = cloudlb(&["run", "--scenario", path.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wave2d on 4 cores"), "{stdout}");
}

#[test]
fn missing_scenario_file_fails_cleanly() {
    let out = cloudlb(&["run", "--scenario", "/nonexistent/scn.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}
