//! Machine-readable perf baselines (`BENCH_<name>.json`).
//!
//! The perf benches serialize one [`SweepRecord`] per run so CI (and
//! humans diffing two branches) can compare throughput without scraping
//! stdout. Records land in `CLOUDLB_BENCH_DIR` (default: the current
//! directory) as `BENCH_<name>.json`, and [`check_events_per_sec`]
//! implements the regression gate used by the CI `bench-fast` job.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One sweep's worth of perf telemetry, serialized to `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Record name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Whether `CLOUDLB_FAST` shrank the matrix.
    pub fast: bool,
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Core counts in the matrix.
    pub cores: Vec<usize>,
    /// Seeds averaged per cell.
    pub seeds: Vec<u64>,
    /// Iterations per run.
    pub iterations: usize,
    /// Total simulator runs executed (cells × seeds × 3 arms).
    pub runs: usize,
    /// Wall-clock for the whole sweep (seconds).
    pub wall_s: f64,
    /// Total simulator events popped across every run.
    pub sim_events: u64,
    /// `sim_events / wall_s` — the throughput the regression gate tracks.
    /// Always measured on the *clean-network* sweep, so the gate proves
    /// the chaos layer costs nothing when disabled.
    pub events_per_sec: f64,
    /// Largest live-event count any run's queue reached.
    pub peak_queue_depth: usize,
    /// Wall-clock of the informational flaky-network probe, seconds
    /// (0 when the probe did not run). Never gated — chaos runs are
    /// legitimately slower.
    #[serde(default)]
    pub flaky_wall_s: f64,
    /// Events/sec of the flaky-network probe (0 when it did not run).
    #[serde(default)]
    pub flaky_events_per_sec: f64,
    /// Wall-clock of the informational spot-storm elastic-membership
    /// probe, seconds (0 when the probe did not run). Never gated —
    /// evacuation churn is legitimately slower.
    #[serde(default)]
    pub storm_wall_s: f64,
    /// Events/sec of the spot-storm probe (0 when it did not run).
    #[serde(default)]
    pub storm_events_per_sec: f64,
    /// Steady-state LB windows the fast-forward engine macro-stepped
    /// across the sweep (0 when the engine was off).
    #[serde(default)]
    pub ff_windows: usize,
    /// Event pops those windows skipped (already folded into
    /// `sim_events`, so events/sec is comparable across modes).
    #[serde(default)]
    pub events_skipped: u64,
    /// Wall-clock of the same sweep with fast-forward disabled, seconds.
    /// Only the fastforward bench runs a comparison arm: its gate is on
    /// the *fast* arm, and the off arm documents the speedup on the same
    /// machine. `None` (serialized as `null`) when no comparison ran —
    /// older baselines wrote a misleading `0.0` instead.
    #[serde(default)]
    pub off_wall_s: Option<f64>,
    /// Events/sec of the fast-forward-off comparison arm (`None` = none
    /// ran).
    #[serde(default)]
    pub off_events_per_sec: Option<f64>,
    /// `events_per_sec / off_events_per_sec` (`None` when no comparison
    /// ran).
    #[serde(default)]
    pub speedup: Option<f64>,
}

/// One scale run's worth of telemetry (`BENCH_scale.json`): the paper's
/// setup blown up to cloud-datacenter size — 32k cores, 1M chares — run
/// clean with fast-forward pinned ON, plus a hierarchical-arm comparison
/// and a paper-scale quality-parity check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRecord {
    /// Record name; the file is `BENCH_scale.json`.
    pub name: String,
    /// Whether `CLOUDLB_FAST` shrank the cluster.
    pub fast: bool,
    /// Core count of the scale run.
    pub cores: usize,
    /// Total chares (32 per core; 1,048,576 at 32,768 cores).
    pub chares: usize,
    /// Over-decomposition factor (chares per core).
    pub chares_per_core: usize,
    /// Iterations per run.
    pub iterations: usize,
    /// LB period in iterations.
    pub lb_period: usize,
    /// Wall-clock of the gated flat-CloudRefine arm, seconds.
    pub wall_s: f64,
    /// Simulator events (pops + analytically skipped pops) of that arm.
    pub sim_events: u64,
    /// `sim_events / wall_s` — what the regression gate tracks.
    pub events_per_sec: f64,
    /// Largest live-event count the run's queue reached.
    pub peak_queue_depth: usize,
    /// Steady-state LB windows macro-stepped instead of simulated.
    pub ff_windows: usize,
    /// Event pops those windows skipped (folded into `sim_events`).
    pub events_skipped: u64,
    /// The flat arm was rerun and compared bit for bit (always true in a
    /// record that exists — a mismatch fails the bench instead).
    pub rerun_identical: bool,
    /// Wall-clock of the hierarchical arm at the same scale, seconds.
    pub hier_wall_s: f64,
    /// Events/sec of the hierarchical arm.
    pub hier_events_per_sec: f64,
    /// Hierarchical / flat makespan at scale (quality, not speed).
    pub hier_makespan_ratio: f64,
    /// Cluster size of the paper-scale quality-parity check (8 × 4).
    pub parity_cores: usize,
    /// Seeds the parity check averaged over.
    pub parity_seeds: Vec<u64>,
    /// Worst hier/flat makespan ratio across the parity seeds; the bench
    /// fails above 1.05.
    pub parity_worst_ratio: f64,
    /// Wall-clock budget (`CLOUDLB_SCALE_BUDGET_S`) the gated arm was
    /// held to (`None` = no budget set).
    #[serde(default)]
    pub budget_s: Option<f64>,
}

/// One streaming-pipeline bench run (`BENCH_pipeline.json`): the
/// packet-based sweep engine measured against the bench's reference
/// pool (claim-per-index, fully materialized) and the chunked schedule
/// it replaced, plus the memory-bound evidence the engine exists to
/// provide.
///
/// Four arms:
/// 1. **uniform** — the real Jacobi2D cell matrix through
///    [`cloudlb_core::evaluate_cells_stream`] (throughput, utilization,
///    reorder/live high-water marks) plus a packet-identical
///    reference-pool-vs-`pipeline_map` A/B over real runs, gated on
///    bit-identical results and on the pipeline staying within noise of
///    the reference pool;
/// 2. **skew replay** — one Mol3D-heavy straggler per 16 uniform cells;
///    per-packet costs are *measured* on real runs, then replayed as
///    timed waits so the arm benchmarks the scheduler (chunked barrier
///    vs the streaming pool) rather than the host's core count.
///    Gated at ≥ 1.3× over the chunked schedule;
/// 3. **skew real** — the same skewed profile over real simulator runs,
///    informational: on a single-core host both schedules serialize to
///    total work and the ratio sits at 1.0 (capacity-bound), while
///    multi-core hosts reproduce the replay arm's gap;
/// 4. **flood** — tens of thousands of trivial packets, gated on the
///    peak live-results count never exceeding `jobs + reorder window`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineRecord {
    /// Record name; the file is `BENCH_pipeline.json`.
    pub name: String,
    /// Whether `CLOUDLB_FAST` shrank the matrix.
    pub fast: bool,
    /// Worker count the pipeline ran with (clamped to ≥ 4: below that
    /// the scheduling comparison is vacuous).
    pub jobs: usize,
    /// Seeds in the uniform cell matrix.
    pub seeds: Vec<u64>,
    /// Iterations per uniform run.
    pub iterations: usize,
    /// Cells in the uniform matrix.
    pub cells: usize,
    /// Wall-clock of the uniform `evaluate_cells_stream` arm, seconds.
    pub wall_s: f64,
    /// Simulator events across the uniform arm.
    pub sim_events: u64,
    /// `sim_events / wall_s` — the field the `CLOUDLB_CHECK` gate reads.
    pub events_per_sec: f64,
    /// Finished cells per second through the streaming reducer.
    pub cells_per_sec: f64,
    /// Worker busy-time / (jobs × wall) for the uniform arm.
    pub utilization: f64,
    /// Reorder-buffer high-water mark of the uniform arm.
    pub reorder_peak: usize,
    /// Peak simultaneously-live results of the uniform arm.
    pub live_peak: usize,
    /// The memory bound: `jobs + reorder window`. Every arm's
    /// `live_peak` is gated ≤ this.
    pub live_bound: usize,
    /// Real runs in the reference-pool-vs-`pipeline_map` A/B.
    pub uniform_runs: usize,
    /// Best-of-5 wall-clock of the reference pool over those runs,
    /// seconds; each rep is the mean of 8 passes, alternating with the
    /// pipeline's (the key keeps its historical name so checked-in
    /// baselines stay comparable).
    pub uniform_par_map_wall_s: f64,
    /// Best-of-5 wall-clock of `pipeline_map` over the same runs, timed
    /// the same way.
    pub uniform_pipeline_wall_s: f64,
    /// `reference pool / pipeline` wall ratio (≥ 1 = pipeline at least
    /// matches). Gated ≥ 0.9 (within noise); typically ≥ 1.0.
    pub uniform_ratio: f64,
    /// The two A/B arms produced bit-identical `RunResult`s (a record
    /// that exists always says true — a mismatch fails the bench).
    pub uniform_identical: bool,
    /// Measured wall of one uniform Jacobi2D run, milliseconds.
    pub uniform_run_ms: f64,
    /// Iterations of the Mol3D straggler (20× the uniform count).
    pub straggler_iterations: usize,
    /// Measured wall of one straggler Mol3D run, milliseconds.
    pub straggler_run_ms: f64,
    /// `straggler_run_ms / uniform_run_ms` (measured; ≈ 20 on this
    /// profile).
    pub straggler_cost_ratio: f64,
    /// Straggler groups (16 uniform + 1 straggler each) in the skew arms.
    pub skew_groups: usize,
    /// Per-packet uniform replay duration, milliseconds.
    pub skew_replay_ms: f64,
    /// Replay wall under the chunked barrier schedule, seconds.
    pub skew_chunked_wall_s: f64,
    /// Replay wall through the streaming pipeline, seconds.
    pub skew_pipeline_wall_s: f64,
    /// `chunked / pipeline` replay ratio — gated ≥ 1.3.
    pub skew_ratio: f64,
    /// Replay wall under the unchunked reference pool (informational:
    /// dynamic claiming already dodges the straggler, at O(n) memory).
    pub skew_unchunked_wall_s: f64,
    /// `unchunked / pipeline` replay ratio (informational).
    pub skew_unchunked_ratio: f64,
    /// Real-run skew wall under the chunked schedule, seconds.
    pub skew_real_chunked_wall_s: f64,
    /// Real-run skew wall through the pipeline, seconds.
    pub skew_real_pipeline_wall_s: f64,
    /// `chunked / pipeline` over real runs — informational
    /// (capacity-bound at 1.0 on single-core hosts).
    pub skew_real_ratio: f64,
    /// Trivial packets pushed through the flood arm.
    pub flood_packets: usize,
    /// Peak live results during the flood — gated ≤ `live_bound`.
    pub flood_live_peak: usize,
    /// Reorder high-water mark during the flood.
    pub flood_reorder_peak: usize,
    /// Flood packets per second (pure engine overhead).
    pub flood_packets_per_sec: f64,
}

/// Path for `BENCH_<name>.json`, honouring `CLOUDLB_BENCH_DIR`.
pub fn bench_path(name: &str) -> PathBuf {
    let dir = std::env::var("CLOUDLB_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    PathBuf::from(dir).join(format!("BENCH_{name}.json"))
}

/// Serialize `value` to `BENCH_<name>.json` and return the path written.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = bench_path(name);
    write_to(&path, value);
    path
}

/// Serialize `value` to `<dir>/BENCH_<name>.json` (ignoring
/// `CLOUDLB_BENCH_DIR`) and return the path written. The baseline-refresh
/// binary uses this to land each record in both the checked-in baselines
/// directory and the repository root.
pub fn write_json_at<T: Serialize>(dir: &std::path::Path, name: &str, value: &T) -> PathBuf {
    let path = dir.join(format!("BENCH_{name}.json"));
    write_to(&path, value);
    path
}

fn write_to<T: Serialize>(path: &std::path::Path, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize bench record");
    std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Read a [`SweepRecord`] back from a baseline file.
pub fn read_sweep(path: &str) -> Result<SweepRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// The one field the regression gate needs. Parsing this view instead of
/// the full record lets [`check_events_per_sec`] gate against any
/// baseline shape — `BENCH_fast.json` ([`SweepRecord`]) and
/// `BENCH_scale.json` ([`ScaleRecord`]) alike.
#[derive(Deserialize)]
struct GateView {
    events_per_sec: f64,
}

fn read_gate(path: &str) -> Result<GateView, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Regression gate: fail if `current` events/sec fell more than
/// `max_regression` (a fraction, e.g. `0.25`) below the baseline at
/// `path`. Returns a human-readable verdict either way.
pub fn check_events_per_sec(
    current: f64,
    path: &str,
    max_regression: f64,
) -> Result<String, String> {
    let base = read_gate(path)?;
    let floor = base.events_per_sec * (1.0 - max_regression);
    let ratio = current / base.events_per_sec;
    if current < floor {
        Err(format!(
            "REGRESSION: {current:.0} events/s is {:.1}% of baseline {:.0} events/s \
             (floor {:.0}, allowed regression {:.0}%) from {path}",
            ratio * 100.0,
            base.events_per_sec,
            floor,
            max_regression * 100.0,
        ))
    } else {
        Ok(format!(
            "ok: {current:.0} events/s vs baseline {:.0} events/s ({:.1}%) from {path}",
            base.events_per_sec,
            ratio * 100.0,
        ))
    }
}

/// If `CLOUDLB_CHECK` names a baseline file, gate on it; exits the
/// process with status 1 on regression. No-op when the variable is unset.
pub fn maybe_check(current_events_per_sec: f64) {
    if let Ok(path) = std::env::var("CLOUDLB_CHECK") {
        match check_events_per_sec(current_events_per_sec, &path, 0.25) {
            Ok(msg) => println!("baseline check {msg}"),
            Err(msg) => {
                eprintln!("baseline check {msg}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> SweepRecord {
        SweepRecord {
            name: "test".into(),
            fast: true,
            jobs: 2,
            cores: vec![4, 8],
            seeds: vec![1],
            iterations: 60,
            runs: 12,
            wall_s: 1.5,
            sim_events: 3_000_000,
            events_per_sec: 2_000_000.0,
            peak_queue_depth: 37,
            flaky_wall_s: 0.4,
            flaky_events_per_sec: 1_500_000.0,
            storm_wall_s: 0.3,
            storm_events_per_sec: 1_400_000.0,
            ff_windows: 12,
            events_skipped: 240_000,
            off_wall_s: Some(4.5),
            off_events_per_sec: Some(600_000.0),
            speedup: Some(3.3),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: SweepRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // Sweeps without a fast-forward comparison arm write null, not a
        // misleading 0.0 — and null reads back as None.
        let mut no_off = record();
        no_off.off_wall_s = None;
        no_off.off_events_per_sec = None;
        no_off.speedup = None;
        let json = serde_json::to_string_pretty(&no_off).unwrap();
        assert!(json.contains("\"speedup\": null"), "{json}");
        let back: SweepRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, no_off);
    }

    #[test]
    fn scale_record_round_trips_and_gates() {
        let r = ScaleRecord {
            name: "scale".into(),
            fast: false,
            cores: 32768,
            chares: 1_048_576,
            chares_per_core: 32,
            iterations: 30,
            lb_period: 3,
            wall_s: 60.0,
            sim_events: 180_000_000,
            events_per_sec: 3_000_000.0,
            peak_queue_depth: 4_000_000,
            ff_windows: 8,
            events_skipped: 120_000_000,
            rerun_identical: true,
            hier_wall_s: 62.0,
            hier_events_per_sec: 2_900_000.0,
            hier_makespan_ratio: 1.0,
            parity_cores: 32,
            parity_seeds: vec![1, 2, 3],
            parity_worst_ratio: 1.01,
            budget_s: Some(600.0),
        };
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: ScaleRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // The gate reads a ScaleRecord baseline just like a SweepRecord.
        let dir = std::env::temp_dir().join("cloudlb_scale_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_json_at(&dir, "scale_test", &r);
        let path = path.to_str().unwrap();
        assert!(check_events_per_sec(2_500_000.0, path, 0.25).is_ok());
        assert!(check_events_per_sec(2_000_000.0, path, 0.25).is_err());
    }

    #[test]
    fn pipeline_record_round_trips_and_gates() {
        let r = PipelineRecord {
            name: "pipeline".into(),
            fast: true,
            jobs: 4,
            seeds: vec![1],
            iterations: 60,
            cells: 6,
            wall_s: 0.2,
            sim_events: 500_000,
            events_per_sec: 2_500_000.0,
            cells_per_sec: 30.0,
            utilization: 0.9,
            reorder_peak: 5,
            live_peak: 9,
            live_bound: 20,
            uniform_runs: 32,
            uniform_par_map_wall_s: 0.21,
            uniform_pipeline_wall_s: 0.20,
            uniform_ratio: 1.05,
            uniform_identical: true,
            uniform_run_ms: 6.0,
            straggler_iterations: 180,
            straggler_run_ms: 60.0,
            straggler_cost_ratio: 10.0,
            skew_groups: 4,
            skew_replay_ms: 6.0,
            skew_chunked_wall_s: 0.34,
            skew_pipeline_wall_s: 0.16,
            skew_ratio: 2.1,
            skew_unchunked_wall_s: 0.17,
            skew_unchunked_ratio: 1.06,
            skew_real_chunked_wall_s: 0.3,
            skew_real_pipeline_wall_s: 0.3,
            skew_real_ratio: 1.0,
            flood_packets: 20_000,
            flood_live_peak: 20,
            flood_reorder_peak: 16,
            flood_packets_per_sec: 400_000.0,
        };
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: PipelineRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // The CLOUDLB_CHECK gate reads a PipelineRecord baseline through
        // the same events_per_sec view as every other record shape.
        let dir = std::env::temp_dir().join("cloudlb_pipeline_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_json_at(&dir, "pipeline_test", &r);
        let path = path.to_str().unwrap();
        assert!(check_events_per_sec(2_400_000.0, path, 0.25).is_ok());
        assert!(check_events_per_sec(1_000_000.0, path, 0.25).is_err());
    }

    #[test]
    fn write_and_check_against_baseline() {
        let dir = std::env::temp_dir().join("cloudlb_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("CLOUDLB_BENCH_DIR", &dir);
        let path = write_json("test", &record());
        std::env::remove_var("CLOUDLB_BENCH_DIR");
        let path = path.to_str().unwrap();

        // Within tolerance (25 % slower is the boundary; 20 % passes).
        assert!(check_events_per_sec(1_600_000.0, path, 0.25).is_ok());
        // Faster always passes.
        assert!(check_events_per_sec(9_000_000.0, path, 0.25).is_ok());
        // 40 % slower fails.
        let err = check_events_per_sec(1_200_000.0, path, 0.25).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
    }

    #[test]
    fn missing_baseline_is_an_error() {
        assert!(check_events_per_sec(1.0, "/nonexistent/BENCH_x.json", 0.25).is_err());
    }
}
