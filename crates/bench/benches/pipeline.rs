//! PERF — the streaming sweep pipeline vs the chunked schedule.
//!
//! Measures the shared-source sweep engine
//! (`cloudlb_core::pipeline_stream`) on four arms and writes
//! `BENCH_pipeline.json`:
//!
//! 1. the real Jacobi2D/Wave2D/Mol3D cell matrix through
//!    `evaluate_cells_stream` (events/s, cells/s, pool utilization,
//!    reorder and live-results high-water marks);
//! 2. a packet-identical A/B of `pipeline_map` against the bench's
//!    claim-per-index reference pool over real runs, **failing (exit 1)**
//!    if the results are not bit-identical or the pipeline falls below
//!    0.9× the reference pool on uniform work;
//! 3. a skewed profile — one Mol3D-heavy straggler per 16 uniform cells —
//!    with measured per-packet costs replayed as timed waits, **failing**
//!    if the pipeline does not beat the chunked barrier schedule by
//!    ≥ 1.3× (the same profile over real runs is recorded alongside,
//!    informational);
//! 4. a 20k-packet flood, **failing** if the peak live-results count ever
//!    exceeds `jobs + reorder window`.
//!
//! With `CLOUDLB_CHECK=<path to baseline json>` the uniform-arm events/s
//! is additionally gated against a checked-in baseline (exit non-zero on
//! a > 25 % regression). CI's `bench-pipeline` job uses this against
//! `crates/bench/baselines/BENCH_pipeline.json`. `CLOUDLB_FAST=1`
//! shrinks the matrix for smoke runs.

use cloudlb_bench::{baseline, sweeps, Settings};

fn main() {
    let s = Settings::from_env();
    cloudlb_bench::header("Pipeline — streaming sweep engine");
    let record = match sweeps::pipeline_sweep(&s) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("PIPELINE GATE FAILED: {e}");
            std::process::exit(1);
        }
    };
    let path = baseline::write_json("pipeline", &record);
    println!("wrote {}", path.display());
    baseline::maybe_check(record.events_per_sec);
    println!("PERF OK");
}
