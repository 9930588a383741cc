//! PERF — the streaming sweep pipeline vs the chunked schedule.
//!
//! Measures the shared-source sweep engine
//! (`cloudlb_core::pipeline_stream`) on four arms and writes
//! `BENCH_pipeline.json`:
//!
//! 1. the real Jacobi2D/Wave2D/Mol3D cell matrix through
//!    `evaluate_cells_stream`, best of 5 passes (events/s, cells/s, pool
//!    utilization, reorder high-water mark), **failing** if the
//!    live-results count of any pass exceeds `jobs + reorder window`;
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
//! Each check is a gate of the record. With `CLOUDLB_CHECK=<path to
//! baseline json>` the uniform-arm events/s is additionally gated
//! against a checked-in baseline (exit non-zero on a > 25 %
//! regression). CI's `bench-pipeline` job uses this against
//! `crates/bench/baselines/BENCH_pipeline.json`. `CLOUDLB_FAST=1`
//! shrinks the matrix for smoke runs.

use cloudlb_bench::{baseline, sweeps};

fn main() {
    baseline::run("Pipeline — streaming sweep engine", sweeps::pipeline_sweep);
}
