//! PERF — cloud-datacenter scale: 32k cores / 1M chares.
//!
//! Runs the paper's clean Jacobi2D setup blown up ×1000 — 32,768 cores,
//! 1,048,576 chares (32 per core) — with the fast-forward macro-stepper
//! pinned ON, and
//!
//! 1. **fails (exit 1)** on any broken invariant: chare conservation
//!    over the final placement, a non-bit-identical rerun, a blown
//!    `CLOUDLB_SCALE_BUDGET_S` wall-clock budget, or `hiercloudrefine`
//!    losing more than 5 % makespan to flat CloudRefine at the paper's
//!    own 8 × 4-core scale;
//! 2. records the flat-arm throughput (plus the hierarchical arm), with
//!    each check as a gate, to `BENCH_scale.json`.
//!
//! With `CLOUDLB_CHECK=<path>` the flat-arm throughput is gated against
//! a checked-in baseline like the other perf benches. `CLOUDLB_FAST=1`
//! shrinks the cluster to 2,048 cores / 65,536 chares for smoke runs.

use cloudlb_bench::{baseline, sweeps};

fn main() {
    baseline::run("Scale — 32k cores / 1M chares", sweeps::scale_sweep);
}
