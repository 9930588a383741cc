//! PERF — machine-readable performance baseline of the paper sweep.
//!
//! Runs the full Fig. 2 / Fig. 4 matrix (Jacobi2D, Wave2D, Mol3D ×
//! core counts × seeds × three arms) through the parallel sweep engine
//! and writes one record (wall-clock, total simulator events, events/sec,
//! peak event-queue depth) to `BENCH_fast.json` (under `CLOUDLB_FAST=1`)
//! or `BENCH_sweep.json`. Fast-forward is pinned OFF so the record keeps
//! measuring the raw event-by-event engine (the macro-stepper has its own
//! baseline, `BENCH_fastforward.json`).
//!
//! With `CLOUDLB_CHECK=<path to baseline json>` the run becomes a
//! regression gate: it exits non-zero if events/sec fell more than 25 %
//! below the checked-in baseline. CI's `bench-fast` job uses this
//! against `crates/bench/baselines/BENCH_fast.json`.

use cloudlb_bench::{baseline, sweeps};

fn main() {
    baseline::run("Perf baseline — paper sweep throughput", sweeps::perf_sweep);
}
