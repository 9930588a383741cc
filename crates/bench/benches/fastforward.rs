//! PERF — steady-state fast-forward: differential checks + throughput.
//!
//! Runs a long clean (interference-free) sweep twice — once with the
//! fast-forward macro-stepper forced ON and once forced OFF — and
//!
//! 1. **fails (exit 1) on any divergence**: after scrubbing the two
//!    observability counters, every `RunResult` must be bit-identical
//!    between the modes, and every run must replay a window;
//! 2. records the ON throughput (plus the OFF arm and the speedup) to
//!    `BENCH_fastforward.json`, with each check as a gate.
//!
//! Clean long runs are the engine's best case: after the first window is
//! captured, every later LB window replays analytically, so events/sec
//! should be several times the event-by-event path. With
//! `CLOUDLB_CHECK=<path>` the ON throughput is gated against a checked-in
//! baseline like the other perf benches.
//!
//! A second, untimed pass runs the paper's interference (4 apps × noLB /
//! CloudRefine, the two-core background job resident across windows) in
//! both modes. Windows with a resident job replay too, re-cutting the
//! background hosts; the pass exits 1 on any divergence and unless every
//! noLB run replays. Windows where the job starts, stops or completes,
//! and chaos/failure workloads, run the ordinary path (covered by
//! `perf_baseline.rs`); bit-identity under those is asserted by
//! `tests/fast_forward.rs`.

use cloudlb_bench::{baseline, sweeps};

fn main() {
    baseline::run(
        "Fast-forward — differential check + throughput",
        sweeps::fastforward_sweep,
    );
}
