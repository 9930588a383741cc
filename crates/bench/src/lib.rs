#![warn(missing_docs)]
//! Shared plumbing for the figure-regeneration and perf benches.
//!
//! Every bench target is a `harness = false` binary that runs the
//! relevant experiment and prints the same rows/series the paper reports
//! (EXPERIMENTS.md archives one run of each). The perf benches
//! (`perf_baseline`, `fastforward`, `pipeline`, `scale`, `event_queue`,
//! `comm_csr`) each write one [`baseline::Record`] through the shared
//! [`baseline::run`]; the checked-in baselines are
//! `crates/bench/baselines/BENCH_<name>.json`, refreshed by running a
//! bench with `CLOUDLB_BENCH_DIR` pointing there. Environment knobs:
//!
//! * `CLOUDLB_FAST=1` — shrink the matrix (fewer seeds/iterations) for
//!   smoke runs;
//! * `CLOUDLB_SEEDS=a,b,c` — override the seed list;
//! * `CLOUDLB_JOBS=n` — worker count for the parallel sweep engine
//!   (default: all available cores);
//! * `CLOUDLB_BENCH_DIR=dir` — where perf benches write their
//!   `BENCH_<name>.json` baselines (default: current directory);
//! * `CLOUDLB_CHECK=path` — compare the fresh run against a checked-in
//!   baseline and exit non-zero on a > 25 % events/sec regression;
//! * `CLOUDLB_SCALE_BUDGET_S=s` — the `scale` bench's wall-clock budget.

pub mod baseline;
pub mod sweeps;

/// Benchmark-wide settings resolved from the environment.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Core counts for the Fig. 2 / Fig. 4 sweeps.
    pub cores: Vec<usize>,
    /// Iterations per run.
    pub iterations: usize,
    /// Seeds to average (the paper averages three runs).
    pub seeds: Vec<u64>,
    /// Worker count for the parallel sweep engine.
    pub jobs: usize,
    /// Whether `CLOUDLB_FAST` shrank the matrix.
    pub fast: bool,
}

impl Settings {
    /// Resolve settings from the environment.
    pub fn from_env() -> Self {
        let fast = std::env::var("CLOUDLB_FAST").is_ok_and(|v| v != "0");
        let seeds = std::env::var("CLOUDLB_SEEDS")
            .ok()
            .map(|s| {
                s.split(',')
                    .map(|x| x.trim().parse().expect("CLOUDLB_SEEDS: bad integer"))
                    .collect::<Vec<u64>>()
            })
            .unwrap_or_else(|| if fast { vec![1] } else { vec![1, 2, 3] });
        assert!(!seeds.is_empty(), "CLOUDLB_SEEDS must not be empty");
        Settings {
            cores: if fast { vec![4, 8] } else { vec![4, 8, 16, 32] },
            iterations: if fast { 60 } else { 100 },
            seeds,
            jobs: cloudlb_core::default_jobs(),
            fast,
        }
    }
}

/// Print a bench section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_settings_match_paper_matrix() {
        // (Runs without the env vars set in CI.)
        if std::env::var("CLOUDLB_FAST").is_err() && std::env::var("CLOUDLB_SEEDS").is_err() {
            let s = Settings::from_env();
            assert_eq!(s.cores, vec![4, 8, 16, 32]);
            assert_eq!(s.seeds.len(), 3);
            assert_eq!(s.iterations, 100);
            assert!(!s.fast);
            assert!(s.jobs >= 1);
        }
    }
}
