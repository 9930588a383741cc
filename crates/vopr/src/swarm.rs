//! Seed-range fan-out over the streaming sweep pipeline.
//!
//! Each seed's generate→oracle pipeline is an independent deterministic
//! computation, so a swarm streams the seed range through
//! [`cloudlb_core::pipeline_stream`]: seeds are packets, verdicts come
//! back to the reducer in seed order, and the report folds them online —
//! counts, per-kind tallies and the failing rows are all that stay
//! resident, O(failures) instead of O(N) for an N-seed swarm. Because
//! the fold consumes verdicts in submission order, the report (and
//! anything printed from it) is bit-identical for any worker count.

use crate::gen::generate;
use crate::oracle::{check, FailureKind, OracleOpts, Outcome, Verdict};
use cloudlb_core::{pipeline_stream, PipelineConfig, PipelineStats};
use std::collections::BTreeMap;

/// One seed's verdict.
#[derive(Debug, Clone)]
pub struct SwarmRow {
    /// The seed.
    pub seed: u64,
    /// What the oracles said.
    pub verdict: Verdict,
}

/// Streaming fold of a contiguous seed range's verdicts. Only failing
/// rows are retained; green seeds contribute to the counters and are
/// dropped.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// First seed of the range.
    pub seed_base: u64,
    /// Seeds run.
    pub total: u64,
    /// Seeds that completed with every oracle green.
    completed: u64,
    /// Seeds that terminated with an acceptable typed error.
    typed_errors: u64,
    /// Oracle failures per kind name, ordered by name.
    kinds: BTreeMap<&'static str, usize>,
    /// The failing rows, in seed order.
    failures: Vec<SwarmRow>,
}

impl SwarmReport {
    fn new(seed_base: u64) -> Self {
        SwarmReport {
            seed_base,
            total: 0,
            completed: 0,
            typed_errors: 0,
            kinds: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    /// Fold the next seed's verdict (must arrive in seed order).
    fn push(&mut self, row: SwarmRow) {
        self.total += 1;
        match &row.verdict {
            Ok(Outcome::Completed { .. }) => self.completed += 1,
            Ok(Outcome::TypedError(_)) => self.typed_errors += 1,
            Err(f) => {
                *self.kinds.entry(kind_name(f.kind)).or_default() += 1;
                self.failures.push(row);
            }
        }
    }

    /// Seeds that completed with every oracle green.
    pub fn completed(&self) -> usize {
        self.completed as usize
    }

    /// Seeds that terminated with an acceptable typed error.
    pub fn typed_errors(&self) -> usize {
        self.typed_errors as usize
    }

    /// Rows whose oracles tripped, in seed order.
    pub fn failures(&self) -> &[SwarmRow] {
        &self.failures
    }

    /// Deterministic human-readable summary table.
    pub fn summary_table(&self) -> String {
        let n = self.total;
        let mut out = String::new();
        out.push_str(&format!(
            "seeds {}..{}: {n} run, {} completed, {} typed errors, {} oracle failures\n",
            self.seed_base,
            self.seed_base + n,
            self.completed,
            self.typed_errors,
            self.failures.len(),
        ));
        for (kind, count) in &self.kinds {
            out.push_str(&format!("  {kind}: {count}\n"));
        }
        for row in &self.failures {
            if let Err(f) = &row.verdict {
                out.push_str(&format!(
                    "  seed {}: {} — {}\n",
                    row.seed,
                    kind_name(f.kind),
                    f.detail
                ));
            }
        }
        out
    }
}

/// Stable display name for a failure kind.
pub fn kind_name(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Panic => "panic",
        FailureKind::Nondeterminism => "nondeterminism",
        FailureKind::Incomplete => "incomplete",
        FailureKind::Conservation => "conservation",
        FailureKind::DeadPe => "dead-pe",
        FailureKind::FastForwardDivergence => "ff-divergence",
        FailureKind::CleanTwinError => "clean-twin-error",
        FailureKind::MakespanBlowup => "makespan-blowup",
        FailureKind::InjectedBreak => "injected-break",
    }
}

/// Progress prints to stderr every this many folded seeds (stdout must
/// stay bit-identical across worker counts — CI diffs it).
const PROGRESS_EVERY: u64 = 50;

/// Run the oracle battery over `n` consecutive seeds starting at
/// `seed_base`, streamed over `jobs` pool workers. With
/// `progress`, a status line goes to **stderr** every 50 seeds.
pub fn run_swarm_stream(
    seed_base: u64,
    n: u64,
    jobs: usize,
    opts: &OracleOpts,
    progress: bool,
) -> (SwarmReport, PipelineStats) {
    let cfg = PipelineConfig::new(jobs);
    let mut report = SwarmReport::new(seed_base);
    let stats = pipeline_stream(
        &cfg,
        seed_base..seed_base + n,
        |seed| SwarmRow { seed, verdict: check(&generate(seed), opts) },
        |_, row| {
            report.push(row);
            if progress && report.total.is_multiple_of(PROGRESS_EVERY) && report.total < n {
                eprintln!(
                    "swarm: {}/{n} seeds ({} completed, {} typed errors, {} failures)",
                    report.total,
                    report.completed,
                    report.typed_errors,
                    report.failures.len(),
                );
            }
        },
    );
    (report, stats)
}

/// [`run_swarm_stream`] without progress output, for library callers.
pub fn run_swarm(seed_base: u64, n: u64, jobs: usize, opts: &OracleOpts) -> SwarmReport {
    run_swarm_stream(seed_base, n, jobs, opts, false).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InjectBreak;

    #[test]
    fn swarm_is_deterministic_across_worker_counts() {
        let opts = OracleOpts::default();
        let serial = run_swarm(10, 6, 1, &opts);
        let parallel = run_swarm(10, 6, 4, &opts);
        assert_eq!(serial.total, 6);
        assert_eq!(parallel.total, 6);
        assert_eq!(serial.completed(), parallel.completed());
        assert_eq!(serial.typed_errors(), parallel.typed_errors());
        assert_eq!(serial.failures().len(), parallel.failures().len());
        for (a, b) in serial.failures().iter().zip(parallel.failures()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.verdict, b.verdict, "seed {}", a.seed);
        }
        assert_eq!(serial.summary_table(), parallel.summary_table());
    }

    #[test]
    fn summary_counts_add_up() {
        let report = run_swarm(0, 5, 2, &OracleOpts::default());
        assert_eq!(
            report.completed() + report.typed_errors() + report.failures().len(),
            report.total as usize
        );
        let table = report.summary_table();
        assert!(table.starts_with("seeds 0..5: 5 run"), "{table}");
    }

    #[test]
    fn only_failing_rows_stay_resident() {
        // The streaming fold keeps the failing rows and drops the green
        // ones: with the injected break, exactly the seeds that schedule a
        // failure stay resident, in seed order.
        let opts = OracleOpts { inject: Some(InjectBreak::Faults) };
        let report = run_swarm(10, 8, 4, &opts);
        let failing: Vec<u64> = (10..18).filter(|&s| !generate(s).fail.is_empty()).collect();
        assert!(!failing.is_empty() && failing.len() < 8, "{failing:?}");
        let rows: Vec<u64> = report.failures().iter().map(|row| row.seed).collect();
        assert_eq!(rows, failing);
        for row in report.failures() {
            let injected = matches!(&row.verdict, Err(f) if f.kind == FailureKind::InjectedBreak);
            assert!(injected, "seed {}: {:?}", row.seed, row.verdict);
        }
        assert_eq!(report.completed() + report.typed_errors() + rows.len(), 8);
    }
}
