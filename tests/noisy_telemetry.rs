//! Acceptance test for the robust-telemetry layer (ISSUE 2).
//!
//! Under the `noisy_cloud` corruption model, CloudRefineLB wrapped in
//! robust estimation + hysteresis (`robustcloudrefine`) must:
//! * keep its timing penalty within 15 % of its own clean-telemetry
//!   result,
//! * perform strictly fewer migrations than the unguarded balancer on
//!   the same corrupted counters,
//! * and do both deterministically across the 3 CI seeds.
//!
//! The unguarded baseline's degradation is reported alongside so a CI
//! log shows what the guard is buying.

use cloudlb::prelude::*;

const SEEDS: [u64; 3] = [1, 2, 3];
const APP: &str = "jacobi2d";
const CORES: usize = 8;

fn run_with(strategy: &str, seed: u64, noisy: bool) -> RunResult {
    let mut scn = if noisy {
        Scenario::noisy_cloud(APP, CORES, strategy)
    } else {
        Scenario::paper(APP, CORES, strategy)
    };
    scn.seed = seed;
    run_scenario(&scn)
}

#[test]
fn guarded_balancer_keeps_noise_penalty_bounded_across_seeds() {
    for seed in SEEDS {
        let clean = run_with("robustcloudrefine", seed, false);
        let noisy = run_with("robustcloudrefine", seed, true);
        let penalty = noisy.timing_penalty_vs(&clean);

        let unguarded_clean = run_with("cloudrefine", seed, false);
        let unguarded_noisy = run_with("cloudrefine", seed, true);
        let unguarded_penalty = unguarded_noisy.timing_penalty_vs(&unguarded_clean);

        eprintln!(
            "seed {seed}: guarded noise penalty {:+.1} % ({} migrations), \
             unguarded {:+.1} % ({} migrations)",
            penalty * 100.0,
            noisy.migrations,
            unguarded_penalty * 100.0,
            unguarded_noisy.migrations,
        );

        assert!(
            penalty <= 0.15,
            "seed {seed}: guarded noise penalty {:.1} % exceeds 15 %",
            penalty * 100.0
        );
        assert!(
            noisy.migrations < unguarded_noisy.migrations,
            "seed {seed}: guarded performed {} migrations, unguarded {} — \
             the guard must strictly reduce churn",
            noisy.migrations,
            unguarded_noisy.migrations
        );
    }
}

#[test]
fn noisy_runs_are_bit_identical_on_reruns() {
    for seed in SEEDS {
        let a = run_with("robustcloudrefine", seed, true);
        let b = run_with("robustcloudrefine", seed, true);
        assert_eq!(a.app_time, b.app_time, "seed {seed}");
        assert_eq!(a.migrations, b.migrations, "seed {seed}");
        assert_eq!(a.final_mapping, b.final_mapping, "seed {seed}");
        assert_eq!(a.telemetry, b.telemetry, "seed {seed}");
        assert_eq!(a.decisions, b.decisions, "seed {seed}");
    }
}

#[test]
fn corruption_is_detected_and_decisions_are_audited() {
    let run = run_scenario(&Scenario::noisy_cloud(APP, CORES, "robustcloudrefine"));
    let (q, d) = (run.telemetry, run.decisions);
    let anomalies = q.clamped_op + q.missing_samples + q.task_overrun + q.implausible_idle;
    assert!(anomalies > 0, "noisy_cloud must trip at least one window-quality counter");
    assert!(
        d.suppressed + d.oscillations + d.outliers_rejected > 0,
        "the guard stack should exercise at least one defence"
    );
}

#[test]
fn clean_runs_report_no_telemetry_anomalies() {
    let r = run_with("robustcloudrefine", 1, false);
    assert_eq!(r.telemetry.total(), 0, "clean counters must not trip the validators");
}
