//! Acceptance test for the flaky-network chaos layer and the reliable
//! migration protocol (ISSUE 4).
//!
//! Under the `flaky_cloud` degradation model (~1 % loss, duplication,
//! reordering, latency jitter, occasional bandwidth collapse, one
//! transient full-rack partition), a `cloudrefine` run must:
//! * complete every iteration with zero lost or duplicated chares,
//! * keep its timing penalty against the clean-network twin bounded,
//! * and produce bit-identical retry/abort counters on reruns,
//!
//! across the 3 CI seeds.

use cloudlb::prelude::*;

const SEEDS: [u64; 3] = [1, 2, 3];
const APP: &str = "jacobi2d";
const CORES: usize = 8;

fn run_with(seed: u64, flaky: bool) -> RunResult {
    let mut scn = if flaky {
        Scenario::flaky_cloud(APP, CORES, "cloudrefine")
    } else {
        Scenario::paper(APP, CORES, "cloudrefine")
    };
    scn.seed = seed;
    run_scenario(&scn)
}

#[test]
fn flaky_network_penalty_is_bounded_across_seeds() {
    for seed in SEEDS {
        let clean = run_with(seed, false);
        let flaky = run_with(seed, true);
        let penalty = flaky.timing_penalty_vs(&clean);
        eprintln!(
            "seed {seed}: network penalty {:+.1} %, damage {:?}",
            penalty * 100.0,
            flaky.net
        );
        assert_eq!(
            flaky.iter_times.len(),
            clean.iter_times.len(),
            "seed {seed}: chaos may delay iterations but never lose them"
        );
        // Measured ~10–14 % across the CI seeds; 30 % leaves headroom
        // without letting a regression hide.
        assert!(
            penalty <= 0.30,
            "seed {seed}: flaky-network penalty {:.1} % exceeds 30 %",
            penalty * 100.0
        );
        // Chare conservation: every chare exists exactly once, on a real
        // core — nothing lost to the partition, nothing double-delivered.
        assert_eq!(flaky.final_mapping.len(), clean.final_mapping.len());
        assert!(flaky.final_mapping.iter().all(|&p| p < CORES));
    }
}

#[test]
fn chaos_runs_are_bit_identical_on_reruns() {
    for seed in SEEDS {
        let a = run_with(seed, true);
        let b = run_with(seed, true);
        assert_eq!(a.app_time, b.app_time, "seed {seed}");
        assert_eq!(a.final_mapping, b.final_mapping, "seed {seed}");
        assert_eq!(a.net, b.net, "seed {seed}: retry/abort counters must be deterministic");
        assert_eq!(a.migrations, b.migrations, "seed {seed}");
    }
}

#[test]
fn damage_is_reported_and_clean_runs_stay_clean() {
    let flaky = run_with(1, true);
    assert!(
        flaky.net.lost_copies + flaky.net.retransmits + flaky.net.duplicates_dropped > 0,
        "flaky_cloud must damage some traffic: {:?}",
        flaky.net
    );
    assert!(flaky.net.partition_us > 0, "the scheduled partition must be accounted");
    let clean = run_with(1, false);
    assert_eq!(clean.net, NetStats::default(), "a clean network reports zero damage");
}
