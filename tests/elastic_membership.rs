//! Acceptance tests for elastic cluster membership (ISSUE 7).
//!
//! Under the `spot_storm` preset — a replacement node acquired at 30 % of
//! the run, then both original nodes spot-preempted with lead time — a
//! `cloudrefine` run must:
//! * complete every iteration with **zero** chares restored from
//!   checkpoint (the notice lead covers the proactive drain),
//! * keep its capacity-adjusted penalty against the static-cluster twin
//!   within 35 %,
//! * never leave a chare on a revoked node,
//! * and be bit-identical on reruns,
//!
//! across the 3 CI seeds.

use cloudlb::prelude::*;

const SEEDS: [u64; 3] = [1, 2, 3];
const APP: &str = "jacobi2d";
const CORES: usize = 8;

fn storm_scenario(seed: u64) -> Scenario {
    let mut scn = Scenario::spot_storm(APP, CORES, "cloudrefine");
    scn.seed = seed;
    scn
}

fn clean_twin(seed: u64) -> Scenario {
    Layer::Membership.clean_twin(&storm_scenario(seed))
}

#[test]
fn spot_storm_loses_zero_epochs_across_seeds() {
    for seed in SEEDS {
        let run = run_scenario(&storm_scenario(seed));
        eprintln!("seed {seed}: elastic {:?}", run.elastic);
        assert_eq!(run.iter_times.len(), 100, "seed {seed}: every iteration ran");
        assert_eq!(
            run.recoveries, 0,
            "seed {seed}: a survivable storm must not roll back to checkpoint"
        );
        assert_eq!(run.elastic.chares_rolled_back, 0, "seed {seed}");
        assert!(run.elastic.notices >= 1, "seed {seed}: the storm noticed nodes");
        assert!(run.elastic.nodes_revoked >= 1, "seed {seed}");
        assert_eq!(run.elastic.acquisitions, 1, "seed {seed}");
        assert_eq!(run.elastic.warmups, 1, "seed {seed}");
        assert!(
            run.elastic.chares_drained + run.elastic.chares_rescued > 0,
            "seed {seed}: evacuation moved chares proactively"
        );
    }
}

#[test]
fn capacity_adjusted_penalty_is_bounded_across_seeds() {
    for seed in SEEDS {
        let scn = storm_scenario(seed);
        let storm = run_scenario(&scn);
        let clean = run_scenario(&clean_twin(seed));
        let imp = Impact::new(Layer::Membership, &scn, &storm, &clean);
        let adjusted = imp.capacity_adjusted.expect("membership is capacity-adjusted");
        eprintln!(
            "seed {seed}: penalty {:+.1} %, capacity-adjusted {:+.1} % at {:.0} % avg capacity",
            imp.penalty * 100.0,
            adjusted * 100.0,
            scn.capacity_avg_frac() * 100.0,
        );
        assert!(
            adjusted <= 0.35,
            "seed {seed}: capacity-adjusted penalty {:.1} % exceeds 35 %",
            adjusted * 100.0,
        );
        // The static twin saw no churn at all.
        assert_eq!(clean.elastic, ElasticStats::default(), "seed {seed}");
    }
}

#[test]
fn no_chare_ends_on_a_revoked_node_and_the_cluster_conserves_chares() {
    for seed in SEEDS {
        let scn = storm_scenario(seed);
        let run = run_scenario(&scn);
        let clean = run_scenario(&clean_twin(seed));
        // Conservation across shrink -> expand: same chare count, every
        // chare on exactly one in-range core of the grown cluster.
        assert_eq!(run.final_mapping.len(), clean.final_mapping.len(), "seed {seed}");
        let total = scn.total_cores();
        assert!(
            run.final_mapping.iter().all(|&p| p < total),
            "seed {seed}: mapping beyond the {total}-core grown cluster: {:?}",
            run.final_mapping
        );
        // Node 1 is noticed at 40 % and revoked at 65 % — well before the
        // interfered run ends — so its cores (4..8) must be empty.
        assert!(
            run.final_mapping.iter().all(|&p| !(4..8).contains(&p)),
            "seed {seed}: chare left on revoked node 1: {:?}",
            run.final_mapping
        );
        // The acquired node took real work.
        assert!(
            run.final_mapping.iter().any(|&p| p >= CORES),
            "seed {seed}: acquired node took no work: {:?}",
            run.final_mapping
        );
    }
}

#[test]
fn evacuated_nodes_are_empty_before_revocation() {
    // Completed evacuations mean the node had no mapped chares at its
    // revoke instant; with spot_storm's generous leads every attempted
    // evacuation must complete (in-flight rescues also count as success —
    // what is forbidden is rollback).
    for seed in SEEDS {
        let run = run_scenario(&storm_scenario(seed));
        assert!(run.elastic.evacuations_attempted >= 1, "seed {seed}");
        assert_eq!(
            run.elastic.evacuations_completed + run.elastic.chares_rescued.min(1),
            run.elastic.evacuations_attempted,
            "seed {seed}: an evacuation neither completed nor rescued: {:?}",
            run.elastic
        );
        assert_eq!(run.elastic.chares_rolled_back, 0, "seed {seed}");
    }
}

#[test]
fn elastic_runs_are_bit_identical_per_seed() {
    for seed in SEEDS {
        let a = run_scenario(&storm_scenario(seed));
        let b = run_scenario(&storm_scenario(seed));
        assert_eq!(a, b, "seed {seed}: elastic rerun diverged");
    }
}

#[test]
fn autoscale_grows_the_cluster_without_losing_work() {
    for seed in SEEDS {
        let mut scn = Scenario::autoscale(APP, CORES, "cloudrefine");
        scn.seed = seed;
        let run = run_scenario(&scn);
        assert_eq!(run.iter_times.len(), 100, "seed {seed}");
        assert_eq!(run.elastic.acquisitions, 2, "seed {seed}");
        assert_eq!(run.elastic.warmups, 2, "seed {seed}");
        assert_eq!(run.elastic.chares_rolled_back, 0, "seed {seed}");
        assert!(
            run.final_mapping.iter().all(|&p| p < scn.total_cores()),
            "seed {seed}"
        );
    }
}
