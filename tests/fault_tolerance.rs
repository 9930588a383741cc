//! Acceptance tests for the fault-tolerant runtime (the ISSUE's bar):
//! a 4-core Wave2D run that loses PE 2 mid-run still completes with the
//! same numerics as a failure-free serial execution, on both executors,
//! and every failure path surfaces as a typed error — no `.expect()`
//! panic escapes to the caller.

use cloudlb::apps::Wave2D;
use cloudlb::core_api::{try_run_scenario, Layer, Scenario};
use cloudlb::prelude::*;
use cloudlb::runtime::checkpoint::CheckpointPolicy;
use cloudlb::runtime::thread_exec::{serial_reference, ThreadFault};
use cloudlb::sim::failure::FailureScript;
use cloudlb::sim::ClusterConfig;

fn thread_cfg(pes: usize, iters: usize) -> ThreadRunConfig {
    let mut cfg = ThreadRunConfig::new(pes, iters);
    cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 4, ..Default::default() };
    cfg
}

fn sim_cfg(iters: usize) -> RunConfig {
    let mut cfg = RunConfig {
        cluster: ClusterConfig { nodes: 1, cores_per_node: 4, trace: false },
        ..RunConfig::paper(4, iters)
    };
    cfg.iterations = iters;
    cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
    cfg
}

/// Thread executor: worker 2 panics mid-run; the supervisor restarts it,
/// restores every chare from checkpoints, replays, and the final numbers
/// are bit-identical to a failure-free serial execution.
#[test]
fn wave2d_survives_worker_panic_with_exact_numerics() {
    let app = Wave2D::for_pes(4);
    let mut cfg = thread_cfg(4, 12);
    cfg.inject.push(ThreadFault::Panic { pe: 2, iter: 1 });
    let run = ThreadExecutor::run(&app, cfg).expect("supervised run must recover");
    assert!(run.restarts >= 1, "the dead worker must have been restarted");
    assert!(run.checkpoints >= 1);
    assert_eq!(run.checksums, serial_reference(&app, 12), "recovery must not corrupt state");
}

/// Simulated executor: core 2 dies mid-run; the run rolls back to the
/// last checkpoint, re-balances over the survivors, and completes every
/// iteration with nothing left on the dead core.
#[test]
fn wave2d_survives_losing_core_2_mid_run() {
    let app = Wave2D::for_pes(4);
    let clean = SimExecutor::new(&app, sim_cfg(30), BgScript::none()).run();
    // Half-way through the failure-free run.
    let half = Time::ZERO + Dur::from_secs_f64(clean.app_time.as_secs_f64() / 2.0);
    let r = SimExecutor::new(&app, sim_cfg(30), BgScript::none())
        .with_failures(FailureScript::kill_core(2, half))
        .try_run()
        .expect("recoverable failure");
    assert_eq!(r.iter_times.len(), 30, "every iteration must be accounted");
    assert_eq!(r.failures, 1);
    assert_eq!(r.recoveries, 1);
    assert!(r.replayed_iters > 0);
    assert!(r.final_mapping.iter().all(|&p| p != 2), "dead core must end empty");
    assert!(r.app_time > clean.app_time, "losing a core must cost wall time");
}

/// The scenario layer end to end: the failure drill (interference plus a
/// permanent core loss) survives and quantifies its own cost.
#[test]
fn failure_drill_scenario_reports_recovery_cost() {
    let mut drill = Scenario::failure_drill("wave2d", 4, "cloudrefine");
    drill.iterations = 24;
    let failed = try_run_scenario(&drill).expect("drill is recoverable");
    let clean = try_run_scenario(&Layer::Failures.clean_twin(&drill)).expect("failure-free twin");
    assert_eq!(failed.failures, 1);
    assert_eq!(failed.recoveries, 1);
    assert!(failed.recovery_time.as_secs_f64() > 0.0);
    assert!(failed.timing_penalty_vs(&clean) > 0.0);
}

/// Every unrecoverable path is a typed error — nothing panics.
#[test]
fn unrecoverable_paths_are_typed_errors_not_panics() {
    let app = Wave2D::for_pes(4);

    // Thread executor, checkpoints off: the panic cannot be recovered.
    let mut tc = thread_cfg(4, 8);
    tc.checkpoints = CheckpointPolicy::Disabled;
    tc.inject.push(ThreadFault::Panic { pe: 1, iter: 1 });
    match ThreadExecutor::run(&app, tc) {
        Err(RuntimeError::WorkerPanicked { pe, .. }) => assert_eq!(pe, 1),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // Simulated executor, checkpoints off: same story.
    let mut sc = sim_cfg(20);
    sc.checkpoints = CheckpointPolicy::Disabled;
    let err = SimExecutor::new(&app, sc, BgScript::none())
        .with_failures(FailureScript::kill_core(0, Time::from_us(20_000)))
        .try_run()
        .expect_err("no checkpoint, no recovery");
    assert!(matches!(err, RuntimeError::Unrecoverable { .. }), "got {err}");

    // Killing every core leaves nothing to recover onto.
    let err = SimExecutor::new(&app, sim_cfg(20), BgScript::none())
        .with_failures(FailureScript::kill_node(0, Time::from_us(20_000)))
        .try_run()
        .expect_err("no survivors");
    assert!(matches!(err, RuntimeError::AllPesDead), "got {err}");
}
