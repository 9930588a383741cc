//! Failures and global-rollback recovery.
//!
//! A [`FailureScript`](cloudlb_sim::FailureScript) kills and restores cores
//! (or whole nodes) at scheduled instants. The executor keeps an
//! application checkpoint — `(boundary iteration, mapping)`, taken after
//! the migration commit at AtSync boundaries selected by
//! [`crate::checkpoint::CheckpointPolicy`] — and recovers from a kill with
//! the classic global-rollback protocol:
//!
//! 1. every surviving core abandons its in-flight task; all undelivered
//!    messages are invalidated (an epoch counter tags every message, so
//!    stale deliveries are dropped rather than chased down);
//! 2. the checkpointed mapping is restored; chares owned by a dead core
//!    come back from the replica on their *buddy* core
//!    ([`Cluster::buddy_of`](cloudlb_sim::Cluster::buddy_of) — the same
//!    slot on the next node, so a node failure never takes both copies);
//! 3. the LB strategy re-runs over the *surviving* cores (the database is
//!    compacted so a dead core's zero load cannot attract work), with
//!    [`cloudlb_balance::sanitize_plan`] as a safety net against any plan
//!    still referencing a dead target;
//! 4. after a pause pricing failure detection, the strategy step and the
//!    post-restore state transfers, every chare replays from the
//!    checkpointed iteration.
//!
//! Restored cores re-join empty and receive work again at the next regular
//! LB boundary.

use super::{CState, Ev, Sim};
use crate::error::RuntimeError;
use cloudlb_balance::{LbStats, TaskId, TaskInfo};
use cloudlb_sim::{Dur, FailureAction, Time};

impl Sim<'_> {
    pub(super) fn on_fail(&mut self, action: FailureAction, now: Time) -> Result<(), RuntimeError> {
        // Defensive, as in `on_bg`: failures void any in-flight capture.
        self.ff.void();
        let targets: Vec<usize> = match action {
            FailureAction::KillCore { core } => vec![core],
            FailureAction::KillNode { node } => self.cluster.cores_of_node(node).collect(),
            FailureAction::RestoreCore { core } => {
                self.cluster.restore_core(core);
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("core {core} restored"));
                }
                return Ok(());
            }
            FailureAction::RestoreNode { node } => {
                for core in self.cluster.cores_of_node(node) {
                    self.cluster.restore_core(core);
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("node {node} restored"));
                }
                return Ok(());
            }
        };
        let killed: Vec<usize> =
            targets.into_iter().filter(|&c| self.cluster.is_alive(c)).collect();
        if killed.is_empty() {
            return Ok(()); // already dead: idempotent
        }
        self.failures += killed.len();
        if self.kill_cores(&killed, "fails", now)? {
            self.recover(now)
        } else {
            Ok(())
        }
    }

    /// Kill every core of `cores` (all alive), as a failure or a spot
    /// revocation: the finite background jobs that die with a core no
    /// longer hold the simulation loop open, and the trace ledger records
    /// each lost job and then `core {core} {what}`. Returns `true` when
    /// the application is still running and must recover from the loss.
    pub(super) fn kill_cores(
        &mut self,
        cores: &[usize],
        what: &str,
        now: Time,
    ) -> Result<bool, RuntimeError> {
        for &core in cores {
            let evicted = self.cluster.kill_core(core);
            for (job, finite) in &evicted.evicted_bg {
                if *finite {
                    self.pending_bg -= 1;
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("bg job {job} lost with core {core}"));
                }
            }
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(now.as_us(), format!("core {core} {what}"));
            }
        }
        if self.app_end.is_some() {
            // The application already finished; the kill only tears down
            // leftover background work.
            return Ok(false);
        }
        if self.cluster.num_alive() == 0 {
            return Err(RuntimeError::AllPesDead);
        }
        Ok(true)
    }

    /// Global rollback to the last checkpoint: abandon all in-flight work,
    /// restore the checkpointed mapping (dead cores' chares from their
    /// buddies), re-balance over the survivors, and schedule the end of
    /// the recovery pause.
    pub(super) fn recover(&mut self, now: Time) -> Result<(), RuntimeError> {
        let Some((k, ckpt_map)) = self.ckpt.clone() else {
            return Err(RuntimeError::Unrecoverable {
                reason: "a PE died but checkpointing is disabled (no snapshot to roll back to)"
                    .into(),
            });
        };
        // Invalidate every in-flight message and any pending LbDone or
        // earlier Recovered event.
        self.epoch += 1;

        // Abandon in-flight work everywhere (global rollback).
        for pe in 0..self.num_pes() {
            if self.running[pe].take().is_some() {
                self.cluster.abort_fg(pe);
            }
            self.ready[pe].clear();
        }
        self.inbox_count.fill(0);
        self.atsync.reset();
        // Cancel every in-flight proactive evacuation: the epoch bump
        // already drops their landing events.
        self.pending_evac.clear();
        self.rescue_runnable.clear();

        // Count the re-executed work, then rewind the reduction.
        for chare in 0..self.app.num_chares() {
            self.replayed_iters += self.next_iter[chare].saturating_sub(k);
            self.state[chare] = CState::Waiting;
        }
        self.tracker.rollback(k);
        self.finished = 0;

        // Restore the checkpointed placement; chares owned by a dead core
        // come back from the replica on their buddy. A warming core holds
        // no replica (it attached after the snapshot), so for restore
        // purposes it counts as unavailable.
        let alive = self.lb_targets();
        self.mapping = ckpt_map;
        let mut from_buddy = 0usize;
        for chare in 0..self.app.num_chares() {
            let owner = self.mapping[chare];
            if alive[owner] {
                continue;
            }
            let buddy = self.cluster.buddy_of(owner);
            if !alive[buddy] {
                return Err(RuntimeError::Unrecoverable {
                    reason: format!(
                        "chare {chare}: owner core {owner} and buddy core {buddy} both failed"
                    ),
                });
            }
            self.mapping[chare] = buddy;
            from_buddy += 1;
        }

        // Re-balance over the survivors using predicted next-iteration
        // costs (there is no fresh measurement window mid-rollback).
        let app = self.app;
        let mut stats = LbStats::new(self.num_pes());
        stats.tasks = (0..app.num_chares())
            .map(|i| TaskInfo {
                id: TaskId(i as u64),
                pe: self.mapping[i],
                load: app.task_cost(i, k) / self.speeds[self.mapping[i]],
                bytes: app.state_bytes(i) as u64,
            })
            .collect();
        // Price the pause: failure detection, the strategy step, and the
        // post-restore migrations. A buddy restore itself is free (the
        // replica is local to the buddy); onward moves are charged like
        // any migration — through the reliable protocol under chaos.
        let (moves, _, transfers_done) = self.rebalance(&mut stats, now);
        let cost = Dur::from_secs_f64(self.cfg.fail_detect_s + self.cfg.lb.step_cost_s)
            + transfers_done.since(now);
        self.recovery_time += cost;
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!(
                    "recovery: roll back to iteration {k}, {from_buddy} chare(s) from buddies, \
                     {moves} re-balancing migration(s)"
                ),
            );
        }
        self.queue.schedule(now + cost, Ev::Recovered { epoch: self.epoch });
        Ok(())
    }

    /// The recovery pause is over: every chare resumes from the checkpoint
    /// iteration. Snapshots include the ghosts buffered at the boundary
    /// (see [`crate::checkpoint::ChareCheckpoint::pending`]), so all
    /// chares are immediately runnable, exactly as at startup.
    pub(super) fn on_recovered(&mut self, now: Time) {
        self.recoveries += 1;
        let k = self.ckpt.as_ref().map(|c| c.0).expect("recovered without a checkpoint");
        self.reopen_window(now);
        for chare in 0..self.app.num_chares() {
            self.next_iter[chare] = k;
            self.state[chare] = CState::Queued;
            self.ready[self.mapping[chare]].push_back(chare);
        }
        for pe in 0..self.num_pes() {
            self.try_start(pe, now);
        }
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(now.as_us(), format!("recovery complete; replaying from iteration {k}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_cfg;
    use super::super::SimExecutor;
    use crate::checkpoint::CheckpointPolicy;
    use crate::config::{LbConfig, RunConfig};
    use crate::error::RuntimeError;
    use crate::program::SyntheticApp;
    use cloudlb_sim::interference::BgScript;
    use cloudlb_sim::{Dur, FailureScript, Time};

    #[test]
    fn core_failure_recovers_and_completes() {
        let app = SyntheticApp::ring(16, 0.001);
        let clean = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), BgScript::none()).run();
        // Kill core 2 mid-run (≈ iteration 12 of 40).
        let fail = FailureScript::kill_core(2, Time::from_us(50_000));
        let r = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), BgScript::none())
            .with_failures(fail)
            .try_run()
            .expect("recoverable failure");
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.failures, 1);
        assert_eq!(r.recoveries, 1);
        assert!(r.replayed_iters > 0, "rollback must replay some work");
        assert!(r.recovery_time > Dur::ZERO);
        assert!(
            r.final_mapping.iter().all(|&p| p != 2),
            "no chare may end on the dead core: {:?}",
            r.final_mapping
        );
        assert!(
            r.app_time > clean.app_time,
            "losing a core must cost wall time ({:?} vs {:?})",
            r.app_time,
            clean.app_time
        );
    }

    #[test]
    fn failure_runs_are_deterministic() {
        let app = SyntheticApp::ring(16, 0.0008);
        let bg = BgScript::steady(1, &[0], Time::ZERO, None, 1.0);
        let fail = FailureScript::kill_core(3, Time::from_us(40_000));
        let run = || {
            SimExecutor::new(&app, small_cfg(30, "cloudrefine"), bg.clone())
                .with_failures(fail.clone())
                .try_run()
                .expect("recoverable")
        };
        let a = run();
        let b = run();
        assert_eq!(a.app_time, b.app_time);
        assert_eq!(a.final_mapping, b.final_mapping);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.replayed_iters, b.replayed_iters);
    }

    #[test]
    fn kill_without_checkpoints_is_a_typed_error() {
        let app = SyntheticApp::ring(16, 0.001);
        let mut cfg = small_cfg(20, "nolb");
        cfg.checkpoints = CheckpointPolicy::Disabled;
        let fail = FailureScript::kill_core(1, Time::from_us(10_000));
        let err = SimExecutor::new(&app, cfg, BgScript::none())
            .with_failures(fail)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Unrecoverable { .. }), "{err}");
    }

    #[test]
    fn node_outage_recovers_and_restored_node_rejoins() {
        // Two nodes: node 1 (cores 4..8) dies mid-run and comes back later.
        let app = SyntheticApp::ring(32, 0.001);
        let mut cfg = RunConfig::paper(8, 60);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        let fail = FailureScript::node_outage(1, Time::from_us(30_000), Time::from_us(90_000));
        let r = SimExecutor::new(&app, cfg, BgScript::none())
            .with_failures(fail)
            .try_run()
            .expect("buddies live on node 0");
        assert_eq!(r.iter_times.len(), 60);
        assert_eq!(r.failures, 4, "all four cores of node 1 fail");
        assert_eq!(r.recoveries, 1, "one kill action, one rollback");
        // The restored cores re-join at a later LB boundary and host work
        // again by the end of the run.
        assert!(
            r.final_mapping.iter().any(|&p| p >= 4),
            "restored node never re-used: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn killing_every_core_reports_all_pes_dead() {
        let app = SyntheticApp::ring(8, 0.001);
        let fail = FailureScript::kill_node(0, Time::from_us(5_000));
        let err = SimExecutor::new(&app, small_cfg(20, "nolb"), BgScript::none())
            .with_failures(fail)
            .try_run()
            .unwrap_err();
        assert_eq!(err, RuntimeError::AllPesDead);
    }

    #[test]
    fn failure_trace_ledger_records_events() {
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(30, "cloudrefine").with_trace();
        let fail = FailureScript::kill_core(1, Time::from_us(40_000));
        let r = SimExecutor::new(&app, cfg, BgScript::none())
            .with_failures(fail)
            .try_run()
            .expect("recoverable");
        let trace = r.trace.expect("tracing enabled");
        let markers = trace.markers();
        assert!(markers.iter().any(|(_, l)| l.contains("core 1 fails")));
        assert!(markers.iter().any(|(_, l)| l.contains("recovery: roll back")));
        assert!(markers.iter().any(|(_, l)| l.contains("recovery complete")));
        assert!(markers.iter().any(|(_, l)| l.contains("checkpoint at iteration")));
    }

    #[test]
    fn finite_bg_on_killed_core_does_not_hang_the_run() {
        let app = SyntheticApp::ring(16, 0.001);
        // A huge finite bg job on core 0 — it can only finish long after
        // the app. Killing core 0 evicts it; the loop must still exit.
        let bg = BgScript::steady(5, &[0], Time::ZERO, Some(Dur::from_ms(10_000)), 1.0);
        let fail = FailureScript::kill_core(0, Time::from_us(20_000));
        let r = SimExecutor::new(&app, small_cfg(20, "cloudrefine"), bg)
            .with_failures(fail)
            .try_run()
            .expect("recoverable");
        assert_eq!(r.iter_times.len(), 20);
        assert!(!r.bg_penalties.contains_key(&5), "evicted job reports no penalty");
    }
}
