//! The AtSync load-balancing step (the paper's Algorithm 1): once every
//! chare parks, build the LB database from the window's task samples and
//! the Eq. 2 background loads read through the telemetry channel, plan
//! over the eligible cores, resolve the state transfers, commit, and
//! release the barrier when the step's pause ends.

use super::{CState, Ev, Sim};
use crate::migration;
use crate::netproto;
use cloudlb_balance::{LbStats, Migration, TaskInfo};
use cloudlb_sim::{Dur, ProcStat, Time};
use cloudlb_trace::Activity;

/// Project a full-core-space LB database onto the alive cores. Returns the
/// compacted stats plus `alive_idx`, mapping compact → global core indices.
fn compact_stats(stats: &LbStats, alive: &[bool]) -> (LbStats, Vec<usize>) {
    let alive_idx: Vec<usize> = (0..stats.num_pes).filter(|&p| alive[p]).collect();
    let mut inv = vec![usize::MAX; stats.num_pes];
    for (c, &p) in alive_idx.iter().enumerate() {
        inv[p] = c;
    }
    let mut compact = LbStats::new(alive_idx.len());
    compact.bg_load = alive_idx.iter().map(|&p| stats.bg_load[p]).collect();
    compact.tasks = stats
        .tasks
        .iter()
        .map(|t| {
            assert!(alive[t.pe], "task {:?} mapped to dead core {}", t.id, t.pe);
            TaskInfo { pe: inv[t.pe], ..*t }
        })
        .collect();
    compact.comm = stats.comm.clone();
    if !stats.confidence.is_empty() {
        compact.confidence = alive_idx.iter().map(|&p| stats.confidence[p]).collect();
    }
    if !stats.doomed.is_empty() {
        compact.doomed = alive_idx.iter().map(|&p| stats.doomed[p]).collect();
    }
    if !stats.fresh.is_empty() {
        compact.fresh = alive_idx.iter().map(|&p| stats.fresh[p]).collect();
    }
    compact.failed_tasks = stats.failed_tasks.clone();
    (compact, alive_idx)
}

impl Sim<'_> {
    /// Read the per-core counters and the wall clock the way the runtime
    /// would: through the telemetry channel when noise is enabled (jitter,
    /// skew, drops, …), straight from the simulator otherwise.
    fn observe(&mut self, now: Time) -> (ProcStat, Time) {
        let truth = ProcStat::snapshot(&self.cluster);
        match &mut self.telemetry {
            Some(ch) => truth.observe_through(ch, now),
            None => (truth, now),
        }
    }

    /// Reopen the measurement window at `now` over the current cluster
    /// shape, reading its baseline counters through the telemetry channel.
    /// Reuses the window's buffers (see [`crate::lbdb::LbWindow::reopen`]).
    pub(super) fn reopen_window(&mut self, now: Time) {
        let (stat, clock) = self.observe(now);
        self.window.reopen(clock, stat);
    }

    /// The cores work may be placed on: alive and not warming up (a
    /// warming core is not yet a migration target and holds no replica).
    pub(super) fn lb_targets(&self) -> Vec<bool> {
        let mut alive = self.cluster.alive_mask();
        for (a, &w) in alive.iter_mut().zip(&self.warming) {
            *a &= !w;
        }
        alive
    }

    /// Run the strategy over the *eligible* cores only. With every core
    /// alive, none warming and none doomed, this is the plain full-space
    /// path. Otherwise the database is compacted onto the eligible cores
    /// first (a dead core's zero load would otherwise attract every task;
    /// a warming core is not yet a target), the resulting plan is
    /// sanitized as a safety net (which also keeps doomed cores
    /// source-only), and indices are translated back to global core space.
    pub(super) fn plan_over_survivors(&mut self, stats: &LbStats) -> Vec<Migration> {
        let alive = self.lb_targets();
        let plan = if alive.iter().all(|a| *a) && stats.doomed.is_empty() {
            let plan = self.strategy.plan(stats);
            cloudlb_balance::strategy::validate_plan(stats, &plan);
            plan
        } else {
            let (compact, alive_idx) = compact_stats(stats, &alive);
            let plan = self.strategy.plan(&compact);
            let all_alive = vec![true; alive_idx.len()];
            let san = cloudlb_balance::sanitize_plan(&compact, &plan, &all_alive);
            san.plan
                .into_iter()
                .map(|m| Migration { task: m.task, from: alive_idx[m.from], to: alive_idx[m.to] })
                .collect()
        };
        // Eager refill is one-shot: after one planning pass over the fresh
        // flags, warmed-up cores compete normally.
        for f in &mut self.fresh {
            *f = false;
        }
        plan
    }

    /// Resolve a plan's state transfers. On the clean path this is the
    /// analytic [`migration::transfer_time`] costing and every entry
    /// commits. Under network chaos each transfer runs through the ARQ
    /// protocol instead: aborted migrations are dropped from the plan
    /// (their chares stay home), recorded in `pending_failed` for the next
    /// LB step, and the surviving partial plan is re-sanitized as a safety
    /// net. Returns the committable plan and the instant transfers end.
    pub(super) fn resolve_transfers(
        &mut self,
        plan: Vec<Migration>,
        stats: &LbStats,
        now: Time,
    ) -> (Vec<Migration>, Time) {
        let app = self.app;
        let num_pes = self.num_pes();
        let Some(ch) = self.netfault.as_mut() else {
            let cluster = &self.cluster;
            let transfer = migration::transfer_time(
                &plan,
                &self.cfg.network,
                |i| app.state_bytes(i),
                |a, b| cluster.same_node(a, b),
                num_pes,
            );
            return (plan, now + transfer);
        };
        let out = netproto::run_transfers(
            &plan,
            ch,
            &self.cluster,
            &self.cfg.migration_proto,
            now,
            |i| app.state_bytes(i),
            num_pes,
        );
        if out.aborted.is_empty() {
            return (out.committed, out.done_at);
        }
        // Graceful degradation: aborted chares stay on their source core,
        // the partial plan is re-sanitized, and the failed moves feed the
        // next LB step through `LbStats::failed_tasks`. Warming cores are
        // masked so a repair never targets a core that is not yet open.
        let committed =
            cloudlb_balance::sanitize_plan(stats, &out.committed, &self.lb_targets()).plan;
        self.pending_failed.extend(out.aborted.iter().map(|m| m.task));
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("{} migration(s) aborted on network timeout", out.aborted.len()),
            );
        }
        (committed, out.done_at)
    }

    /// One LB step over the database `stats`: tell the strategy which
    /// moves the network refused last time and which cores are under a
    /// spot notice (source-only) or were just acquired (eagerly refill),
    /// plan over the eligible cores, resolve the state transfers and
    /// commit. Returns the number of migrations committed to, the commit
    /// outcome and the instant the transfers end.
    pub(super) fn rebalance(
        &mut self,
        stats: &mut LbStats,
        now: Time,
    ) -> (usize, migration::CommitOutcome, Time) {
        stats.failed_tasks = std::mem::take(&mut self.pending_failed);
        if self.doomed.iter().any(|&d| d) {
            stats.doomed.clone_from(&self.doomed);
        }
        if self.fresh.iter().any(|&f| f) {
            stats.fresh.clone_from(&self.fresh);
        }
        let plan = self.plan_over_survivors(stats);
        let (plan, transfers_done) = self.resolve_transfers(plan, stats, now);
        // Executor task ids are chare indices and their state bytes come
        // straight from the app, so the per-migration `stats.task` scan
        // (O(plan × tasks)) is unnecessary.
        let app = self.app;
        self.migration_bytes +=
            plan.iter().map(|m| app.state_bytes(m.task.0 as usize) as u64).sum::<u64>();
        self.lb_steps += 1;
        let out = migration::commit(&mut self.mapping, &plan);
        self.migrations += out.applied;
        (plan.len(), out, transfers_done)
    }

    /// Every chare parked at the barrier: run the LB step at `now` and
    /// schedule its end.
    pub(super) fn start_lb(&mut self, now: Time) {
        self.atsync.begin_lb();
        let (now_stat, obs_now) = self.observe(now);
        let app = self.app;
        // The snapshot lives in a Sim-owned scratch so every window after
        // the first rebuilds it allocation-free.
        let mut stats = std::mem::replace(&mut self.stats_scratch, LbStats::new(0));
        let quality = self
            .window
            .build_stats_into(obs_now, &now_stat, &self.mapping, |i| app.state_bytes(i) as u64, &mut stats);
        self.window_quality.merge(&quality);
        // Attach the (constant) per-window communication graph in one
        // exactly-sized copy.
        stats.comm.clone_from(&self.comm_template);
        // Chares stranded on a revoked core with a rescue transfer still in
        // flight are presented at their landing destination: the strategy
        // may plan over them, but a move it makes is skipped as stale at
        // commit (`mapping` still says the dead core) — the landing commits
        // the real move.
        if !self.pending_evac.is_empty() {
            let alive = self.cluster.alive_mask();
            for t in &mut stats.tasks {
                if !alive[t.pe] {
                    if let Some(&dest) = self.pending_evac.get(&(t.id.0 as usize)) {
                        t.pe = dest;
                    }
                }
            }
        }
        let (moves, out, transfers_done) = self.rebalance(&mut stats, now);
        self.stats_scratch = stats;
        let end = transfers_done + Dur::from_secs_f64(self.cfg.lb.step_cost_s);

        // Record the LB pause on every core's timeline.
        let num_pes = self.num_pes();
        if let Some(t) = self.cluster.trace_mut() {
            for e in &out.skipped {
                t.marker(now.as_us(), format!("migration skipped: {e}"));
            }
            t.marker(now.as_us(), format!("LB step {} ({moves} migrations)", self.lb_steps));
            for pe in 0..num_pes {
                t.record(pe, now.as_us(), end.as_us(), Activity::LoadBalance);
            }
        }
        self.queue.schedule(end, Ev::LbDone { epoch: self.epoch });
        self.ff.request_close();
    }

    pub(super) fn on_lb_done(&mut self, now: Time) {
        let released = self.atsync.release();
        // The boundary's post-migration state is the new checkpoint when
        // the policy says so.
        if self.cfg.checkpoints.due(self.lb_boundary) {
            self.ckpt = Some((self.lb_boundary, self.mapping.clone()));
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(now.as_us(), format!("checkpoint at iteration {}", self.lb_boundary));
            }
        }
        // Open a fresh measurement window at the resume instant.
        self.reopen_window(now);
        if self.ff_release(now) {
            return; // replayed: the barrier re-parked at the window's end
        }
        for chare in released {
            self.state[chare] = CState::Waiting;
            self.maybe_ready(chare, now);
        }
        for pe in 0..self.num_pes() {
            self.try_start(pe, now);
        }
        #[cfg(debug_assertions)]
        self.check_chares(false);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_cfg;
    use super::super::SimExecutor;
    use crate::config::{LbConfig, RunConfig};
    use crate::program::SyntheticApp;
    use cloudlb_sim::interference::BgScript;
    use cloudlb_sim::{TelemetrySpec, Time};

    #[test]
    fn cloud_refine_reduces_penalty_and_migrates() {
        let app = SyntheticApp::ring(32, 0.001);
        let base = SimExecutor::new(&app, small_cfg(40, "nolb"), BgScript::none()).run();
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let nolb = SimExecutor::new(&app, small_cfg(40, "nolb"), bg.clone()).run();
        let lb = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), bg).run();
        assert!(lb.migrations > 0, "balancer should migrate under interference");
        let p_nolb = nolb.timing_penalty_vs(&base);
        let p_lb = lb.timing_penalty_vs(&base);
        assert!(
            p_lb < 0.5 * p_nolb,
            "LB penalty {p_lb:.3} should be under half of noLB {p_nolb:.3}"
        );
    }

    #[test]
    fn migration_cost_appears_in_wall_time() {
        let app = SyntheticApp::ring(32, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let mut cheap = small_cfg(40, "cloudrefine");
        cheap.lb.step_cost_s = 0.0001;
        let mut dear = cheap.clone();
        dear.lb.step_cost_s = 0.050;
        let fast = SimExecutor::new(&app, cheap, bg.clone()).run();
        let slow = SimExecutor::new(&app, dear, bg).run();
        assert!(slow.app_time > fast.app_time);
    }

    #[test]
    fn lb_period_counts_steps() {
        let app = SyntheticApp::ring(8, 0.001);
        let mut cfg = small_cfg(20, "nolb");
        cfg.lb.period = 4;
        let r = SimExecutor::new(&app, cfg, BgScript::none()).run();
        // Boundaries before iterations 4, 8, 12, 16 → 4 steps.
        assert_eq!(r.lb_steps, 4);
    }

    #[test]
    fn noisy_telemetry_runs_are_deterministic_and_flag_anomalies() {
        let app = SyntheticApp::ring(16, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let run = || {
            SimExecutor::new(&app, small_cfg(30, "cloudrefine"), bg.clone())
                .with_telemetry(TelemetrySpec::noisy_cloud())
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.app_time, b.app_time);
        assert_eq!(a.final_mapping, b.final_mapping);
        assert_eq!(a.telemetry, b.telemetry);
        assert!(a.telemetry.total() > 0, "noisy_cloud must trip the validators: {:?}", a.telemetry);
        // Ground truth is untouched: the app still completes every iteration.
        assert_eq!(a.iter_times.len(), 30);
    }

    #[test]
    fn clean_telemetry_reports_no_anomalies() {
        let app = SyntheticApp::ring(16, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let r = SimExecutor::new(&app, small_cfg(20, "cloudrefine"), bg).run();
        assert_eq!(r.telemetry, crate::lbdb::WindowQuality::default());
        assert_eq!(r.decisions, cloudlb_balance::DecisionQuality::default());
    }

    #[test]
    fn guarded_strategy_reports_decision_quality_under_noise() {
        let app = SyntheticApp::ring(32, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let guarded =
            SimExecutor::new(&app, small_cfg(40, "robustcloudrefine"), bg.clone())
                .with_telemetry(TelemetrySpec::noisy_cloud())
                .run();
        let unguarded = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), bg)
            .with_telemetry(TelemetrySpec::noisy_cloud())
            .run();
        assert!(
            guarded.migrations < unguarded.migrations,
            "guards must cut migrations: {} vs {}",
            guarded.migrations,
            unguarded.migrations
        );
        let q = guarded.decisions;
        assert!(q.suppressed + q.oscillations + q.outliers_rejected > 0, "{q:?}");
    }

    #[test]
    fn exhausted_retries_abort_migrations_and_the_run_still_completes() {
        use crate::netproto::MigrationProto;
        let app = SyntheticApp::ring(32, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let mut cfg = RunConfig::paper(8, 40);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        // A brutal link (90% loss) and a stingy retry budget: most
        // cross-node transfers must abort.
        cfg.migration_proto = MigrationProto { max_attempts: 2, deadline_s: 0.002, ack_bytes: 64 };
        let spec = cloudlb_sim::NetFaultSpec { loss: 0.9, ..cloudlb_sim::NetFaultSpec::none() };
        let r = SimExecutor::new(&app, cfg, bg).with_net_faults(spec).run();
        assert_eq!(r.iter_times.len(), 40);
        assert!(r.net.migration_aborts > 0, "expected aborts: {:?}", r.net);
        // Aborted chares stayed home: the mapping is still consistent.
        assert_eq!(r.final_mapping.len(), 32);
        assert!(r.final_mapping.iter().all(|&p| p < 8));
    }
}
