//! Elastic membership: spot notices, revocations, node acquisition with
//! warm-up, and the proactive evacuation of noticed nodes.
//!
//! A notice marks its node's cores doomed and starts draining every chare
//! they host over the ACKed migration path; a chare whose state is still
//! in flight when the node is revoked is *rescued* when the transfer
//! lands, so only a chare with no transfer under way forces a global
//! rollback ([`Sim::recover`]). Acquired nodes are the cluster's trailing
//! nodes: they start dead and attach, warming, when their `Acquire` fires.

use super::{CState, Ev, Sim};
use crate::error::RuntimeError;
use crate::netproto;
use cloudlb_balance::{Migration, TaskId};
use cloudlb_sim::{MembershipAction, MembershipScript, Time};

/// Distinct nodes acquired by `script`, ascending.
pub(super) fn acquired_nodes(script: &MembershipScript) -> Vec<usize> {
    let mut nodes: Vec<usize> = script
        .actions
        .iter()
        .filter_map(|(_, a)| match a {
            MembershipAction::Acquire { node } => Some(*node),
            _ => None,
        })
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Check a membership script against a cluster of `nodes` nodes: every
/// referenced node in range, acquisitions exactly the trailing nodes (the
/// latent capacity appended after the initial cluster), at least one
/// initial node left, and no notice/revocation against an acquired node.
pub(super) fn validate_membership(script: &MembershipScript, nodes: usize) -> Result<(), String> {
    if script.is_empty() {
        return Ok(());
    }
    if let Some(max) = script.max_node() {
        if max >= nodes {
            return Err(format!(
                "membership script targets node {max} but the cluster has {nodes} nodes"
            ));
        }
    }
    let acquired = acquired_nodes(script);
    if acquired.len() >= nodes {
        return Err("membership script acquires every node; the initial cluster would be empty"
            .to_string());
    }
    for (i, &node) in acquired.iter().enumerate() {
        let want = nodes - acquired.len() + i;
        if node != want {
            return Err(format!(
                "membership acquisitions must target the cluster's trailing nodes \
                 (expected node {want}, got {node})"
            ));
        }
    }
    for (_, a) in &script.actions {
        match a {
            MembershipAction::Notice { node, .. } | MembershipAction::Revoke { node }
                if acquired.binary_search(node).is_ok() =>
            {
                return Err(format!(
                    "membership script notices/revokes node {node}, which is acquired mid-run"
                ));
            }
            MembershipAction::WarmupDone { node } if acquired.binary_search(node).is_err() => {
                return Err(format!(
                    "membership warm-up for node {node}, which is never acquired"
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

impl Sim<'_> {
    /// Apply an elastic-membership action. Like failures and interference,
    /// membership changes void any in-flight fast-forward capture (the
    /// pre-scheduled events already keep such windows from being replayed).
    pub(super) fn on_membership(
        &mut self,
        action: MembershipAction,
        now: Time,
    ) -> Result<(), RuntimeError> {
        self.ff.void();
        match action {
            MembershipAction::Notice { node, revoke_at } => self.on_notice(node, revoke_at, now),
            MembershipAction::Revoke { node } => self.on_revoke(node, now),
            MembershipAction::Acquire { node } => {
                let mut any = false;
                for core in self.cluster.cores_of_node(node) {
                    if !self.cluster.is_alive(core) {
                        self.cluster.restore_core(core);
                        any = true;
                    }
                    self.warming[core] = true;
                }
                if any {
                    self.elastic.acquisitions += 1;
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("node {node} acquired; warming up"));
                }
                Ok(())
            }
            MembershipAction::WarmupDone { node } => {
                let mut any = false;
                for core in self.cluster.cores_of_node(node) {
                    if self.warming[core] {
                        self.warming[core] = false;
                        if self.cluster.is_alive(core) {
                            self.fresh[core] = true;
                        }
                        any = true;
                    }
                }
                if any {
                    self.elastic.warmups += 1;
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("node {node} warmed up; accepting work"));
                }
                Ok(())
            }
        }
    }

    /// `true` if core `p` may receive an evacuated chare: alive, not doomed
    /// itself, and warmed up.
    fn evac_target(&self, p: usize) -> bool {
        self.cluster.is_alive(p) && !self.doomed[p] && !self.warming[p]
    }

    /// Chares mapped to each core.
    fn chare_counts(&self) -> Vec<usize> {
        let mut count = vec![0usize; self.num_pes()];
        for &pe in &self.mapping {
            count[pe] += 1;
        }
        count
    }

    /// A spot preemption notice: node `node` will be hard-revoked at
    /// `revoke_at`. Mark its cores doomed (zero-capacity sources for the
    /// balancer) and immediately start draining every chare it hosts,
    /// spread over the least-loaded eligible cores. Transfers whose
    /// arrival overruns the deadline are still sent: a chare whose state
    /// is in flight when the node dies is *rescued* when the transfer
    /// lands, instead of forcing a global rollback.
    fn on_notice(&mut self, node: usize, revoke_at: Time, now: Time) -> Result<(), RuntimeError> {
        self.elastic.notices += 1;
        let cores: Vec<usize> = self.cluster.cores_of_node(node).collect();
        let mut any_alive = false;
        for &core in &cores {
            if self.cluster.is_alive(core) {
                self.doomed[core] = true;
                any_alive = true;
            }
        }
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("spot notice: node {node} revoked at {} us", revoke_at.as_us()),
            );
        }
        if !any_alive || self.app_end.is_some() {
            return Ok(());
        }
        let eligible: Vec<usize> = (0..self.num_pes()).filter(|&p| self.evac_target(p)).collect();
        if eligible.is_empty() {
            return Ok(()); // nowhere to drain to; the revocation rolls back
        }
        self.elastic.evacuations_attempted += 1;
        self.evac_attempted[node] = true;
        let evacuees: Vec<usize> =
            (0..self.app.num_chares()).filter(|&c| cores.contains(&self.mapping[c])).collect();
        // Projected chare counts so evacuees spread over the targets.
        let mut count = self.chare_counts();
        // Per-source NIC serialization: one outbound state transfer at a
        // time per core, exactly like the migration paths.
        let mut nic_free = vec![now; self.num_pes()];
        let app = self.app;
        let num_pes = self.num_pes();
        let epoch = self.epoch;
        for &chare in &evacuees {
            let src = self.mapping[chare];
            let dest =
                *eligible.iter().min_by_key(|&&p| (count[p], p)).expect("eligible nonempty");
            let start = nic_free[src];
            let arrival = match self.netfault.as_mut() {
                None => {
                    let bytes = app.state_bytes(chare);
                    start
                        + self
                            .cfg
                            .network
                            .migration_delay(bytes, self.cluster.same_node(src, dest))
                }
                Some(ch) => {
                    // Under chaos the drain rides the reliable ARQ
                    // protocol, one transfer per chare.
                    let plan =
                        [Migration { task: TaskId(chare as u64), from: src, to: dest }];
                    let out = netproto::run_transfers(
                        &plan,
                        ch,
                        &self.cluster,
                        &self.cfg.migration_proto,
                        start,
                        |i| app.state_bytes(i),
                        num_pes,
                    );
                    nic_free[src] = out.done_at;
                    if out.committed.is_empty() {
                        continue; // aborted: the revocation will roll back
                    }
                    out.done_at
                }
            };
            nic_free[src] = arrival;
            let evac = Ev::Evac { chare: chare as u32, to: dest as u32, epoch };
            self.queue.schedule(arrival, evac);
            self.pending_evac.insert(chare, dest);
            count[dest] += 1;
            count[src] -= 1;
        }
        let launched = self.pending_evac.len();
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("evacuating {launched} chare(s) off node {node} before revocation"),
            );
        }
        Ok(())
    }

    /// The notice deadline fires: node `node` is revoked. Chares already
    /// drained are unaffected; chares whose state transfer is still in
    /// flight are rescued when it lands; chares with no transfer under way
    /// are lost with the node and force a global checkpoint rollback.
    fn on_revoke(&mut self, node: usize, now: Time) -> Result<(), RuntimeError> {
        let killed: Vec<usize> =
            self.cluster.cores_of_node(node).filter(|&c| self.cluster.is_alive(c)).collect();
        if killed.is_empty() {
            return Ok(()); // already down (a failure script beat the notice)
        }
        for &core in &killed {
            self.doomed[core] = false;
            // A chare caught mid-iteration or queued loses its slot; if its
            // state is in flight it must re-enter a ready queue on landing.
            if let Some(run) = self.running[core].take() {
                self.rescue_runnable.insert(run.chare);
                self.state[run.chare] = CState::Waiting;
            }
            while let Some(chare) = self.ready[core].pop_front() {
                self.rescue_runnable.insert(chare);
                self.state[chare] = CState::Waiting;
            }
        }
        self.elastic.nodes_revoked += 1;
        if !self.kill_cores(&killed, "revoked", now)? {
            return Ok(());
        }
        let stranded: Vec<usize> =
            (0..self.app.num_chares()).filter(|&c| killed.contains(&self.mapping[c])).collect();
        if stranded.is_empty() {
            if self.evac_attempted[node] {
                self.elastic.evacuations_completed += 1;
            }
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(now.as_us(), format!("node {node} empty at revocation: clean drain"));
            }
            return Ok(());
        }
        let lost =
            stranded.iter().filter(|&&c| !self.pending_evac.contains_key(&c)).count();
        if lost == 0 {
            // Every stranded chare's state is already in flight: commit at
            // landing, no rollback.
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(
                    now.as_us(),
                    format!("{} chare(s) in flight at revocation: rescue pending", stranded.len()),
                );
            }
            return Ok(());
        }
        // The reactive path proactive evacuation exists to avoid: state
        // died with the node, roll everyone back to the checkpoint.
        self.elastic.chares_rolled_back += stranded.len();
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("{lost} chare(s) lost with node {node}: rolling back"),
            );
        }
        self.recover(now)
    }

    /// A proactively evacuated chare's state transfer lands on `to`.
    /// Commits the move if the chare still needs one: its source is doomed
    /// (pre-deadline drain) or already revoked (rescue).
    pub(super) fn on_evac(&mut self, chare: usize, to: usize, now: Time) -> Result<(), RuntimeError> {
        self.ff.void();
        self.pending_evac.remove(&chare);
        let was_runnable = self.rescue_runnable.remove(&chare);
        let src = self.mapping[chare];
        let src_alive = self.cluster.is_alive(src);
        if src_alive && !self.doomed[src] {
            return Ok(()); // an LB step already moved it off the doomed core
        }
        let mut dest = to;
        if !self.evac_target(dest) {
            // The planned target was lost or doomed in the meantime:
            // re-pick the emptiest eligible core.
            let count = self.chare_counts();
            let best =
                (0..self.num_pes()).filter(|&p| self.evac_target(p)).min_by_key(|&p| (count[p], p));
            match best {
                Some(p) => dest = p,
                None if src_alive => return Ok(()), // stay; revocation handles it
                None => {
                    // Rescued state with nowhere to land: fall back to the
                    // global rollback.
                    self.elastic.chares_rolled_back += 1;
                    return self.recover(now);
                }
            }
        }
        self.mapping[chare] = dest;
        self.migrations += 1;
        self.migration_bytes += self.app.state_bytes(chare) as u64;
        if src_alive {
            self.elastic.chares_drained += 1;
        } else {
            self.elastic.chares_rescued += 1;
        }
        if let Some(t) = self.cluster.trace_mut() {
            let verb = if src_alive { "drained" } else { "rescued" };
            t.marker(now.as_us(), format!("chare {chare} {verb} to core {dest}"));
        }
        match self.state[chare] {
            CState::Running => {
                // Mid-iteration on the doomed core: abandon the partial
                // work; the iteration re-runs at the destination.
                debug_assert!(src_alive, "a chare cannot be Running on a revoked core");
                if self.running[src].is_some_and(|r| r.chare == chare) {
                    self.running[src] = None;
                    self.cluster.abort_fg(src);
                }
                self.enqueue(chare, dest, now);
                self.try_start(src, now);
            }
            CState::Queued => {
                self.ready[src].retain(|&c| c != chare);
                self.enqueue(chare, dest, now);
            }
            // Its boundary ghosts were consumed before the revocation;
            // requeue it directly.
            CState::Waiting if was_runnable => self.enqueue(chare, dest, now),
            CState::Waiting => self.maybe_ready(chare, now),
            CState::Parked | CState::Finished => {} // pure remap
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_cfg;
    use super::super::SimExecutor;
    use crate::config::{LbConfig, RunConfig};
    use crate::error::RuntimeError;
    use crate::program::SyntheticApp;
    use crate::result::ElasticStats;
    use cloudlb_sim::interference::BgScript;
    use cloudlb_sim::{MembershipAction, MembershipScript, Time};

    fn two_node_cfg(iters: usize) -> RunConfig {
        let mut cfg = RunConfig::paper(8, iters);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        cfg
    }

    fn notice_script(node: usize, at_us: u64, revoke_us: u64) -> MembershipScript {
        MembershipScript {
            actions: vec![
                (
                    Time::from_us(at_us),
                    MembershipAction::Notice { node, revoke_at: Time::from_us(revoke_us) },
                ),
                (Time::from_us(revoke_us), MembershipAction::Revoke { node }),
            ],
        }
    }

    #[test]
    fn long_lead_notice_drains_the_node_with_no_rollback() {
        let app = SyntheticApp::ring(32, 0.001);
        // Notice at 30 ms with a 70 ms lead: 16 chares × ~174 µs transfers
        // drain long before the deadline.
        let r = SimExecutor::new(&app, two_node_cfg(40), BgScript::none())
            .with_membership(notice_script(1, 30_000, 100_000))
            .try_run()
            .expect("survivable storm");
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.recoveries, 0, "proactive drain must avoid any rollback");
        assert_eq!(r.elastic.notices, 1);
        assert_eq!(r.elastic.nodes_revoked, 1);
        assert_eq!(r.elastic.evacuations_attempted, 1);
        assert_eq!(r.elastic.evacuations_completed, 1, "node must be empty at revocation");
        assert!(r.elastic.chares_drained > 0);
        assert_eq!(r.elastic.chares_rolled_back, 0);
        assert_eq!(r.failures, 0, "a revocation is not a failure");
        assert!(
            r.final_mapping.iter().all(|&p| p < 4),
            "no chare may end on the revoked node: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn short_lead_notice_rescues_in_flight_chares() {
        let app = SyntheticApp::ring(32, 0.001);
        // A 50 µs lead: shorter than a single cross-node state transfer
        // (~174 µs), so every evacuee is still in flight at revocation and
        // must be rescued on landing — zero epochs lost.
        let r = SimExecutor::new(&app, two_node_cfg(40), BgScript::none())
            .with_membership(notice_script(1, 30_000, 30_050))
            .try_run()
            .expect("rescue path is survivable");
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.recoveries, 0, "in-flight state must be rescued, not rolled back");
        assert!(r.elastic.chares_rescued > 0, "{:?}", r.elastic);
        assert_eq!(r.elastic.chares_rolled_back, 0);
        assert!(r.final_mapping.iter().all(|&p| p < 4));
    }

    #[test]
    fn acquired_node_warms_up_and_takes_work() {
        let app = SyntheticApp::ring(32, 0.001);
        // Node 1 is latent (acquired at 20 ms, warm at 25 ms): the run
        // starts on node 0's four cores and expands onto node 1.
        let script = MembershipScript {
            actions: vec![
                (Time::from_us(20_000), MembershipAction::Acquire { node: 1 }),
                (Time::from_us(25_000), MembershipAction::WarmupDone { node: 1 }),
            ],
        };
        let r = SimExecutor::new(&app, two_node_cfg(60), BgScript::none())
            .with_membership(script)
            .try_run()
            .expect("expansion is clean");
        assert_eq!(r.iter_times.len(), 60);
        assert_eq!(r.elastic.acquisitions, 1);
        assert_eq!(r.elastic.warmups, 1);
        assert_eq!(r.recoveries, 0);
        assert!(
            r.final_mapping.iter().any(|&p| p >= 4),
            "acquired node never took work: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn membership_runs_are_deterministic() {
        let app = SyntheticApp::ring(32, 0.001);
        // Three nodes: 0 and 1 initial, 2 acquired mid-run; node 0 is
        // noticed and revoked after the expansion.
        let script = MembershipScript {
            actions: vec![
                (Time::from_us(15_000), MembershipAction::Acquire { node: 2 }),
                (Time::from_us(20_000), MembershipAction::WarmupDone { node: 2 }),
                (
                    Time::from_us(40_000),
                    MembershipAction::Notice { node: 0, revoke_at: Time::from_us(80_000) },
                ),
                (Time::from_us(80_000), MembershipAction::Revoke { node: 0 }),
            ],
        };
        let mut cfg = RunConfig::paper(12, 40);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        let run = || {
            SimExecutor::new(&app, cfg.clone(), BgScript::none())
                .with_membership(script.clone())
                .try_run()
                .expect("survivable")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "membership runs must be bit-identical");
        assert!(a.elastic.notices == 1 && a.elastic.acquisitions == 1, "{:?}", a.elastic);
    }

    #[test]
    fn invalid_membership_scripts_are_invalid_config() {
        let app = SyntheticApp::ring(8, 0.001);
        // Out-of-range node.
        let err = SimExecutor::new(&app, small_cfg(5, "nolb"), BgScript::none())
            .with_membership(notice_script(7, 1_000, 2_000))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        // Acquisition that is not a trailing node (node 0 of 2).
        let app2 = SyntheticApp::ring(32, 0.001);
        let script = MembershipScript {
            actions: vec![(Time::from_us(1_000), MembershipAction::Acquire { node: 0 })],
        };
        let err = SimExecutor::new(&app2, two_node_cfg(5), BgScript::none())
            .with_membership(script)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        // Warm-up for a node that is never acquired.
        let script = MembershipScript {
            actions: vec![(Time::from_us(1_000), MembershipAction::WarmupDone { node: 1 })],
        };
        let err = SimExecutor::new(&app2, two_node_cfg(5), BgScript::none())
            .with_membership(script)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn static_membership_reports_default_elastic_stats() {
        let app = SyntheticApp::ring(16, 0.001);
        let r = SimExecutor::new(&app, small_cfg(10, "cloudrefine"), BgScript::none()).run();
        assert_eq!(r.elastic, ElasticStats::default());
    }
}
