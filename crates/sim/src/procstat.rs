//! `/proc/stat` emulation.
//!
//! The paper extracts per-core idle time from `/proc/stat` to compute the
//! background load `O_p = T_lb − Σ t_i − t_idle` (Eq. 2). This module
//! provides the same interface shape: cumulative per-core jiffy counters
//! that a consumer samples twice and differences. A text renderer produces
//! the familiar `cpuN user nice system idle ...` lines for debugging.

use crate::cluster::Cluster;
use crate::core_sched::CoreStat;
use crate::time::Dur;
use serde::{Deserialize, Serialize};

/// A point-in-time snapshot of every core's cumulative counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcStat {
    /// Cumulative counters per core, in microseconds.
    pub cores: Vec<CoreStat>,
}

impl ProcStat {
    /// Snapshot the cluster's counters at its current instant.
    pub fn snapshot(cluster: &Cluster) -> Self {
        ProcStat { cores: cluster.stats() }
    }

    /// Idle time of `core` accumulated between `earlier` and `self`.
    ///
    /// This is exactly the `t_idle` term of the paper's Eq. 2, measured the
    /// way the paper measures it: by differencing two `/proc/stat` reads.
    pub fn idle_since(&self, earlier: &ProcStat, core: usize) -> Dur {
        Dur::from_us(self.cores[core].idle_us.saturating_sub(earlier.cores[core].idle_us))
    }

    /// Busy (non-idle) time of `core` between the snapshots.
    pub fn busy_since(&self, earlier: &ProcStat, core: usize) -> Dur {
        Dur::from_us(self.cores[core].busy_us().saturating_sub(earlier.cores[core].busy_us()))
    }

    /// Background time of `core` between the snapshots. The real `/proc/stat`
    /// cannot attribute this (which is why the paper must infer `O_p`); it is
    /// exposed here as simulator ground truth for validating Eq. 2.
    pub fn ground_truth_bg_since(&self, earlier: &ProcStat, core: usize) -> Dur {
        Dur::from_us(self.cores[core].bg_us.saturating_sub(earlier.cores[core].bg_us))
    }

    /// Per-core counter deltas accumulated between `earlier` and `self`,
    /// componentwise. This is the bulk form the fast-forward engine stores
    /// in a window template: the counters a steady-state window adds are
    /// translation-invariant, so the same deltas can be credited to a later
    /// window via [`crate::cluster::Cluster::bulk_advance`].
    pub fn delta_since(&self, earlier: &ProcStat) -> Vec<CoreStat> {
        assert_eq!(self.cores.len(), earlier.cores.len(), "snapshot shape changed");
        self.cores
            .iter()
            .zip(&earlier.cores)
            .map(|(now, then)| CoreStat {
                fg_us: now.fg_us.saturating_sub(then.fg_us),
                bg_us: now.bg_us.saturating_sub(then.bg_us),
                idle_us: now.idle_us.saturating_sub(then.idle_us),
            })
            .collect()
    }

    /// Observe these counters through a telemetry-corruption channel (see
    /// [`crate::telemetry`]): returns what a runtime on a noisy cloud node
    /// would read instead of the ground truth, plus the (possibly skewed)
    /// clock reading paired with it.
    pub fn observe_through(
        &self,
        channel: &mut crate::telemetry::TelemetryChannel,
        now: crate::time::Time,
    ) -> (ProcStat, crate::time::Time) {
        channel.observe(self, now)
    }

    /// Render in `/proc/stat` text format (jiffies at 100 Hz, like Linux).
    pub fn render(&self) -> String {
        const US_PER_JIFFY: u64 = 10_000;
        let mut out = String::new();
        let (mut tu, mut ti) = (0u64, 0u64);
        for c in &self.cores {
            tu += (c.fg_us + c.bg_us) / US_PER_JIFFY;
            ti += c.idle_us / US_PER_JIFFY;
        }
        out.push_str(&format!("cpu  {tu} 0 0 {ti} 0 0 0 0 0 0\n"));
        for (i, c) in self.cores.iter().enumerate() {
            let user = (c.fg_us + c.bg_us) / US_PER_JIFFY;
            let idle = c.idle_us / US_PER_JIFFY;
            out.push_str(&format!("cpu{i} {user} 0 0 {idle} 0 0 0 0 0 0\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::core_sched::FgLabel;
    use crate::time::Time;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 2, trace: false })
    }

    #[test]
    fn idle_differencing_matches_eq2_inputs() {
        let mut cl = cluster();
        let before = ProcStat::snapshot(&cl);
        cl.add_bg(0, 0, None, 1.0);
        cl.start_fg(0, FgLabel { chare: 0 }, Dur::from_ms(5), 1.0);
        cl.advance_to(Time::from_us(20_000));
        let after = ProcStat::snapshot(&cl);
        // Core 0 was never idle: fg for 10 ms wall, then bg monopolizes.
        assert_eq!(after.idle_since(&before, 0), Dur::ZERO);
        assert_eq!(after.busy_since(&before, 0), Dur::from_ms(20));
        assert_eq!(after.ground_truth_bg_since(&before, 0), Dur::from_ms(15));
        // Core 1 was entirely idle.
        assert_eq!(after.idle_since(&before, 1), Dur::from_ms(20));
    }

    #[test]
    fn delta_since_differences_every_counter() {
        let mut cl = cluster();
        cl.add_bg(0, 0, None, 1.0);
        cl.start_fg(0, FgLabel { chare: 0 }, Dur::from_ms(5), 1.0);
        cl.advance_to(Time::from_us(4_000));
        let earlier = ProcStat::snapshot(&cl);
        cl.advance_to(Time::from_us(20_000));
        let later = ProcStat::snapshot(&cl);
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.len(), 2);
        for (i, d) in delta.iter().enumerate() {
            assert_eq!(d.fg_us, later.cores[i].fg_us - earlier.cores[i].fg_us);
            assert_eq!(d.bg_us, later.cores[i].bg_us - earlier.cores[i].bg_us);
            assert_eq!(d.idle_us, later.cores[i].idle_us - earlier.cores[i].idle_us);
        }
        assert_eq!(delta[1].idle_us, 16_000, "idle core accumulates pure idle");
    }

    #[test]
    fn render_looks_like_proc_stat() {
        let mut cl = cluster();
        cl.advance_to(Time::from_us(1_000_000));
        let text = ProcStat::snapshot(&cl).render();
        assert!(text.starts_with("cpu  "));
        assert!(text.contains("cpu0 0 0 0 100"));
        assert!(text.contains("cpu1 0 0 0 100"));
    }

    #[test]
    fn saturating_difference_on_reordered_snapshots() {
        let mut cl = cluster();
        cl.advance_to(Time::from_us(1_000));
        let later = ProcStat::snapshot(&cl);
        let earlier = ProcStat { cores: vec![CoreStat { idle_us: 9_999, ..Default::default() }; 2] };
        assert_eq!(later.idle_since(&earlier, 0), Dur::ZERO);
    }
}
