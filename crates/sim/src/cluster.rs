//! Cluster topology: nodes × cores, shared trace, global advancement.
//!
//! Mirrors the paper's testbed shape (8 single-socket nodes with a quad-core
//! Xeon each; experiments use 4–32 cores). Core indices are global; core
//! `i` lives on node `i / cores_per_node`.
//!
//! Cores are settled lazily. The cluster keeps the current instant `now`;
//! a core whose accounting does not depend on how its time is cut into
//! segments (see [`Core::segmentation_sensitive`]) is advanced only when it
//! completes something, when a mutator touches it, or when everything is
//! settled at once. Readers project such a core to `now` without cutting a
//! segment. Sensitive cores (background hosts) are advanced at every step,
//! and with tracing on every core is, so the results are bit-identical to
//! advancing every core at every step.
//!
//! [`Cluster::drain_touched`] reports the cores whose next completion may
//! have changed, so the executor moves only their wakes. An eager core that
//! a step merely cut — it completed nothing, stayed sensitive and kept the
//! next completion last reported — is left out.

use crate::core_sched::{BgJobId, Core, CoreEvent, CoreStat, FgLabel};
use crate::time::{Dur, Time};
use cloudlb_trace::TraceLog;
use serde::{Deserialize, Serialize};

/// Shape and instrumentation options for a simulated cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes (machines). The paper's testbed has 8.
    pub nodes: usize,
    /// Cores per node. The paper's Xeon X3430 has 4.
    pub cores_per_node: usize,
    /// Record a Projections-style trace (adds memory proportional to events).
    pub trace: bool,
}

impl ClusterConfig {
    /// Paper-testbed shape for a run on `cores` cores (4 cores per node).
    pub fn paper_testbed(cores: usize) -> Self {
        assert!(cores > 0 && cores.is_multiple_of(4), "paper runs use multiples of 4 cores");
        ClusterConfig { nodes: cores / 4, cores_per_node: 4, trace: false }
    }

    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

/// What a core kill evicted (see [`Cluster::kill_core`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KilledCore {
    /// Label of the foreground task aborted mid-execution, if any.
    pub aborted_fg: Option<FgLabel>,
    /// Background jobs evicted, with whether their demand was finite
    /// (finite tasks were still owed a completion event).
    pub evicted_bg: Vec<(BgJobId, bool)>,
}

/// A simulated cluster of proportional-share cores.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    cores: Vec<Core>,
    /// `false` while a core is failed. Dead cores keep accounting (as
    /// idle) but must not be scheduled on; the executor enforces that.
    alive: Vec<bool>,
    trace: Option<TraceLog>,
    /// The instant the cluster has been advanced to.
    now: Time,
    /// Segmentation-sensitive cores, ascending; a superset (until the next
    /// [`Cluster::drain_touched`]) of the cores that need eager advancing.
    eager: Vec<usize>,
    /// Cores advanced or mutated since the last [`Cluster::drain_touched`],
    /// except quiet eager cores (see [`Cluster::advance_due_into`]).
    touched: Vec<usize>,
    /// Membership flags for `touched`.
    touched_mark: Vec<bool>,
    /// Each core's next completion when [`Cluster::drain_touched`] last
    /// reported it (what the executor set its wake to).
    reported_next: Vec<Option<Time>>,
}

impl Cluster {
    /// Build the cluster described by `cfg`.
    pub fn new(cfg: ClusterConfig) -> Self {
        let n = cfg.total_cores();
        assert!(n > 0, "cluster must have at least one core");
        Cluster {
            cores: (0..n).map(Core::new).collect(),
            alive: vec![true; n],
            trace: if cfg.trace { Some(TraceLog::new(n)) } else { None },
            cfg,
            now: Time::ZERO,
            eager: Vec::new(),
            touched: Vec::new(),
            touched_mark: vec![false; n],
            reported_next: vec![None; n],
        }
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Node hosting global core `core`.
    pub fn node_of(&self, core: usize) -> usize {
        core / self.cfg.cores_per_node
    }

    /// `true` when both cores share a node (affects message latency).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Advance *all* cores to `to`, collecting completion events
    /// (timestamped, sorted by time then core).
    pub fn advance_to(&mut self, to: Time) -> Vec<(Time, CoreEvent)> {
        let mut events = Vec::new();
        self.advance_into(to, &mut events);
        events
    }

    /// [`Cluster::advance_to`] into a caller-owned buffer. `events` is
    /// cleared first.
    pub fn advance_into(&mut self, to: Time, events: &mut Vec<(Time, CoreEvent)>) {
        events.clear();
        self.now = to;
        for core in 0..self.cores.len() {
            self.advance_core(core, events);
        }
        Self::sort_completions(events);
    }

    /// Advance to `to` only the cores that can complete something by then
    /// — `due`, the cores whose next completion is at or before `to` —
    /// plus every segmentation-sensitive core; every other core is left to
    /// be settled lazily. With tracing on every core is advanced, so the
    /// Projections intervals stay cut at every step. The completions are
    /// the ones [`Cluster::advance_into`] would collect, in the same order,
    /// into a caller-owned buffer (cleared first) that the per-event
    /// executor loop reuses.
    ///
    /// An eager core counts as touched only if the cut completed
    /// something, left it insensitive, or moved its next completion off
    /// the reported one; otherwise its wake is already right.
    pub fn advance_due_into(
        &mut self,
        to: Time,
        due: &[usize],
        events: &mut Vec<(Time, CoreEvent)>,
    ) {
        if self.trace.is_some() {
            return self.advance_into(to, events);
        }
        debug_assert!(to >= self.now, "advancing into the past");
        events.clear();
        self.now = to;
        for &core in due {
            self.advance_core(core, events);
        }
        for i in 0..self.eager.len() {
            let core = self.eager[i];
            let before = events.len();
            let c = &mut self.cores[core];
            c.advance(to, events, None);
            if events.len() != before
                || !c.segmentation_sensitive()
                || c.next_completion() != self.reported_next[core]
            {
                self.touch(core);
            }
        }
        Self::sort_completions(events);
    }

    /// The sort must stay stable: a core can emit `FgDone` and `BgDone` at
    /// the same instant, and their relative order is part of the
    /// deterministic schedule.
    fn sort_completions(events: &mut [(Time, CoreEvent)]) {
        events.sort_by_key(|(t, e)| {
            (*t, match e {
                CoreEvent::FgDone { core } => *core,
                CoreEvent::BgDone { core, .. } => *core,
            })
        });
    }

    fn advance_core(&mut self, core: usize, events: &mut Vec<(Time, CoreEvent)>) {
        self.cores[core].advance(self.now, events, self.trace.as_mut());
        self.touch(core);
    }

    /// Apply `op` to `core` after settling it to `now`. A lazily settled
    /// core has nothing due before `now` (it would have been advanced), so
    /// settling completes nothing.
    fn mutate<R>(&mut self, core: usize, op: impl FnOnce(&mut Core) -> R) -> R {
        let mut completions = Vec::new();
        self.cores[core].advance(self.now, &mut completions, self.trace.as_mut());
        debug_assert!(completions.is_empty(), "settling completed {completions:?}");
        let out = op(&mut self.cores[core]);
        self.touch(core);
        out
    }

    /// Record that `core` changed, and keep it eager while it is
    /// segmentation-sensitive.
    fn touch(&mut self, core: usize) {
        if !self.touched_mark[core] {
            self.touched_mark[core] = true;
            self.touched.push(core);
        }
        if self.cores[core].segmentation_sensitive() {
            if let Err(i) = self.eager.binary_search(&core) {
                self.eager.insert(i, core);
            }
        }
    }

    /// Move the cores touched since the last call into `out` (cleared
    /// first), in ascending order, and record their next completions.
    /// These are the only cores whose next completion can differ from the
    /// one last reported. Cores that stopped being segmentation-sensitive
    /// leave the eager set here.
    pub fn drain_touched(&mut self, out: &mut Vec<usize>) {
        out.clear();
        std::mem::swap(out, &mut self.touched);
        out.sort_unstable();
        let mut left_eager = false;
        for &core in out.iter() {
            self.touched_mark[core] = false;
            let c = &self.cores[core];
            self.reported_next[core] = c.next_completion();
            left_eager |= !c.segmentation_sensitive() && self.eager.binary_search(&core).is_ok();
        }
        if left_eager {
            let cores = &self.cores;
            self.eager.retain(|&c| cores[c].segmentation_sensitive());
        }
    }

    /// Begin a foreground task on `core` (see [`Core::start_fg`]).
    pub fn start_fg(&mut self, core: usize, label: FgLabel, demand: Dur, weight: f64) {
        self.mutate(core, |c| c.start_fg(label, demand, weight));
    }

    /// `true` while `core` executes a foreground task.
    pub fn fg_busy(&self, core: usize) -> bool {
        self.cores[core].fg_busy()
    }

    /// Attach a background task of `job` to `core`.
    pub fn add_bg(&mut self, core: usize, job: BgJobId, demand: Option<Dur>, weight: f64) {
        self.mutate(core, |c| c.add_bg(job, demand, weight));
    }

    /// Detach all of `job`'s background tasks from `core`; returns CPU consumed.
    pub fn remove_bg(&mut self, core: usize, job: BgJobId) -> Dur {
        self.mutate(core, |c| c.remove_bg(job))
    }

    /// Background jobs currently on `core`.
    pub fn bg_jobs_on(&self, core: usize) -> Vec<BgJobId> {
        self.cores[core].bg_jobs()
    }

    /// `true` if any core currently hosts a background task. A core
    /// sharing with a background task rounds its GPS accounting once per
    /// segment, so its counters depend on where its time is cut; the
    /// fast-forward engine cannot credit such a core a measured delta, and
    /// re-cuts it instead (see [`Cluster::bulk_advance`]).
    /// O(sensitive cores): every background host is in the eager set.
    pub fn any_bg(&self) -> bool {
        self.eager.iter().any(|&c| self.cores[c].has_bg())
    }

    /// The background composition as `(core, job, weight bits)`, by
    /// ascending core, then in the order the core hosts the tasks.
    pub fn bg_shares(&self) -> Vec<(usize, BgJobId, u64)> {
        let mut out = Vec::new();
        for &core in &self.eager {
            let shares = self.cores[core].bg_shares();
            out.extend(shares.map(|(job, weight)| (core, job, weight.to_bits())));
        }
        out
    }

    /// Borrow one core (fast-forward clones background hosts to re-cut
    /// them speculatively).
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// Fast-forward support: jump *every* core's accounting to `to` in one
    /// step. Cores in `recut` — copies of background hosts the caller has
    /// already advanced to `to` through the window's own cuts with
    /// [`Core::advance`] — replace the live ones. Every other core is
    /// credited its entry of `deltas` (one per core, as measured over an
    /// equivalent window by [`Cluster::stats`] differencing) and must be
    /// quiescent; see [`Core::bulk_advance`]. Emits no completion events
    /// and records no trace intervals. Every core is settled to the current
    /// instant first.
    pub fn bulk_advance(&mut self, to: Time, deltas: &[CoreStat], recut: Vec<Core>) {
        assert_eq!(deltas.len(), self.cores.len(), "one delta per core");
        let mut recut = recut.into_iter().peekable();
        for (core, &delta) in deltas.iter().enumerate() {
            match recut.next_if(|c| c.index() == core) {
                Some(host) => {
                    assert_eq!(host.accounted_until(), to, "core {core}: re-cut short of the jump");
                    self.cores[core] = host;
                    self.touch(core);
                }
                None => self.mutate(core, |c| c.bulk_advance(to, delta)),
            }
        }
        assert!(recut.next().is_none(), "re-cut cores must be ascending and in range");
        self.now = to;
    }

    /// Earliest completion on `core` under the current composition.
    pub fn next_completion(&self, core: usize) -> Option<Time> {
        self.cores[core].next_completion()
    }

    /// `true` when `core`'s cached next completion equals a fresh
    /// recompute (see `Core::cache_is_fresh`).
    pub fn completion_cache_is_fresh(&self, core: usize) -> bool {
        self.cores[core].cache_is_fresh()
    }

    /// `/proc/stat` snapshot for one core at the current instant (a
    /// projection: it never cuts a segment).
    pub fn core_stat(&self, core: usize) -> CoreStat {
        self.cores[core].stat_at(self.now)
    }

    /// `/proc/stat` snapshot for every core at the current instant.
    pub fn stats(&self) -> Vec<CoreStat> {
        self.cores.iter().map(|c| c.stat_at(self.now)).collect()
    }

    /// `true` while `core` has not failed (or has been restored).
    pub fn is_alive(&self, core: usize) -> bool {
        self.alive[core]
    }

    /// Liveness of every core, indexed globally.
    pub fn alive_mask(&self) -> Vec<bool> {
        self.alive.clone()
    }

    /// Number of cores currently alive.
    pub fn num_alive(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Fail `core`: abort its foreground task, evict its background jobs,
    /// and mark it dead. The core object stays (accumulating idle time so
    /// accounting and power stay conserved), but nothing may be scheduled
    /// on it until [`Cluster::restore_core`]. Idempotent on a dead core.
    pub fn kill_core(&mut self, core: usize) -> KilledCore {
        if !self.alive[core] {
            return KilledCore::default();
        }
        self.alive[core] = false;
        self.mutate(core, |c| KilledCore { aborted_fg: c.abort_fg(), evicted_bg: c.clear_bg() })
    }

    /// Bring a failed core back (a replacement VM). It re-joins empty; the
    /// executor migrates work back at the next LB boundary.
    pub fn restore_core(&mut self, core: usize) {
        self.alive[core] = true;
    }

    /// Abort the foreground task on a *live* core mid-execution (global
    /// rollback: surviving cores abandon in-flight work before replay).
    /// Liveness and background jobs are untouched.
    pub fn abort_fg(&mut self, core: usize) -> Option<FgLabel> {
        self.mutate(core, Core::abort_fg)
    }

    /// Global core indices belonging to `node`.
    pub fn cores_of_node(&self, node: usize) -> std::ops::Range<usize> {
        let k = self.cfg.cores_per_node;
        node * k..(node + 1) * k
    }

    /// Buddy core holding the checkpoint replica of `core`'s chares: the
    /// same slot on the *next node*, so a whole-node failure never takes
    /// both copies (except in single-node clusters, where the buddy is the
    /// next core).
    pub fn buddy_of(&self, core: usize) -> usize {
        let n = self.cores.len();
        if self.cfg.nodes > 1 {
            (core + self.cfg.cores_per_node) % n
        } else {
            (core + 1) % n
        }
    }

    /// Borrow the trace log (if tracing is enabled).
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Borrow the trace log mutably (for markers).
    pub fn trace_mut(&mut self) -> Option<&mut TraceLog> {
        self.trace.as_mut()
    }

    /// Take ownership of the trace log, leaving tracing disabled.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procstat::ProcStat;

    #[test]
    fn paper_testbed_shapes() {
        let c = ClusterConfig::paper_testbed(32);
        assert_eq!(c.nodes, 8);
        assert_eq!(c.cores_per_node, 4);
        assert_eq!(c.total_cores(), 32);
    }

    #[test]
    #[should_panic(expected = "multiples of 4")]
    fn paper_testbed_rejects_odd_core_counts() {
        ClusterConfig::paper_testbed(6);
    }

    #[test]
    fn node_mapping() {
        let cl = Cluster::new(ClusterConfig { nodes: 2, cores_per_node: 4, trace: false });
        assert_eq!(cl.node_of(0), 0);
        assert_eq!(cl.node_of(3), 0);
        assert_eq!(cl.node_of(4), 1);
        assert!(cl.same_node(1, 2));
        assert!(!cl.same_node(3, 4));
    }

    #[test]
    fn advance_collects_sorted_events() {
        let mut cl = Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 2, trace: false });
        cl.start_fg(1, FgLabel { chare: 1 }, Dur::from_ms(2), 1.0);
        cl.start_fg(0, FgLabel { chare: 0 }, Dur::from_ms(1), 1.0);
        let ev = cl.advance_to(Time::from_us(10_000));
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0], (Time::from_us(1_000), CoreEvent::FgDone { core: 0 }));
        assert_eq!(ev[1], (Time::from_us(2_000), CoreEvent::FgDone { core: 1 }));
    }

    #[test]
    fn trace_enabled_records() {
        let mut cl = Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 1, trace: true });
        cl.start_fg(0, FgLabel { chare: 0 }, Dur::from_ms(1), 1.0);
        cl.advance_to(Time::from_us(1_000));
        let log = cl.take_trace().unwrap();
        assert_eq!(log.intervals(0).len(), 1);
        assert!(cl.trace().is_none());
    }

    #[test]
    fn kill_and_restore_core_lifecycle() {
        let mut cl = Cluster::new(ClusterConfig { nodes: 2, cores_per_node: 2, trace: false });
        cl.start_fg(1, FgLabel { chare: 7 }, Dur::from_ms(5), 1.0);
        cl.add_bg(1, 9, Some(Dur::from_ms(50)), 1.0);
        assert!(cl.is_alive(1));
        let killed = cl.kill_core(1);
        assert_eq!(killed.aborted_fg, Some(FgLabel { chare: 7 }));
        assert_eq!(killed.evicted_bg, vec![(9, true)]);
        assert!(!cl.is_alive(1));
        assert_eq!(cl.num_alive(), 3);
        assert_eq!(cl.alive_mask(), vec![true, false, true, true]);
        // Second kill is a no-op.
        assert_eq!(cl.kill_core(1), KilledCore::default());
        // Dead core just idles.
        assert!(cl.advance_to(Time::from_us(10_000)).is_empty());
        assert_eq!(cl.core_stat(1).idle_us, 10_000);
        cl.restore_core(1);
        assert!(cl.is_alive(1));
        assert_eq!(cl.num_alive(), 4);
    }

    #[test]
    fn buddy_lands_on_next_node() {
        let cl = Cluster::new(ClusterConfig { nodes: 2, cores_per_node: 4, trace: false });
        assert_eq!(cl.buddy_of(0), 4);
        assert_eq!(cl.buddy_of(5), 1);
        assert!(!cl.same_node(0, cl.buddy_of(0)));
        assert_eq!(cl.cores_of_node(1), 4..8);
        // Single-node cluster: buddy is the neighbouring core.
        let one = Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 4, trace: false });
        assert_eq!(one.buddy_of(3), 0);
    }

    #[test]
    fn bulk_advance_replays_a_measured_window() {
        // Measure a quiescent window on one cluster, replay it on a twin.
        let mk = || {
            let mut cl = Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 2, trace: false });
            cl.start_fg(0, FgLabel { chare: 0 }, Dur::from_ms(1), 1.0);
            cl.advance_to(Time::from_us(1_000));
            cl
        };
        let mut slow = mk();
        let before = slow.stats();
        slow.advance_to(Time::from_us(9_000));
        let deltas: Vec<CoreStat> = slow
            .stats()
            .iter()
            .zip(&before)
            .map(|(now, b)| CoreStat {
                fg_us: now.fg_us - b.fg_us,
                bg_us: now.bg_us - b.bg_us,
                idle_us: now.idle_us - b.idle_us,
            })
            .collect();
        let mut fast = mk();
        fast.bulk_advance(Time::from_us(9_000), &deltas, Vec::new());
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn bulk_advance_installs_recut_hosts() {
        // A window with a background host on core 1: the live twin is cut
        // at every step; the fast twin re-cuts a copy of core 1 through
        // the same instants and credits core 0 its measured delta.
        let mk = || {
            let mut cl = Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 2, trace: false });
            cl.add_bg(1, 7, Some(Dur::from_us(50_000)), 1.0);
            cl.advance_to(Time::from_us(1_000));
            cl
        };
        let cuts = [1_700, 2_333, 4_000, 9_000].map(Time::from_us);
        let mut slow = mk();
        let before = slow.stats();
        slow.start_fg(0, FgLabel { chare: 0 }, Dur::from_us(3_000), 1.0);
        slow.start_fg(1, FgLabel { chare: 1 }, Dur::from_us(1_500), 1.0);
        let mut ev = Vec::new();
        for &t in &cuts {
            slow.advance_into(t, &mut ev);
        }
        let delta = ProcStat { cores: slow.stats() }.delta_since(&ProcStat { cores: before });

        let mut fast = mk();
        let mut host = fast.core(1).clone();
        host.start_fg(FgLabel { chare: 1 }, Dur::from_us(1_500), 1.0);
        let mut host_ev = Vec::new();
        for &t in &cuts {
            host.advance(t, &mut host_ev, None);
        }
        assert_eq!(host_ev, vec![(Time::from_us(4_000), CoreEvent::FgDone { core: 1 })]);
        fast.bulk_advance(Time::from_us(9_000), &delta, vec![host]);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.bg_shares(), slow.bg_shares());
        assert_eq!(fast.next_completion(1), slow.next_completion(1));
        assert_eq!(fast.bg_shares(), vec![(1, 7, 1.0f64.to_bits())]);
    }

    #[test]
    fn any_bg_tracks_residency() {
        let mut cl = Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 2, trace: false });
        let mut scratch = Vec::new();
        assert!(!cl.any_bg());
        cl.add_bg(1, 3, None, 1.0);
        assert!(cl.any_bg());
        cl.remove_bg(1, 3);
        assert!(!cl.any_bg());
        // A finite task's completion clears it, with or without a drain.
        cl.add_bg(0, 4, Some(Dur::from_us(500)), 1.0);
        cl.drain_touched(&mut scratch);
        assert!(cl.any_bg());
        let mut ev = Vec::new();
        cl.advance_due_into(Time::from_us(500), &[], &mut ev);
        assert_eq!(ev, vec![(Time::from_us(500), CoreEvent::BgDone { core: 0, job: 4 })]);
        assert!(!cl.any_bg());
        cl.drain_touched(&mut scratch);
        assert!(!cl.any_bg());
        // So does a kill.
        cl.add_bg(1, 5, None, 1.0);
        assert!(cl.any_bg());
        cl.kill_core(1);
        assert!(!cl.any_bg());
    }

    #[test]
    fn lazy_cluster_matches_an_eagerly_advanced_twin() {
        // Random foreground starts, background arrivals and removals, and
        // kills, driven through both entry points: the lazy twin advances
        // only the due cores (plus its eager set), the other every core.
        // Completions, projected counters and next completions agree.
        let mut rng = crate::rng::SimRng::new(0xC1_5E77);
        for case in 0..48 {
            let cfg = ClusterConfig { nodes: 2, cores_per_node: 4, trace: false };
            let (mut lazy, mut eager) = (Cluster::new(cfg.clone()), Cluster::new(cfg));
            let (mut ev_lazy, mut ev_eager, mut due, mut touched) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let mut t = Time::ZERO;
            for step in 0..300 {
                let core = rng.below(8) as usize;
                match rng.below(10) {
                    0..=5 if !lazy.fg_busy(core) && lazy.is_alive(core) => {
                        let demand = Dur::from_us(rng.range_u64(0, 5_000));
                        for cl in [&mut lazy, &mut eager] {
                            cl.start_fg(core, FgLabel { chare: step }, demand, 1.0);
                        }
                    }
                    6 if lazy.is_alive(core) => {
                        let demand = (rng.below(2) == 0)
                            .then(|| Dur::from_us(rng.range_u64(1, 20_000)));
                        let weight = rng.range_f64(0.5, 4.0);
                        for cl in [&mut lazy, &mut eager] {
                            cl.add_bg(core, step as BgJobId, demand, weight);
                        }
                    }
                    7 => {
                        if let Some(&job) = lazy.bg_jobs_on(core).first() {
                            for cl in [&mut lazy, &mut eager] {
                                cl.remove_bg(core, job);
                            }
                        }
                    }
                    8 if rng.below(20) == 0 => {
                        for cl in [&mut lazy, &mut eager] {
                            cl.kill_core(core);
                            cl.restore_core(core);
                        }
                    }
                    _ => {}
                }
                lazy.drain_touched(&mut touched);
                // The next instant: the earliest completion, or earlier.
                let next = (0..8).filter_map(|c| lazy.next_completion(c)).min();
                let jump = Time::from_us(t.as_us() + rng.range_u64(0, 3_000));
                t = next.map_or(jump, |n| n.min(jump)).max(t);
                due.clear();
                due.extend((0..8).filter(|&c| lazy.next_completion(c).is_some_and(|n| n <= t)));
                lazy.advance_due_into(t, &due, &mut ev_lazy);
                eager.advance_into(t, &mut ev_eager);
                assert_eq!(ev_lazy, ev_eager, "case {case} step {step}: completions");
                assert_eq!(lazy.stats(), eager.stats(), "case {case} step {step}: counters");
                for c in 0..8 {
                    assert_eq!(lazy.next_completion(c), eager.next_completion(c), "case {case}");
                }
            }
        }
    }

    #[test]
    fn stats_snapshot_all_cores() {
        let mut cl = Cluster::new(ClusterConfig { nodes: 1, cores_per_node: 3, trace: false });
        cl.add_bg(2, 0, None, 1.0);
        cl.advance_to(Time::from_us(5_000));
        let st = cl.stats();
        assert_eq!(st.len(), 3);
        assert_eq!(st[0].idle_us, 5_000);
        assert_eq!(st[2].bg_us, 5_000);
    }
}
