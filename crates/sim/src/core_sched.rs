//! Proportional-share core model.
//!
//! Each simulated core time-shares its cycles between at most one
//! *foreground* computation (the application PE executing a task) and any
//! number of *background* tasks (co-located interfering jobs), exactly like
//! a Linux CFS run-queue shared between a VM's vCPU and its noisy
//! neighbours. Every runnable entity receives CPU at a rate proportional to
//! its weight — a generalized-processor-sharing (GPS) fluid model, advanced
//! piecewise between composition changes so sharing is exact.
//!
//! Faithfulness notes (paper §IV):
//! * The Projections tool "includes the time spent executing the 1-core run
//!   in the time spent executing tasks of the 4-core run because it cannot
//!   identify when the operating system switches context". We reproduce
//!   that: the trace records the whole wall-clock extent of a task as task
//!   time even when background work was interleaved, so timeline figures
//!   show the same inflated bars as the paper's Figure 1(b).
//! * The `/proc/stat`-style counters ([`CoreStat`]) keep the truth: CPU
//!   cycles actually delivered to the application, to background jobs, and
//!   genuinely idle time. The runtime derives the paper's `O_p` (Eq. 2)
//!   from these.

use crate::time::{ceil_u64, has_fraction, round_u64, Dur, Time};
use cloudlb_trace::{Activity, TraceLog};
use serde::{Deserialize, Serialize};

/// Identifier of a background (interfering) job.
pub type BgJobId = u32;

/// What the foreground is running, for trace attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FgLabel {
    /// Chare whose entry method is executing (trace color/glyph key).
    pub chare: u64,
}

/// Completion notifications produced while advancing a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// The foreground task finished consuming its CPU demand.
    FgDone {
        /// Core on which it ran.
        core: usize,
    },
    /// A finite background task finished its CPU demand.
    BgDone {
        /// Core on which it ran.
        core: usize,
        /// The job it belonged to.
        job: BgJobId,
    },
}

/// Cumulative per-core CPU accounting in microseconds (the simulator's
/// `/proc/stat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStat {
    /// Cycles delivered to the application (foreground).
    pub fg_us: u64,
    /// Cycles consumed by background jobs.
    pub bg_us: u64,
    /// Cycles where the core had nothing runnable.
    pub idle_us: u64,
}

impl CoreStat {
    /// Total wall time accounted.
    pub fn total_us(&self) -> u64 {
        self.fg_us + self.bg_us + self.idle_us
    }

    /// Busy (non-idle) microseconds.
    pub fn busy_us(&self) -> u64 {
        self.fg_us + self.bg_us
    }
}

#[derive(Debug, Clone)]
struct FgRun {
    label: FgLabel,
    weight: f64,
    remaining_us: f64,
}

#[derive(Debug, Clone)]
struct BgTask {
    job: BgJobId,
    weight: f64,
    /// `f64::INFINITY` models an open-ended interfering job.
    remaining_us: f64,
    consumed_us: f64,
}

/// One simulated core.
#[derive(Debug, Clone)]
pub struct Core {
    index: usize,
    fg: Option<FgRun>,
    bg: Vec<BgTask>,
    last: Time,
    stat: CoreStat,
    /// Sub-microsecond accounting residue folded into idle.
    dust_us: f64,
    /// Sum of the runnable weights, cached by [`Core::refresh`].
    total_w: f64,
    /// [`Core::next_completion`], cached by [`Core::refresh`].
    next: Option<Time>,
}

/// Completions shorter than this are treated as immediate (guards against
/// rounding loops at µs resolution).
const EPS_US: f64 = 1e-6;

impl Core {
    /// Fresh idle core.
    pub fn new(index: usize) -> Self {
        Core {
            index,
            fg: None,
            bg: Vec::new(),
            last: Time::ZERO,
            stat: CoreStat::default(),
            dust_us: 0.0,
            total_w: 0.0,
            next: None,
        }
    }

    /// Core index within the cluster.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Cumulative `/proc/stat` counters (valid as of the last `advance`).
    pub fn stat(&self) -> CoreStat {
        self.stat
    }

    /// The counters that advancing to `now` would produce, without
    /// cutting a segment. Exact for a core with no background task, a unit
    /// foreground weight and no completion before `now`: its foreground
    /// (if any) receives every microsecond of the gap, otherwise the gap
    /// is idle.
    pub fn stat_at(&self, now: Time) -> CoreStat {
        let mut stat = self.stat;
        if now > self.last {
            debug_assert!(
                self.bg.is_empty() && self.fg.as_ref().is_none_or(|f| f.weight == 1.0),
                "core {}: projected across GPS sharing",
                self.index
            );
            debug_assert!(
                self.next_completion().is_none_or(|c| c > now),
                "core {}: projected past a completion",
                self.index
            );
            let gap = (now - self.last).as_us();
            match self.fg {
                Some(_) => stat.fg_us += gap,
                None => stat.idle_us += gap,
            }
        }
        stat
    }

    /// `true` if how this core's time is cut into segments can change its
    /// accounting: GPS sharing with a background task rounds per segment,
    /// and so does a foreground weight other than 1 or a fractional
    /// remaining demand (the residue of sharing that a `remove_bg` or a
    /// background completion left behind; a sub-`EPS_US` residue
    /// completes at whichever instant first reaches it). Every other core
    /// accrues exactly the wall time of any segment, so it may be settled
    /// lazily.
    pub fn segmentation_sensitive(&self) -> bool {
        !self.bg.is_empty()
            || self.fg.as_ref().is_some_and(|f| f.weight != 1.0 || has_fraction(f.remaining_us))
    }

    /// The instant up to which this core's accounting is complete.
    pub fn accounted_until(&self) -> Time {
        self.last
    }

    /// `true` while a foreground task is executing.
    pub fn fg_busy(&self) -> bool {
        self.fg.is_some()
    }

    /// Background tasks currently hosted (job ids).
    pub fn bg_jobs(&self) -> Vec<BgJobId> {
        self.bg.iter().map(|b| b.job).collect()
    }

    /// Background tasks currently hosted, as `(job, weight)`.
    pub fn bg_shares(&self) -> impl Iterator<Item = (BgJobId, f64)> + '_ {
        self.bg.iter().map(|b| (b.job, b.weight))
    }

    /// `true` while at least one background task is hosted here.
    pub fn has_bg(&self) -> bool {
        !self.bg.is_empty()
    }

    /// Begin executing a foreground task with the given pure-CPU `demand`.
    ///
    /// Panics if a foreground task is already running — the PE is a serial
    /// scheduler, it executes one entry method at a time.
    pub fn start_fg(&mut self, label: FgLabel, demand: Dur, weight: f64) {
        assert!(self.fg.is_none(), "core {} fg already busy", self.index);
        assert!(weight > 0.0, "non-positive fg weight");
        self.fg = Some(FgRun { label, weight, remaining_us: demand.as_us() as f64 });
        self.refresh();
    }

    /// Add a background task. `demand = None` runs until removed.
    pub fn add_bg(&mut self, job: BgJobId, demand: Option<Dur>, weight: f64) {
        assert!(weight > 0.0, "non-positive bg weight");
        self.bg.push(BgTask {
            job,
            weight,
            remaining_us: demand.map_or(f64::INFINITY, |d| d.as_us() as f64),
            consumed_us: 0.0,
        });
        self.refresh();
    }

    /// Abort the running foreground task (PE failure): the partially
    /// executed work is lost. Returns its label if one was running.
    pub fn abort_fg(&mut self) -> Option<FgLabel> {
        let aborted = self.fg.take().map(|f| f.label);
        self.refresh();
        aborted
    }

    /// Drop every background task (the core died under them). Returns each
    /// evicted job with whether its demand was finite (finite tasks were
    /// still owed a completion event).
    pub fn clear_bg(&mut self) -> Vec<(BgJobId, bool)> {
        let evicted = self.bg.drain(..).map(|b| (b.job, b.remaining_us.is_finite())).collect();
        self.refresh();
        evicted
    }

    /// Remove every background task of `job`; returns CPU it consumed here.
    pub fn remove_bg(&mut self, job: BgJobId) -> Dur {
        let mut consumed = 0.0;
        self.bg.retain(|b| {
            if b.job == job {
                consumed += b.consumed_us;
                false
            } else {
                true
            }
        });
        self.refresh();
        Dur::from_us(round_u64(consumed))
    }

    fn total_weight(&self) -> f64 {
        let fg_w = self.fg.as_ref().map_or(0.0, |f| f.weight);
        fg_w + self.bg.iter().map(|b| b.weight).sum::<f64>()
    }

    /// Earliest future instant at which a runnable entity completes its
    /// demand, given the *current* composition. `None` if nothing finite is
    /// runnable. Cached: every composition change and every cut refreshes
    /// it.
    pub fn next_completion(&self) -> Option<Time> {
        self.next
    }

    /// Recompute the cached total weight and next completion from the
    /// current composition, remaining demands and `last`.
    fn refresh(&mut self) {
        self.total_w = self.total_weight();
        self.next = self.completion_under(self.total_w);
    }

    /// `true` when the cached total weight and next completion equal a
    /// fresh recompute (the executor's debug-build shadow check).
    pub(crate) fn cache_is_fresh(&self) -> bool {
        let total_w = self.total_weight();
        total_w.to_bits() == self.total_w.to_bits() && self.completion_under(total_w) == self.next
    }

    fn completion_under(&self, total_w: f64) -> Option<Time> {
        if total_w <= 0.0 {
            return None;
        }
        let mut best: Option<f64> = None;
        if let Some(fg) = &self.fg {
            let dt = fg.remaining_us * total_w / fg.weight;
            best = Some(best.map_or(dt, |b: f64| b.min(dt)));
        }
        for b in &self.bg {
            if b.remaining_us.is_finite() {
                let dt = b.remaining_us * total_w / b.weight;
                best = Some(best.map_or(dt, |x: f64| x.min(dt)));
            }
        }
        best.map(|dt| self.last + Dur::from_us(ceil_u64(dt)))
    }

    /// Emit completions, stamped `last`, for entities whose demand is
    /// exhausted (zero-demand tasks, or demand used up by the segment that
    /// ended at `last`). Returns `true` if anything completed.
    fn reap_completed(&mut self, events: &mut Vec<(Time, CoreEvent)>) -> bool {
        let before = events.len();
        if self.fg.as_ref().is_some_and(|fg| fg.remaining_us <= EPS_US) {
            events.push((self.last, CoreEvent::FgDone { core: self.index }));
            self.fg = None;
        }
        if self.bg.iter().any(|b| b.remaining_us <= EPS_US) {
            let (idx, last) = (self.index, self.last);
            self.bg.retain(|b| {
                if b.remaining_us <= EPS_US {
                    events.push((last, CoreEvent::BgDone { core: idx, job: b.job }));
                    false
                } else {
                    true
                }
            });
        }
        events.len() != before
    }

    /// Fast-forward support: jump accounting to `to` in one step, crediting
    /// the precomputed counter `delta` wholesale. Only legal while the core
    /// is *quiescent* (no foreground task, no background tasks) — exactly
    /// the state a parked PE is in at an LB release. A quiescent window has
    /// no GPS segmentation effects, so a previously measured window's
    /// deltas are translation-invariant and replaying them here yields the
    /// same `/proc/stat` counters the event loop would have produced.
    ///
    /// Records nothing into a trace; callers wanting honest timelines mark
    /// the coalesced window themselves.
    pub fn bulk_advance(&mut self, to: Time, delta: CoreStat) {
        assert!(self.fg.is_none(), "core {}: bulk_advance with fg busy", self.index);
        assert!(self.bg.is_empty(), "core {}: bulk_advance with bg tasks", self.index);
        assert!(to >= self.last, "core {}: bulk_advance into the past", self.index);
        debug_assert_eq!(
            delta.total_us(),
            (to - self.last).as_us(),
            "core {}: window delta does not cover the jump",
            self.index
        );
        self.stat.fg_us += delta.fg_us;
        self.stat.bg_us += delta.bg_us;
        self.stat.idle_us += delta.idle_us;
        self.last = to;
        self.refresh();
    }

    /// Advance accounting to `to`, distributing CPU by weight and emitting
    /// completion events (timestamped) into `events`. Optionally records
    /// Projections-style intervals into `trace`.
    pub fn advance(
        &mut self,
        to: Time,
        events: &mut Vec<(Time, CoreEvent)>,
        mut trace: Option<&mut TraceLog>,
    ) {
        // Entities that are complete at entry (e.g. zero-demand tasks
        // started since the last advance) must be reaped even when
        // `to == last` and the loop below does not run.
        if self.reap_completed(events) {
            self.refresh();
        }
        while self.last < to {
            let total_w = self.total_w;
            if total_w <= 0.0 {
                // Nothing runnable: idle to `to`.
                let wall = (to - self.last).as_us();
                self.stat.idle_us += wall;
                if let Some(t) = trace.as_deref_mut() {
                    t.record(self.index, self.last.as_us(), to.as_us(), Activity::Idle);
                }
                self.last = to;
                break;
            }

            // Find the earliest internal completion.
            let seg_end = match self.next {
                Some(c) if c < to => c,
                _ => to,
            };
            let wall_us = (seg_end - self.last).as_us() as f64;

            // Distribute the segment.
            let mut delivered = 0.0;
            if let Some(fg) = &mut self.fg {
                let share = wall_us * fg.weight / total_w;
                let used = share.min(fg.remaining_us);
                fg.remaining_us -= used;
                delivered += used;
                self.stat.fg_us += round_u64(used);
            }
            for b in &mut self.bg {
                let share = wall_us * b.weight / total_w;
                let used = share.min(b.remaining_us);
                b.remaining_us -= used;
                b.consumed_us += used;
                delivered += used;
                self.stat.bg_us += round_u64(used);
            }
            // Rounding dust: fold into idle once it exceeds a microsecond.
            // Dust is finite and far below 2^63 µs, where truncation is
            // `floor` without the library call.
            self.dust_us += wall_us - delivered;
            if self.dust_us >= 1.0 {
                let whole = self.dust_us as u64;
                self.stat.idle_us += whole;
                self.dust_us -= whole as f64;
            }

            // Trace: the wall extent belongs to the foreground task if one
            // ran (Projections semantics); otherwise to background.
            if let Some(t) = trace.as_deref_mut() {
                if let Some(fg) = &self.fg {
                    t.record(
                        self.index,
                        self.last.as_us(),
                        seg_end.as_us(),
                        Activity::Task { chare: fg.label.chare },
                    );
                } else if let Some(b) = self.bg.first() {
                    t.record(
                        self.index,
                        self.last.as_us(),
                        seg_end.as_us(),
                        Activity::Background { job: b.job },
                    );
                }
            }

            self.last = seg_end;
            self.reap_completed(events);
            self.refresh();
        }
    }
}

#[cfg(test)]
impl Core {
    /// Overwrite the foreground's remaining demand, keeping the cache
    /// fresh (tests only: real residues come from GPS sharing).
    fn set_fg_remaining(&mut self, us: f64) {
        self.fg.as_mut().expect("fg running").remaining_us = us;
        self.refresh();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advance_collect(core: &mut Core, to: Time) -> Vec<(Time, CoreEvent)> {
        let mut ev = Vec::new();
        core.advance(to, &mut ev, None);
        ev
    }

    #[test]
    fn fg_alone_runs_at_full_speed() {
        let mut c = Core::new(0);
        c.start_fg(FgLabel { chare: 1 }, Dur::from_ms(10), 1.0);
        let ev = advance_collect(&mut c, Time::from_us(20_000));
        assert_eq!(ev, vec![(Time::from_us(10_000), CoreEvent::FgDone { core: 0 })]);
        assert_eq!(c.stat().fg_us, 10_000);
        assert_eq!(c.stat().idle_us, 10_000);
        assert!(!c.fg_busy());
    }

    #[test]
    fn equal_weight_sharing_halves_speed() {
        // Paper §V: "CPU was almost equally shared for most cases" — a task
        // needing 10 ms of CPU takes 20 ms of wall time next to a BG job.
        let mut c = Core::new(0);
        c.add_bg(7, None, 1.0);
        c.start_fg(FgLabel { chare: 0 }, Dur::from_ms(10), 1.0);
        let ev = advance_collect(&mut c, Time::from_us(30_000));
        assert_eq!(ev, vec![(Time::from_us(20_000), CoreEvent::FgDone { core: 0 })]);
        // After fg completes, bg gets the whole core.
        assert_eq!(c.stat().fg_us, 10_000);
        assert_eq!(c.stat().bg_us, 10_000 + 10_000);
        assert_eq!(c.stat().idle_us, 0);
    }

    #[test]
    fn weighted_sharing_models_os_preference() {
        // Mol3D case: OS prefers the background job 4:1 — fg gets 20 %.
        let mut c = Core::new(0);
        c.add_bg(1, None, 4.0);
        c.start_fg(FgLabel { chare: 0 }, Dur::from_ms(2), 1.0);
        let ev = advance_collect(&mut c, Time::from_us(100_000));
        assert_eq!(ev[0].0, Time::from_us(10_000)); // 2 ms / 0.2 share
    }

    #[test]
    fn finite_bg_completes_and_frees_core() {
        let mut c = Core::new(3);
        c.add_bg(9, Some(Dur::from_ms(5)), 1.0);
        c.start_fg(FgLabel { chare: 2 }, Dur::from_ms(5), 1.0);
        let ev = advance_collect(&mut c, Time::from_us(10_000));
        // Both complete at 10 ms (each got 50 % of 10 ms of wall).
        assert_eq!(ev.len(), 2);
        assert!(ev.iter().all(|(t, _)| *t == Time::from_us(10_000)));
        assert!(ev.iter().any(|(_, e)| matches!(e, CoreEvent::BgDone { job: 9, core: 3 })));
    }

    #[test]
    fn composition_change_rescales_remaining_work() {
        let mut c = Core::new(0);
        c.start_fg(FgLabel { chare: 0 }, Dur::from_ms(10), 1.0);
        // Run alone for 4 ms, then a bg task arrives.
        advance_collect(&mut c, Time::from_us(4_000));
        c.add_bg(5, None, 1.0);
        let ev = advance_collect(&mut c, Time::from_us(30_000));
        // 6 ms of demand remain; at 50 % speed that is 12 ms more wall.
        assert_eq!(ev, vec![(Time::from_us(16_000), CoreEvent::FgDone { core: 0 })]);
    }

    #[test]
    fn remove_bg_reports_consumption() {
        let mut c = Core::new(0);
        c.add_bg(2, None, 1.0);
        advance_collect(&mut c, Time::from_us(7_000));
        let consumed = c.remove_bg(2);
        assert_eq!(consumed, Dur::from_ms(7));
        assert!(c.bg_jobs().is_empty());
        // Core is now idle.
        advance_collect(&mut c, Time::from_us(9_000));
        assert_eq!(c.stat().idle_us, 2_000);
    }

    #[test]
    fn accounting_is_conserved() {
        let mut c = Core::new(0);
        c.add_bg(1, Some(Dur::from_ms(3)), 2.0);
        c.start_fg(FgLabel { chare: 0 }, Dur::from_ms(4), 1.0);
        advance_collect(&mut c, Time::from_us(50_000));
        let s = c.stat();
        let total = s.total_us() as i64;
        assert!((total - 50_000).abs() <= 2, "accounted {total} of 50000");
    }

    #[test]
    fn trace_shows_inflated_task_bars() {
        // The Figure 1 artifact: with interference the task's wall extent in
        // the trace is twice its CPU demand.
        let mut c = Core::new(0);
        let mut log = TraceLog::new(1);
        let mut ev = Vec::new();
        c.add_bg(0, None, 1.0);
        c.start_fg(FgLabel { chare: 4 }, Dur::from_ms(1), 1.0);
        c.advance(Time::from_us(2_000), &mut ev, Some(&mut log));
        let task_us = log.time_where(0, 0, 10_000, |a| matches!(a, Activity::Task { .. }));
        assert_eq!(task_us, 2_000);
    }

    #[test]
    fn abort_and_clear_drop_entities_without_events() {
        let mut c = Core::new(0);
        c.start_fg(FgLabel { chare: 3 }, Dur::from_ms(10), 1.0);
        c.add_bg(1, Some(Dur::from_ms(5)), 1.0);
        c.add_bg(2, None, 1.0);
        advance_collect(&mut c, Time::from_us(1_000));
        assert_eq!(c.abort_fg(), Some(FgLabel { chare: 3 }));
        assert!(!c.fg_busy());
        let mut evicted = c.clear_bg();
        evicted.sort_unstable();
        assert_eq!(evicted, vec![(1, true), (2, false)]);
        // Nothing left: the core idles and emits no completions.
        let ev = advance_collect(&mut c, Time::from_us(2_000));
        assert!(ev.is_empty());
        assert_eq!(c.abort_fg(), None);
    }

    #[test]
    #[should_panic(expected = "fg already busy")]
    fn double_start_fg_panics() {
        let mut c = Core::new(0);
        c.start_fg(FgLabel { chare: 0 }, Dur::from_ms(1), 1.0);
        c.start_fg(FgLabel { chare: 1 }, Dur::from_ms(1), 1.0);
    }

    #[test]
    fn zero_demand_task_completes_immediately() {
        let mut c = Core::new(0);
        c.start_fg(FgLabel { chare: 0 }, Dur::ZERO, 1.0);
        assert_eq!(c.next_completion(), Some(Time::ZERO));
        let ev = advance_collect(&mut c, Time::from_us(1));
        assert_eq!(ev[0].1, CoreEvent::FgDone { core: 0 });
    }

    #[test]
    fn bulk_advance_matches_segmented_advance() {
        // Two identical quiescent-window workloads: one advanced by the
        // event loop (idle segments), one jumped with the measured delta.
        let mut slow = Core::new(0);
        advance_collect(&mut slow, Time::from_us(12_345));
        let before = slow.stat();
        advance_collect(&mut slow, Time::from_us(40_000));
        let delta = CoreStat {
            fg_us: slow.stat().fg_us - before.fg_us,
            bg_us: slow.stat().bg_us - before.bg_us,
            idle_us: slow.stat().idle_us - before.idle_us,
        };

        let mut fast = Core::new(0);
        advance_collect(&mut fast, Time::from_us(12_345));
        fast.bulk_advance(Time::from_us(40_000), delta);
        assert_eq!(fast.stat(), slow.stat());
        assert_eq!(fast.accounted_until(), slow.accounted_until());
    }

    #[test]
    #[should_panic(expected = "bulk_advance with fg busy")]
    fn bulk_advance_rejects_busy_core() {
        let mut c = Core::new(0);
        c.start_fg(FgLabel { chare: 0 }, Dur::from_ms(1), 1.0);
        c.bulk_advance(Time::from_us(10), CoreStat { fg_us: 0, bg_us: 0, idle_us: 10 });
    }

    #[test]
    #[should_panic(expected = "bulk_advance with bg tasks")]
    fn bulk_advance_rejects_bg_host() {
        let mut c = Core::new(0);
        c.add_bg(1, None, 1.0);
        c.bulk_advance(Time::from_us(10), CoreStat { fg_us: 0, bg_us: 0, idle_us: 10 });
    }

    #[test]
    fn next_completion_none_when_only_infinite_bg() {
        let mut c = Core::new(0);
        c.add_bg(0, None, 1.0);
        assert_eq!(c.next_completion(), None);
    }

    /// A core with no background task and random foreground work left:
    /// an integral demand, or the fractional residue of GPS sharing that a
    /// `remove_bg` leaves behind.
    fn bg_free_core(rng: &mut crate::rng::SimRng, shared: bool) -> Core {
        let mut c = Core::new(0);
        let demand = Dur::from_us(rng.range_u64(0, 40_000));
        if shared {
            c.add_bg(1, None, rng.range_f64(0.3, 5.0));
            c.start_fg(FgLabel { chare: 0 }, demand, 1.0);
            advance_collect(&mut c, Time::from_us(rng.range_u64(0, 3_000)));
            c.remove_bg(1);
        } else {
            advance_collect(&mut c, Time::from_us(rng.range_u64(0, 3_000)));
            c.start_fg(FgLabel { chare: 0 }, demand, 1.0);
        }
        c
    }

    #[test]
    fn core_without_bg_is_invariant_under_cuts() {
        // Random cut points give the same counters, next completion and
        // completion instants as one uncut advance; the projection
        // `stat_at` of the uncut core matches the cut one at every cut.
        let mut rng = crate::rng::SimRng::new(0x1A2_7001);
        let mut fractional = 0;
        for case in 0..512 {
            let core = bg_free_core(&mut rng, case % 2 == 1);
            let frac = core.fg.as_ref().map_or(0.0, |f| f.remaining_us.fract());
            // A sub-EPS residue is the one segmentation-dependent case
            // (see `sub_eps_residue_is_segmentation_sensitive`).
            if frac != 0.0 && frac <= EPS_US {
                continue;
            }
            fractional += usize::from(frac != 0.0);
            let start = core.accounted_until().as_us();
            let to = Time::from_us(start + rng.range_u64(0, 60_000));
            let mut uncut = core.clone();
            let uncut_ev = advance_collect(&mut uncut, to);
            let mut cut = core.clone();
            let mut cut_ev = Vec::new();
            let mut cuts: Vec<u64> =
                (0..rng.range_u64(1, 12)).map(|_| rng.range_u64(start, to.as_us() + 1)).collect();
            cuts.sort_unstable();
            for at in cuts {
                let at = Time::from_us(at);
                if core.next_completion().is_none_or(|c| c > at) {
                    cut.advance(at, &mut cut_ev, None);
                    assert_eq!(core.stat_at(at), cut.stat(), "case {case}: projection at {at:?}");
                    assert_eq!(cut.next_completion(), core.next_completion(), "case {case}");
                } else {
                    cut.advance(at, &mut cut_ev, None);
                }
            }
            cut.advance(to, &mut cut_ev, None);
            assert_eq!(cut_ev, uncut_ev, "case {case}: completions");
            assert_eq!(cut.stat(), uncut.stat(), "case {case}: counters");
            assert_eq!(cut.next_completion(), uncut.next_completion(), "case {case}");
            assert_eq!(cut.dust_us.to_bits(), uncut.dust_us.to_bits(), "case {case}: dust");
        }
        assert!(fractional > 100, "only {fractional} fractional residues exercised");
    }

    #[test]
    fn sub_eps_residue_is_segmentation_sensitive() {
        // A residue of k + δ µs with δ ≤ EPS completes at the first cut at
        // or after k µs, but at its wake (k + 1 µs) when uncut — so such a
        // core must be advanced eagerly.
        let mut c = Core::new(0);
        c.start_fg(FgLabel { chare: 0 }, Dur::from_us(5), 1.0);
        c.set_fg_remaining(5.0 + 5e-7);
        assert!(c.segmentation_sensitive());
        let mut cut = c.clone();
        advance_collect(&mut cut, Time::from_us(5));
        assert_eq!(cut.fg.as_ref().map(|f| f.remaining_us), None, "completed at the cut");
        let uncut = advance_collect(&mut c, Time::from_us(10));
        assert_eq!(uncut, vec![(Time::from_us(6), CoreEvent::FgDone { core: 0 })]);
    }

    #[test]
    fn sensitivity_follows_composition() {
        let mut c = Core::new(0);
        assert!(!c.segmentation_sensitive());
        c.start_fg(FgLabel { chare: 0 }, Dur::from_us(100), 1.0);
        assert!(!c.segmentation_sensitive());
        c.add_bg(1, None, 3.0);
        assert!(c.segmentation_sensitive());
        advance_collect(&mut c, Time::from_us(7));
        c.remove_bg(1);
        // 100 − 7/4 µs remain: a fractional residue keeps it sensitive
        // until the foreground task completes.
        assert!(c.segmentation_sensitive());
        advance_collect(&mut c, Time::from_us(1_000));
        assert!(!c.fg_busy() && !c.segmentation_sensitive());
        c.start_fg(FgLabel { chare: 0 }, Dur::from_us(100), 2.0);
        assert!(c.segmentation_sensitive(), "non-unit fg weight");
    }
}
