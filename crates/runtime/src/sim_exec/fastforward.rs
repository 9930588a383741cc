//! Steady-state fast-forward: window templates for analytic macro-stepping.
//!
//! Between two LB events an iterative run is *periodic*: every chare
//! executes exactly `period` iterations, and the event pattern repeats
//! window after window. A core with no background task accounts in integer
//! microseconds and accrues exactly the wall time of any segment, so its
//! share of a window is **translation-invariant**: shifting the window
//! start by Δ shifts every event by exactly Δ and changes no duration,
//! counter delta, or tie-break. The executor exploits this by *capturing*
//! one live window into a [`WindowTemplate`] (relative event times,
//! per-core counter deltas, message flows) and *replaying* it over later
//! windows in O(n × period) instead of simulating every
//! message/wake/completion event.
//!
//! A window is only captured/replayed when it is provably steady-state:
//!
//! * the background composition — which core hosts which job at what
//!   weight — is the same as the template's, and no background job starts,
//!   stops or completes inside the window. A host core rounds its GPS
//!   accounting once per segment and carries f64 residue (`dust_us`, the
//!   job's remaining and consumed demand) from window to window, so its
//!   counters are not translation-invariant: replay re-cuts a copy of each
//!   host through the template's pop instants and foreground starts
//!   ([`HostTemplate`]) and commits only if its task completions land on
//!   the template's instants ([`cloudlb_sim::Cluster::bulk_advance`]);
//! * nothing in the event queue except current-epoch ghost messages for
//!   the boundary iteration and the background hosts' wake timers
//!   (pending interference, failure, or stale events decline the window);
//! * the network is deterministic over the window (no stochastic chaos
//!   knobs; no partition window opening before the window ends);
//! * task costs are noise-free and match the template bit-for-bit;
//! * the chare→core mapping and alive mask match the template.
//!
//! A host's wake timer pending at the window's end is re-set in the order
//! the live loop set it relative to the end-of-window ghosts and the
//! `LbDone` ([`HostTemplate::end_sent`]), because a timer and a ghost at
//! the same instant pop differently depending on that order.
//!
//! A window failing any of these checks runs on the event-by-event path, so
//! fast-forwarded runs are bit-identical to `fast_forward: off` in every
//! `RunResult` field except the two observability counters
//! (`ff_windows`, `events_skipped`), which
//! [`crate::result::RunResult::scrub_ff`] zeroes for differential tests.
//! The equivalence argument is spelled out in `DESIGN.md`.
//!
//! This module holds both the template types and the `impl Sim` driver
//! that captures and replays them. The rest of the executor knows only
//! [`FfState`]'s one-line hooks — void the capture, record a pop, a
//! foreground start or a task completion, request the close — plus
//! [`Sim::ff_release`] at each AtSync release and [`Sim::ff_close_due`]
//! at the end of each pop.

use super::{CState, Ev, Running, Sim};
use crate::config::{FastForward, RunConfig};
use crate::lbdb::TaskSample;
use cloudlb_balance::TaskId;
use cloudlb_sim::core_sched::{Core, CoreEvent, CoreStat};
use cloudlb_sim::{BgJobId, Dur, FgLabel, ProcStat, Time};
use cloudlb_trace::Activity;
use std::collections::VecDeque;

/// One task completion inside a captured window, in completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FfSample {
    /// Completion instant relative to the window start.
    rel: Dur,
    /// The chare that completed.
    chare: usize,
    /// Iteration offset from the window's boundary iteration.
    iter_off: usize,
    /// CPU time charged (what the LB database records).
    cpu: Dur,
    /// Wall time observed: `cpu` on a core without background load, the
    /// stretched extent on a background host (the re-cut reproduces it, so
    /// `InstrumentMode::WallTime` replays exactly).
    wall: Dur,
}

/// One ghost message crossing a window edge (in flight at the window's
/// start or end), in event-queue sequence order so FIFO tie-breaks replay
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FfMsg {
    /// Scheduled arrival relative to the window start.
    rel: Dur,
    /// Destination chare.
    chare: usize,
}

/// Everything needed to replay one steady-state LB window analytically.
///
/// Captured from a live window spanning `[R, R + dur]`, where `R` is the
/// post-LB release instant and `R + dur` is the instant the last chare
/// parks at the next AtSync barrier. Replaying at a later release `R'`
/// advances the cluster to `R' + dur` in one step and reproduces, bit for
/// bit, every externally visible effect the simulated window would have
/// had: iteration completion times, LB-database samples, counter deltas,
/// message counters, queue statistics, and the exact queue contents at the
/// next barrier.
#[derive(Debug, Clone, Default, PartialEq)]
struct WindowTemplate {
    /// Window length (release → last park).
    dur: Dur,
    /// chare→core mapping the window ran under.
    mapping: Vec<usize>,
    /// Core liveness mask the window ran under.
    alive: Vec<bool>,
    /// `task_cost(chare, boundary + off).to_bits()` for every chare ×
    /// offset, chare-major ([`Sim::ff_costs`]) — replay validity requires
    /// bit-equality so iteration-dependent applications safely decline.
    cost_bits: Vec<u64>,
    /// Ghost messages in flight at the window start (sequence order).
    start_inflight: Vec<FfMsg>,
    /// Inbox counts `(chare, ghosts_received)` for the boundary iteration
    /// at the window start, sorted by chare.
    start_inbox: Vec<(usize, usize)>,
    /// Ghost messages in flight at the window end (sequence order).
    end_inflight: Vec<FfMsg>,
    /// Inbox counts for the next boundary iteration at the window end.
    end_inbox: Vec<(usize, usize)>,
    /// Every task completion, chronologically.
    samples: Vec<FfSample>,
    /// Per-core counter deltas accumulated across the window.
    stat_delta: Vec<CoreStat>,
    /// Intra-node ghost messages sent during the window.
    local_msgs: u64,
    /// Cross-node ghost messages sent during the window.
    remote_msgs: u64,
    /// Event-queue pops the window consumed (credited to
    /// `events_skipped` on replay so `sim_events` stays identical).
    events_popped: u64,
    /// How far the window raised the live queue depth above its starting
    /// level (replayed via `EventQueue::raise_peak`).
    peak_delta: usize,
    /// What re-cutting the background hosts needs; `None` for a window
    /// without background load, which keeps the template at its clean size.
    hosts: Option<Box<HostTemplate>>,
}

/// A background job's share of one host core: `(core, job, weight bits)`,
/// as [`cloudlb_sim::Cluster::bg_shares`] lists them.
type BgShare = (usize, BgJobId, u64);

/// A foreground start on a background host inside a captured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FfStart {
    /// µs after the release.
    rel: u32,
    /// The host core.
    core: usize,
    /// CPU demand of the task.
    demand: Dur,
}

/// The part of a [`WindowTemplate`] that re-cuts background hosts.
///
/// Every task completion is handled in the first pop at its instant (its
/// core's wake is due there), so ghosts are sent and host wakes change
/// only in pops that a host is cut in, or later pops at the same instant.
/// Instants therefore order the host wakes against the pending ghosts.
#[derive(Debug, Clone, Default, PartialEq)]
struct HostTemplate {
    /// The background composition the window ran under.
    bg: Vec<BgShare>,
    /// The window's distinct pop instants after the release, µs after it,
    /// ascending. A host is settled eagerly, so it is cut at every one.
    cuts: Vec<u32>,
    /// Every foreground start on a host core, in execution order.
    starts: Vec<FfStart>,
    /// When each ghost of `end_inflight` was sent, µs after the release.
    /// A host wake last set at instant `w` orders after every ghost sent
    /// at or before `w` (the `LbDone` is scheduled at the window's end,
    /// after its ghosts).
    end_sent: Vec<u32>,
}

impl HostTemplate {
    /// The latest pop instant recorded, µs after the release.
    fn at(&self) -> u32 {
        self.cuts.last().copied().unwrap_or(0)
    }

    /// `true` if `core` hosts background load in this window.
    fn is_host(&self, core: usize) -> bool {
        self.bg.iter().any(|&(c, ..)| c == core)
    }
}

/// A window being captured live: the [`WindowTemplate`] under
/// construction plus the bases its deltas are taken against and the send
/// log that dates the end-of-window ghosts.
#[derive(Debug, Default)]
struct Capture {
    /// The template so far: everything known at the release, then the
    /// samples, pop instants and host starts as the window runs.
    tpl: WindowTemplate,
    /// The release instant `R` the window started at.
    started_at: Time,
    /// The boundary iteration the window starts from.
    boundary: usize,
    /// The window's last iteration, whose completions send the
    /// end-of-window ghosts.
    last_iter: usize,
    /// Ground-truth per-core counters at `R` (delta basis).
    start_stat: Vec<CoreStat>,
    /// Queue pops at `R` (delta basis for `events_popped`).
    start_popped: u64,
    /// Live queue depth at `R` (delta basis for `peak_delta`).
    live_at_start: usize,
    /// `local_msgs` counter at `R`.
    start_local: u64,
    /// `remote_msgs` counter at `R`.
    start_remote: u64,
    /// With background hosts: `(first sequence number, µs after the
    /// release)` of the ghosts each completion of the window's last
    /// iteration sent, in sending order.
    sends: Vec<(u64, u32)>,
    /// `true` while the pop being handled is the first at its instant.
    first_at_instant: bool,
}

/// When the ghost with sequence number `seq` was sent (it must be one of
/// the window's last iteration), µs after the release, from a capture's
/// send log.
fn sent_at(sends: &[(u64, u32)], seq: u64) -> u32 {
    let i = sends.partition_point(|&(first, _)| first <= seq);
    sends[i - 1].1
}

/// The fast-forward engine's state on a [`Sim`].
#[derive(Debug, Default)]
pub(super) struct FfState {
    /// Resolved once from the config: whether the engine may consider
    /// macro-stepping at all (mode allows it, costs are noise-free).
    /// Individual windows are additionally vetted.
    enabled: bool,
    /// Capture in progress for the window currently running live.
    capture: Option<Capture>,
    /// Set by [`Sim::start_lb`] when a window reaches its end; see
    /// [`Sim::ff_close_due`].
    close_pending: bool,
    /// Last successfully captured steady-state window.
    template: Option<WindowTemplate>,
    /// Windows replayed analytically.
    pub(super) windows: usize,
    /// Event pops those replays skipped (folded back into `sim_events`).
    pub(super) events_skipped: u64,
    /// Scratch of the last window-edge scan: the in-flight ghosts with
    /// their sequence numbers, in sequence order ([`Sim::ff_scan_edge`]).
    edge: Vec<(u64, FfMsg)>,
    /// Scratch of the last window-edge scan: the inbox counts.
    edge_inbox: Vec<(usize, usize)>,
}

impl FfState {
    pub(super) fn new(cfg: &RunConfig) -> Self {
        // Fast-forward is only sound when task costs are deterministic;
        // `Auto` additionally preserves exact Projections timelines.
        let enabled = cfg.cost_noise_frac == 0.0
            && match cfg.fast_forward {
                FastForward::Off => false,
                FastForward::On => true,
                FastForward::Auto => !cfg.cluster.trace,
            };
        FfState { enabled, ..Self::default() }
    }

    /// Drop the capture in progress: the window was disturbed.
    pub(super) fn void(&mut self) {
        self.capture = None;
    }

    /// Record a pop at `t` into a capture with background hosts; a window
    /// too long for its µs offsets to fit in `u32` is dropped.
    #[inline]
    pub(super) fn record_pop(&mut self, t: Time) {
        let Some(cap) = &mut self.capture else { return };
        let Some(h) = cap.tpl.hosts.as_deref_mut() else { return };
        match u32::try_from(t.since(cap.started_at).as_us()) {
            Ok(rel) => {
                cap.first_at_instant = rel != h.at();
                if cap.first_at_instant {
                    h.cuts.push(rel);
                }
            }
            Err(_) => self.capture = None,
        }
    }

    /// Record a foreground start of `demand` on `core`.
    #[inline]
    pub(super) fn record_start(&mut self, core: usize, demand: Dur) {
        let Some(h) = self.capture.as_mut().and_then(|c| c.tpl.hosts.as_deref_mut()) else {
            return;
        };
        if h.is_host(core) {
            h.starts.push(FfStart { rel: h.at(), core, demand });
        }
    }

    /// Record the completion of `run` at `now`; `next_seq` is the sequence
    /// number the first ghost it sends will get.
    #[inline]
    pub(super) fn record_completion(&mut self, now: Time, run: Running, next_seq: u64) {
        let Some(cap) = &mut self.capture else { return };
        cap.tpl.samples.push(FfSample {
            rel: now.since(cap.started_at),
            chare: run.chare,
            iter_off: run.iter - cap.boundary,
            cpu: run.cpu,
            wall: now.since(run.start),
        });
        if let Some(h) = &cap.tpl.hosts {
            if !cap.first_at_instant {
                // A zero-demand task: a wake set earlier at this instant
                // orders before the ghosts it sends.
                self.capture = None;
            } else if run.iter == cap.last_iter {
                cap.sends.push((next_seq, h.at()));
            }
        }
    }

    /// Ask for the capture to close once the pop being handled is done.
    pub(super) fn request_close(&mut self) {
        self.close_pending = true;
    }
}

impl<'a> Sim<'a> {
    /// At an AtSync release: replay the stored template over the window
    /// starting at `now` in one macro-step if the window is steady, or
    /// start capturing it so the next one can be replayed. Returns `true`
    /// after a replay: the barrier re-parked at the window's end (with
    /// [`Sim::start_lb`] already invoked), so the caller must not release
    /// it.
    pub(super) fn ff_release(&mut self, now: Time) -> bool {
        if !self.ff.enabled {
            return false;
        }
        if self.ff_try_replay(now) {
            return true;
        }
        self.ff_begin_capture(now);
        false
    }

    /// End-of-pop hook: close a capture whose window ended at `t`. It is
    /// closed only now, after the event popped at `t` has been fully
    /// handled: closing inline from the completion-settling phase would
    /// scan the queue while a same-instant boundary ghost sits in the pop
    /// buffer — already out of the queue, not yet in the inbox — and bake
    /// a template that silently drops that ghost (deadlocking every replay
    /// of it). The barrier's `LbDone` is still pending, so `t` is the
    /// boundary instant the template expects.
    #[inline]
    pub(super) fn ff_close_due(&mut self, t: Time) {
        if std::mem::take(&mut self.ff.close_pending) {
            self.ff_finish_capture(t);
        }
    }

    /// `true` when the chaos layer cannot disturb any send in `[from, to]`.
    /// `to` is compared strictly because the window's last ghosts go out
    /// exactly at `to` (a partition opening then would already cut them).
    fn netfault_quiet_until(&self, from: Time, to: Time) -> bool {
        self.netfault.as_ref().and_then(|ch| ch.next_disturbance_at(from)).is_none_or(|d| d > to)
    }

    /// Bit-exact fingerprint of the task costs the window starting at
    /// `boundary` will execute, chare-major. Capture collects it; the
    /// per-boundary replay check compares it streaming, allocation-free.
    fn ff_costs(&self, boundary: usize) -> impl Iterator<Item = u64> + 'a {
        let (app, period) = (self.app, self.cfg.lb.period);
        (0..app.num_chares()).flat_map(move |chare| {
            (0..period).map(move |off| app.task_cost(chare, boundary + off).to_bits())
        })
    }

    /// Scan a window edge: the live queue and the inbox at a release
    /// (`boundary` is the window's first iteration) or at the barrier that
    /// ends a window (`boundary` is the next window's). Besides the
    /// background hosts' wakes, a steady-state edge holds only
    /// current-epoch, non-duplicate ghosts for `boundary` and current
    /// `LbDone`s; anything else — pending interference, failure or
    /// membership actions, stale-epoch leftovers, other wakes, buffered
    /// ghosts of another iteration — disqualifies it (`None`). Otherwise
    /// the in-flight ghosts, relative to `origin` and in sequence order
    /// (so FIFO tie-breaks compare and replay identically), are left in
    /// `ff.edge`, the inbox counts sorted by chare in `ff.edge_inbox`, and
    /// the number of pending `LbDone`s is returned.
    fn ff_scan_edge(&mut self, origin: Time, boundary: usize) -> Option<usize> {
        // Every chare is parked at an edge, so a wake can only wait on a
        // background task's completion.
        let foreign_timer = self.queue.pending_timers().any(|(core, _)| {
            debug_assert!(!self.cluster.fg_busy(core), "core {core} busy at a window edge");
            !self.cluster.core(core).has_bg()
        });
        if foreign_timer {
            return None;
        }
        let (msgs, inbox) = (&mut self.ff.edge, &mut self.ff.edge_inbox);
        msgs.clear();
        inbox.clear();
        let mut lb_done = 0;
        for (at, seq, ev) in self.queue.events() {
            match *ev {
                Ev::Msg { chare, iter, epoch, dup: false }
                    if iter == boundary && epoch == self.epoch =>
                {
                    msgs.push((seq, FfMsg { rel: at.since(origin), chare }));
                }
                Ev::LbDone { epoch } if epoch == self.epoch => lb_done += 1,
                _ => return None,
            }
        }
        msgs.sort_unstable_by_key(|&(seq, _)| seq);
        // The chare-major slot scan yields the counts already sorted.
        for chare in 0..self.app.num_chares() {
            for s in [Self::inbox_slot(chare, 0), Self::inbox_slot(chare, 1)] {
                let count = self.inbox_count[s] as usize;
                if count == 0 {
                    continue;
                }
                if self.inbox_iter[s] != boundary {
                    return None; // foreign-iteration ghosts buffered
                }
                inbox.push((chare, count));
            }
        }
        Some(lb_done)
    }

    /// The in-flight ghosts of the last edge scan, without their sequence
    /// numbers.
    fn ff_edge_msgs(&self) -> impl Iterator<Item = FfMsg> + '_ {
        self.ff.edge.iter().map(|&(_, m)| m)
    }

    /// Open a capture of the window starting at `now` (all chares just
    /// released at `self.lb_boundary`) if it is provably steady-state so
    /// far. Conditions that only resolve at the window's end are
    /// re-checked by [`Sim::ff_finish_capture`].
    fn ff_begin_capture(&mut self, now: Time) {
        let b0 = self.lb_boundary;
        let period = self.cfg.lb.period;
        if b0 + period >= self.cfg.iterations {
            return; // window would end the app
        }
        if !self.netfault_quiet_until(now, now) {
            return; // stochastic chaos, or a partition is already open
        }
        if self.ff_scan_edge(now, b0) != Some(0) {
            return;
        }
        self.queue.mark_window();
        let n = self.app.num_chares();
        let mut cost_bits = Vec::with_capacity(n * period);
        cost_bits.extend(self.ff_costs(b0));
        let tpl = WindowTemplate {
            mapping: self.mapping.clone(),
            alive: self.cluster.alive_mask(),
            cost_bits,
            start_inflight: self.ff_edge_msgs().collect(),
            start_inbox: self.ff.edge_inbox.clone(),
            samples: Vec::with_capacity(n * period),
            hosts: self.cluster.any_bg().then(|| {
                Box::new(HostTemplate { bg: self.cluster.bg_shares(), ..Default::default() })
            }),
            ..Default::default()
        };
        self.ff.capture = Some(Capture {
            tpl,
            started_at: now,
            boundary: b0,
            last_iter: b0 + period - 1,
            start_stat: self.cluster.stats(),
            start_popped: self.queue.total_popped(),
            live_at_start: self.queue.len(),
            start_local: self.local_msgs,
            start_remote: self.remote_msgs,
            ..Default::default()
        });
    }

    /// Close the capture opened at this window's release and turn it into
    /// a reusable template — or discard it if the window turned out not to
    /// be steady-state after all.
    fn ff_finish_capture(&mut self, now: Time) {
        let Some(cap) = self.ff.capture.take() else { return };
        let b1 = cap.boundary + self.cfg.lb.period;
        debug_assert_eq!(b1, self.lb_boundary, "capture spans exactly one LB window");
        if !self.netfault_quiet_until(cap.started_at, now) {
            return; // a partition window opened while the capture ran
        }
        if cap.tpl.samples.len() != self.app.num_chares() * self.cfg.lb.period {
            return; // some task ran outside the window's iteration block
        }
        // A background composition that changed disqualifies the window:
        // a completion inside it removed a task (starts and stops void the
        // capture as they happen). So does anything pending at the barrier
        // but next-boundary ghosts in flight (replayed as fresh events),
        // the one `LbDone` just scheduled and the background hosts' wakes.
        if cap.tpl.hosts.as_ref().is_some_and(|h| h.bg != self.cluster.bg_shares()) {
            return;
        }
        if self.ff_scan_edge(cap.started_at, b1) != Some(1) {
            return;
        }
        let Capture { mut tpl, started_at, start_stat, sends, .. } = cap;
        tpl.dur = now.since(started_at);
        tpl.end_inflight = self.ff_edge_msgs().collect();
        tpl.end_inbox = self.ff.edge_inbox.clone();
        tpl.stat_delta =
            ProcStat { cores: self.cluster.stats() }.delta_since(&ProcStat { cores: start_stat });
        tpl.local_msgs = self.local_msgs - cap.start_local;
        tpl.remote_msgs = self.remote_msgs - cap.start_remote;
        tpl.events_popped = self.queue.total_popped() - cap.start_popped;
        tpl.peak_delta = self.queue.window_peak() - cap.live_at_start;
        if let Some(h) = tpl.hosts.as_deref_mut() {
            h.end_sent = self.ff.edge.iter().map(|&(seq, _)| sent_at(&sends, seq)).collect();
        }
        self.ff.template = Some(tpl);
    }

    /// Replay the stored template over the window starting at `now` if
    /// every validity condition holds: same boundary-relative costs, same
    /// mapping, alive mask and background composition, identical
    /// in-flight/buffered ghosts, quiet network through the window's end,
    /// the window cannot finish the app, and every background host re-cuts
    /// onto the template's completions ([`Sim::ff_recut`]). On mismatch the
    /// stale template is dropped so the next live window re-captures fresh
    /// state.
    fn ff_try_replay(&mut self, now: Time) -> bool {
        let Some(t) = self.ff.template.take() else { return false };
        let b0 = self.lb_boundary;
        let same_bg = match &t.hosts {
            None => !self.cluster.any_bg(),
            Some(h) => h.bg == self.cluster.bg_shares(),
        };
        let valid = b0 + self.cfg.lb.period < self.cfg.iterations
            && same_bg
            && t.mapping == self.mapping
            && t.alive == self.cluster.alive_mask()
            && self.netfault_quiet_until(now, now + t.dur)
            && self.ff_scan_edge(now, b0) == Some(0)
            && self.ff_edge_msgs().eq(t.start_inflight.iter().copied())
            && self.ff.edge_inbox == t.start_inbox
            && self.ff_costs(b0).eq(t.cost_bits.iter().copied());
        if !valid {
            return false;
        }
        let recut = t.hosts.as_deref().map_or(Some(Vec::new()), |h| self.ff_recut(now, &t, h));
        let Some(hosts) = recut else { return false };
        self.ff_replay(now, &t, hosts);
        self.ff.template = Some(t);
        true
    }

    /// Re-cut a copy of every background host through the template's
    /// window starting at `now`: advance it with [`Core::advance`] to each
    /// pop instant and start each recorded foreground task, as the live
    /// loop would. The foreground's accounting is translation-invariant
    /// under the same cuts; what differs from the template window is the
    /// f64 residue (`dust_us`, the background task's remaining and consumed
    /// demand), which the re-cut carries exactly. Returns each host with
    /// the instant its wake timer was last set at (µs after `now`; `None`:
    /// not set in the window, by `set_timer`'s no-op rule), or `None`
    /// unless every host completes its tasks at the template's instants
    /// and its background task does not complete.
    fn ff_recut(
        &self,
        now: Time,
        t: &WindowTemplate,
        h: &HostTemplate,
    ) -> Option<Vec<(Core, Option<u32>)>> {
        let mut cores: Vec<usize> = h.bg.iter().map(|&(core, ..)| core).collect();
        cores.dedup();
        let mut out = Vec::with_capacity(cores.len());
        let mut events = Vec::new();
        for core in cores {
            let mut c = self.cluster.core(core).clone();
            let mut done =
                t.samples.iter().filter(|s| t.mapping[s.chare] == core).map(|s| now + s.rel);
            let mut starts = h.starts.iter().filter(|s| s.core == core).peekable();
            let (mut timer, mut set_at) = (self.queue.timer(core), None);
            // The release instant (the host is already there), then each cut.
            for rel in std::iter::once(0).chain(h.cuts.iter().copied()) {
                c.advance(now + Dur::from_us(rel.into()), &mut events, None);
                for (at, e) in events.drain(..) {
                    if matches!(e, CoreEvent::BgDone { .. }) || done.next() != Some(at) {
                        return None;
                    }
                }
                while let Some(s) = starts.next_if(|s| s.rel == rel) {
                    if c.fg_busy() || s.demand == Dur::ZERO {
                        return None; // a zero-demand task completes at its own cut
                    }
                    c.start_fg(FgLabel { chare: 0 }, s.demand, 1.0);
                }
                if c.next_completion() != timer {
                    (timer, set_at) = (c.next_completion(), Some(rel));
                }
            }
            let finished = done.next().is_none() && starts.next().is_none();
            if !finished || c.fg_busy() || c.accounted_until() != now + t.dur {
                return None;
            }
            out.push((c, set_at));
        }
        Some(out)
    }

    /// Apply template `t` to the window starting at `now`: one analytic
    /// macro-step replacing the event-by-event simulation of `period`
    /// iterations, bit-identical in every observable (see `DESIGN.md` for
    /// the equivalence argument).
    ///
    /// `hosts` are the background hosts [`Sim::ff_recut`] advanced through
    /// the window, with the instant each one's wake timer was last set at.
    fn ff_replay(&mut self, now: Time, t: &WindowTemplate, hosts: Vec<(Core, Option<u32>)>) {
        let n = self.app.num_chares();
        let b0 = self.lb_boundary;
        let b1 = b0 + self.cfg.lb.period;
        let end = now + t.dur;
        // The in-flight boundary ghosts were verified against the
        // template; their delivery and consumption are baked into it, so
        // they are discarded un-popped and credited via `events_skipped`.
        // The edge scan proved they are the only payload events pending;
        // the only wakes pending are the background hosts', and they stay.
        let live_before = self.queue.len();
        // Bound outside the assert: its operands do not run in release.
        let discarded = self.queue.discard_events();
        debug_assert_eq!(discarded, t.start_inflight.len());
        // The wakes the window re-set, as `(set at, core, instant)` in the
        // order the live loop set them: by instant, then by ascending core.
        let mut wakes: VecDeque<(u32, usize, Option<Time>)> = hosts
            .iter()
            .filter_map(|(c, set_at)| set_at.map(|rel| (rel, c.index(), c.next_completion())))
            .collect();
        wakes.make_contiguous().sort_unstable_by_key(|&(rel, core, _)| (rel, core));
        // Jump the cluster's accounting across the window in one step
        // (asserts per-core time conservation in debug builds).
        let recut = hosts.into_iter().map(|(c, _)| c).collect();
        self.cluster.bulk_advance(end, &t.stat_delta, recut);
        // Re-enact the externally visible effects of every task
        // completion, in the original order.
        for s in &t.samples {
            self.tracker.contribute(b0 + s.iter_off, now + s.rel);
            self.window.record(TaskSample {
                task: TaskId(s.chare as u64),
                pe: t.mapping[s.chare],
                cpu: s.cpu,
                wall: s.wall,
            });
        }
        self.inbox_count.fill(0);
        for &(chare, count) in &t.end_inbox {
            let s = Self::inbox_slot(chare, b1);
            self.inbox_iter[s] = b1;
            self.inbox_count[s] = count as u32;
        }
        // Re-scheduling in template sequence order preserves FIFO
        // tie-breaks among same-instant arrivals. A host's wake goes where
        // the live loop set it: after the ghosts sent up to its instant (a
        // pop's handlers run before its wakes are set), before later ones.
        let end_sent = t.hosts.as_ref().map_or(&[][..], |h| &h.end_sent[..]);
        for (i, m) in t.end_inflight.iter().enumerate() {
            self.ff_set_wakes_before(&mut wakes, end_sent.get(i).copied().unwrap_or(0));
            self.queue
                .schedule(now + m.rel, Ev::Msg { chare: m.chare, iter: b1, epoch: self.epoch, dup: false });
        }
        self.ff_set_wakes_before(&mut wakes, t.dur.as_us() as u32);
        self.local_msgs += t.local_msgs;
        self.remote_msgs += t.remote_msgs;
        self.ff.events_skipped += t.events_popped;
        self.ff.windows += 1;
        // Every chare ran its `period` iterations and is parked again.
        for chare in 0..n {
            debug_assert_eq!(self.state[chare], CState::Parked);
            self.next_iter[chare] = b1;
            self.atsync.park(chare, n);
        }
        let num_pes = self.num_pes();
        if let Some(tr) = self.cluster.trace_mut() {
            tr.marker(now.as_us(), format!("fast-forward: iterations {b0}..{b1} coalesced"));
            for pe in 0..num_pes {
                tr.record(pe, now.as_us(), end.as_us(), Activity::FastForward);
            }
        }
        self.lb_boundary = b1;
        // The last pop scheduled the LbDone, then set the wakes at its
        // instant.
        self.start_lb(end);
        self.ff_set_wakes_before(&mut wakes, u32::MAX);
        // Account for the queue depth the skipped events would have
        // reached, so `peak_queue_depth` stays bit-identical.
        self.queue.raise_peak(live_before + t.peak_delta);
        #[cfg(debug_assertions)]
        self.check_chares(true);
    }

    /// Set the re-cut hosts' wakes that the live loop set before `rel` µs
    /// after the release, as it did: clearing first gives a wake a fresh
    /// sequence number even when its instant equals the one it held at the
    /// release.
    fn ff_set_wakes_before(&mut self, wakes: &mut VecDeque<(u32, usize, Option<Time>)>, rel: u32) {
        while let Some((_, core, at)) = wakes.pop_front_if(|w| w.0 < rel) {
            self.queue.set_timer(core, None);
            self.queue.set_timer(core, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_cfg;
    use super::super::SimExecutor;
    use super::*;
    use crate::config::{LbConfig, RunConfig};
    use crate::program::SyntheticApp;
    use cloudlb_sim::interference::BgScript;
    use cloudlb_sim::FailureScript;

    #[test]
    fn template_roundtrips_relative_times() {
        // Translation invariance in miniature: applying a template at two
        // different release instants yields identically shifted schedules.
        let msg = FfMsg { rel: Dur::from_us(1_500), chare: 3 };
        let r1 = Time::from_us(10_000);
        let r2 = Time::from_us(77_000);
        assert_eq!((r1 + msg.rel).since(r1), (r2 + msg.rel).since(r2));
    }

    #[test]
    fn host_capture_records_instants_and_senders() {
        let hosts = HostTemplate { bg: vec![(0, 1, 1.0f64.to_bits())], ..Default::default() };
        let tpl = WindowTemplate { hosts: Some(Box::new(hosts)), ..Default::default() };
        let capture = Capture { tpl, ..Default::default() };
        let mut ff = FfState { capture: Some(capture), ..Default::default() };
        // A completion of the window's last iteration (0 here) at `us`
        // whose first ghost gets sequence number `seq`.
        let done = |ff: &mut FfState, us: u64, seq: u64| {
            let run = Running { chare: 0, iter: 0, start: Time::ZERO, cpu: Dur::ZERO };
            ff.record_completion(Time::from_us(us), run, seq);
        };
        ff.record_pop(Time::from_us(0));
        assert!(!ff.capture.as_ref().unwrap().first_at_instant, "the release is not a cut");
        ff.record_pop(Time::from_us(5));
        done(&mut ff, 5, 100);
        ff.record_pop(Time::from_us(5));
        assert!(!ff.capture.as_ref().unwrap().first_at_instant);
        ff.record_pop(Time::from_us(9));
        done(&mut ff, 9, 104);
        let cap = ff.capture.as_ref().expect("capture still open");
        let h = cap.tpl.hosts.as_deref().unwrap();
        assert_eq!(h.cuts, vec![5, 9], "one cut per distinct instant");
        assert_eq!(cap.tpl.samples.len(), 2);
        assert_eq!([100, 103, 104, 250].map(|seq| sent_at(&cap.sends, seq)), [5, 5, 9, 9]);
        assert!(h.is_host(0) && !h.is_host(1));
        // A completion in a later pop at an instant (a zero-demand task)
        // voids the capture.
        ff.record_pop(Time::from_us(9));
        done(&mut ff, 9, 108);
        assert!(ff.capture.is_none());
    }

    #[test]
    fn sample_offsets_are_window_relative() {
        let s = FfSample {
            rel: Dur::from_us(42),
            chare: 7,
            iter_off: 3,
            cpu: Dur::from_us(40),
            wall: Dur::from_us(42),
        };
        // Applying at boundary 20 places the sample at iteration 23.
        assert_eq!(20 + s.iter_off, 23);
        assert!(s.wall >= s.cpu);
    }

    fn with_ff(mut cfg: RunConfig, ff: FastForward) -> RunConfig {
        cfg.fast_forward = ff;
        cfg
    }

    #[test]
    fn fast_forward_replays_clean_windows_bit_identically() {
        use FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        for strategy in ["nolb", "cloudrefine"] {
            let cfg = small_cfg(60, strategy);
            let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), BgScript::none()).run();
            let off = SimExecutor::new(&app, with_ff(cfg, Ff::Off), BgScript::none()).run();
            assert_eq!(off.ff_windows, 0);
            assert_eq!(off.events_skipped, 0);
            assert!(on.ff_windows > 0, "{strategy}: clean run must replay windows");
            assert!(on.events_skipped > 0);
            assert_eq!(on.scrub_ff(), off, "{strategy}: replay must be bit-identical");
        }
    }

    #[test]
    fn fast_forward_recuts_windows_with_background_load() {
        use FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        // Interference over the whole run: every window has a background
        // host, which replay re-cuts instead of declining the window.
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let cfg = small_cfg(40, "nolb");
        let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), bg.clone()).run();
        let off = SimExecutor::new(&app, with_ff(cfg, Ff::Off), bg).run();
        assert!(on.ff_windows > 0, "bg-loaded windows must replay");
        assert_eq!(on.scrub_ff(), off);
    }

    #[test]
    fn fast_forward_resumes_after_a_transient_disturbance() {
        use FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        // A short bg pulse early in the run; steady state afterwards.
        let bg = BgScript::steady(0, &[1], Time::from_us(10_000), Some(Dur::from_ms(20)), 1.0);
        let cfg = small_cfg(80, "cloudrefine");
        let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), bg.clone()).run();
        let off = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::Off), bg).run();
        let on_windows = on.ff_windows;
        assert_eq!(on.scrub_ff(), off, "fallback and resume must stay bit-identical");
        let clean =
            SimExecutor::new(&app, with_ff(cfg, Ff::On), BgScript::none()).run();
        assert!(
            on_windows > 0 && on_windows < clean.ff_windows,
            "disturbed run replays some but fewer windows: {} vs clean {}",
            on_windows,
            clean.ff_windows
        );
    }

    #[test]
    fn fast_forward_declines_under_stochastic_network_chaos() {
        use FastForward as Ff;
        let app = SyntheticApp::ring(32, 0.001);
        let mut cfg = RunConfig::paper(8, 30);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        let run = |ff| {
            SimExecutor::new(&app, with_ff(cfg.clone(), ff), BgScript::none())
                .with_net_faults(cloudlb_sim::NetFaultSpec::flaky_cloud())
                .run()
        };
        let on = run(Ff::On);
        let off = run(Ff::Off);
        assert_eq!(on.ff_windows, 0, "stochastic chaos disables the fast path");
        assert_eq!(on.scrub_ff(), off);
    }

    #[test]
    fn fast_forward_is_exact_across_a_failure_and_recovery() {
        use FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(60, "cloudrefine");
        let fail = FailureScript::kill_core(2, Time::from_us(80_000));
        let run = |ff| {
            SimExecutor::new(&app, with_ff(cfg.clone(), ff), BgScript::none())
                .with_failures(fail.clone())
                .try_run()
                .expect("recoverable failure")
        };
        let on = run(Ff::On);
        let off = run(Ff::Off);
        let on_windows = on.ff_windows;
        assert_eq!(on.scrub_ff(), off, "failure + recovery must stay bit-identical");
        assert!(on_windows > 0, "steady windows around the failure still replay");
    }

    #[test]
    fn auto_mode_preserves_exact_timelines_under_tracing() {
        use FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(40, "cloudrefine").with_trace();
        let auto = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::Auto), BgScript::none()).run();
        assert_eq!(auto.ff_windows, 0, "auto must not coalesce traced runs");
        let off = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::Off), BgScript::none()).run();
        assert_eq!(auto.scrub_ff(), off);
        // Forcing it on coalesces the timeline (and only the timeline).
        let on = SimExecutor::new(&app, with_ff(cfg, Ff::On), BgScript::none()).run();
        assert!(on.ff_windows > 0);
        let tr = on.trace.as_ref().expect("tracing enabled");
        let has_ff = (0..tr.num_pes())
            .any(|pe| tr.intervals(pe).iter().any(|iv| iv.activity == Activity::FastForward));
        assert!(has_ff, "forced-on traced runs mark coalesced windows");
        assert_eq!(on.app_time, off.app_time, "physics is unchanged even when the trace is lossy");
        assert_eq!(on.final_mapping, off.final_mapping);
        assert_eq!(on.sim_events, off.sim_events);
    }

    #[test]
    fn cost_noise_disables_the_fast_path() {
        let app = SyntheticApp::ring(16, 0.001);
        let mut cfg = with_ff(small_cfg(40, "nolb"), FastForward::On);
        cfg.cost_noise_frac = 0.05;
        let r = SimExecutor::new(&app, cfg, BgScript::none()).run();
        assert_eq!(r.ff_windows, 0, "noisy task costs must never replay");
    }

    #[test]
    fn fast_forward_preserves_event_accounting() {
        use FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(60, "nolb");
        let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), BgScript::none()).run();
        let off = SimExecutor::new(&app, with_ff(cfg, Ff::Off), BgScript::none()).run();
        // `sim_events` counts live pops + skipped pops: identical totals.
        assert_eq!(on.sim_events, off.sim_events);
        assert_eq!(on.peak_queue_depth, off.peak_queue_depth);
        assert!(on.events_skipped > 0);
        assert!(on.sim_events > on.events_skipped, "phase B always runs live");
    }
}
