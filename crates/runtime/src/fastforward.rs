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
//! The capture/replay driver lives in [`crate::sim_exec`]; this module
//! holds the plain-data template types.

use cloudlb_sim::core_sched::CoreStat;
use cloudlb_sim::{BgJobId, Dur, Time};

/// One task completion inside a captured window, in completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfSample {
    /// Completion instant relative to the window start.
    pub rel: Dur,
    /// The chare that completed.
    pub chare: usize,
    /// Iteration offset from the window's boundary iteration.
    pub iter_off: usize,
    /// CPU time charged (what the LB database records).
    pub cpu: Dur,
    /// Wall time observed: `cpu` on a core without background load, the
    /// stretched extent on a background host (the re-cut reproduces it, so
    /// `InstrumentMode::WallTime` replays exactly).
    pub wall: Dur,
}

/// A window-start fingerprint: the in-flight boundary ghosts in
/// event-queue sequence order plus the sorted `(chare, count)` inbox
/// contents. Two windows with equal fingerprints start from identical
/// messaging state.
pub type WindowStart = (Vec<FfMsg>, Vec<(usize, usize)>);

/// One ghost message crossing a window edge (in flight at the window's
/// start or end), in event-queue sequence order so FIFO tie-breaks replay
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfMsg {
    /// Scheduled arrival relative to the window start.
    pub rel: Dur,
    /// Destination chare.
    pub chare: usize,
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
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTemplate {
    /// Window length (release → last park).
    pub dur: Dur,
    /// chare→core mapping the window ran under.
    pub mapping: Vec<usize>,
    /// Core liveness mask the window ran under.
    pub alive: Vec<bool>,
    /// `task_cost(chare, boundary + off).to_bits()` for every chare ×
    /// offset, chare-major — replay validity requires bit-equality so
    /// iteration-dependent applications safely decline.
    pub cost_bits: Vec<u64>,
    /// Ghost messages in flight at the window start (sequence order).
    pub start_inflight: Vec<FfMsg>,
    /// Inbox counts `(chare, ghosts_received)` for the boundary iteration
    /// at the window start, sorted by chare.
    pub start_inbox: Vec<(usize, usize)>,
    /// Ghost messages in flight at the window end (sequence order).
    pub end_inflight: Vec<FfMsg>,
    /// Inbox counts for the next boundary iteration at the window end.
    pub end_inbox: Vec<(usize, usize)>,
    /// Every task completion, chronologically.
    pub samples: Vec<FfSample>,
    /// Per-core counter deltas accumulated across the window.
    pub stat_delta: Vec<CoreStat>,
    /// Intra-node ghost messages sent during the window.
    pub local_msgs: u64,
    /// Cross-node ghost messages sent during the window.
    pub remote_msgs: u64,
    /// Event-queue pops the window consumed (credited to
    /// `events_skipped` on replay so `sim_events` stays identical).
    pub events_popped: u64,
    /// How far the window raised the live queue depth above its starting
    /// level (replayed via `EventQueue::raise_peak`).
    pub peak_delta: usize,
    /// What re-cutting the background hosts needs; `None` for a window
    /// without background load, which keeps the template at its clean size.
    pub hosts: Option<Box<HostTemplate>>,
}

/// A background job's share of one host core: `(core, job, weight bits)`,
/// as [`cloudlb_sim::Cluster::bg_shares`] lists them.
pub type BgShare = (usize, BgJobId, u64);

/// A foreground start on a background host inside a captured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfStart {
    /// µs after the release.
    pub rel: u32,
    /// The host core.
    pub core: usize,
    /// CPU demand of the task.
    pub demand: Dur,
}

/// The part of a [`WindowTemplate`] that re-cuts background hosts.
///
/// Every task completion is handled in the first pop at its instant (its
/// core's wake is due there), so ghosts are sent and host wakes change
/// only in pops that a host is cut in, or later pops at the same instant.
/// Instants therefore order the host wakes against the pending ghosts.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTemplate {
    /// The background composition the window ran under.
    pub bg: Vec<BgShare>,
    /// The window's distinct pop instants after the release, µs after it,
    /// ascending. A host is settled eagerly, so it is cut at every one.
    pub cuts: Vec<u32>,
    /// Every foreground start on a host core, in execution order.
    pub starts: Vec<FfStart>,
    /// When each ghost of `end_inflight` was sent, µs after the release.
    /// A host wake last set at instant `w` orders after every ghost sent
    /// at or before `w` (the `LbDone` is scheduled at the window's end,
    /// after its ghosts).
    pub end_sent: Vec<u32>,
}

/// In-progress capture state while a candidate window runs live.
#[derive(Debug)]
pub struct Capture {
    /// The release instant `R` the window started at.
    pub started_at: Time,
    /// The boundary iteration the window starts from.
    pub boundary: usize,
    /// Ground-truth per-core counters at `R` (delta basis).
    pub start_stat: Vec<CoreStat>,
    /// Queue pops at `R` (delta basis for `events_popped`).
    pub start_popped: u64,
    /// Live queue depth at `R` (delta basis for `peak_delta`).
    pub live_at_start: usize,
    /// `local_msgs` counter at `R`.
    pub start_local: u64,
    /// `remote_msgs` counter at `R`.
    pub start_remote: u64,
    /// Mapping snapshot (constant across the window).
    pub mapping: Vec<usize>,
    /// Alive-mask snapshot (constant across a disturbance-free window).
    pub alive: Vec<bool>,
    /// Cost fingerprint for the window's iterations.
    pub cost_bits: Vec<u64>,
    /// In-flight ghosts at `R`, sequence-ordered.
    pub start_inflight: Vec<FfMsg>,
    /// Boundary-iteration inbox counts at `R`, sorted by chare.
    pub start_inbox: Vec<(usize, usize)>,
    /// Task completions recorded as the window runs.
    pub samples: Vec<FfSample>,
    /// Background-host recording, for a window that starts with background
    /// load.
    pub hosts: Option<Box<HostCapture>>,
}

/// What a capture records beside the clean template while background
/// hosts are resident (see [`HostTemplate`]).
#[derive(Debug, Default)]
pub struct HostCapture {
    /// Background composition at the release.
    pub bg: Vec<BgShare>,
    /// Distinct pop instants so far (see [`HostTemplate::cuts`]).
    pub cuts: Vec<u32>,
    /// Foreground starts on host cores so far.
    pub starts: Vec<FfStart>,
    /// `(first sequence number, µs after the release)` of the ghosts each
    /// completion of the window's last iteration sent, in sending order.
    pub sends: Vec<(u64, u32)>,
    /// `true` while the pop being handled is the first at its instant.
    pub first_at_instant: bool,
}

impl HostCapture {
    /// Open at the release with background composition `bg`.
    pub fn new(bg: Vec<BgShare>) -> Self {
        HostCapture { bg, ..Self::default() }
    }

    /// The instant of the pop being handled, µs after the release.
    pub fn at(&self) -> u32 {
        self.cuts.last().copied().unwrap_or(0)
    }

    /// Record a pop `rel` µs after the release.
    pub fn on_pop(&mut self, rel: u32) {
        self.first_at_instant = rel != self.at();
        if self.first_at_instant {
            self.cuts.push(rel);
        }
    }

    /// `true` if `core` hosts background load in this window.
    pub fn is_host(&self, core: usize) -> bool {
        self.bg.iter().any(|&(c, ..)| c == core)
    }

    /// When the ghost with sequence number `seq` was sent (it must be one
    /// of the window's last iteration), µs after the release.
    pub fn sent_at(&self, seq: u64) -> u32 {
        let i = self.sends.partition_point(|&(first, _)| first <= seq);
        self.sends[i - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut h = HostCapture::new(vec![(0, 1, 1.0f64.to_bits())]);
        h.on_pop(0);
        assert!(!h.first_at_instant, "the release instant is not a cut");
        h.on_pop(5);
        assert!(h.first_at_instant);
        h.sends.push((100, h.at()));
        h.on_pop(5);
        assert!(!h.first_at_instant);
        h.on_pop(9);
        h.sends.push((104, h.at()));
        assert_eq!(h.cuts, vec![5, 9], "one cut per distinct instant");
        assert_eq!([100, 103, 104, 250].map(|seq| h.sent_at(seq)), [5, 5, 9, 9]);
        assert!(h.is_host(0) && !h.is_host(1));
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
}
