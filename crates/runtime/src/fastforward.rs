//! Steady-state fast-forward: window templates for analytic macro-stepping.
//!
//! Between two LB events a clean run is *periodic*: every chare executes
//! exactly `period` iterations, the event pattern repeats window after
//! window, and — because the simulator does all of its accounting in
//! integer microseconds with no background sharing — the whole window is
//! **translation-invariant**: shifting the window start by Δ shifts every
//! event in it by exactly Δ and changes no duration, counter delta, or
//! tie-break. The executor exploits this by *capturing* one live window
//! into a [`WindowTemplate`] (relative event times, per-core counter
//! deltas, message flows) and *replaying* it over later windows in O(n ×
//! period) instead of simulating every message/wake/completion event.
//!
//! A window is only captured/replayed when it is provably steady-state:
//!
//! * no background job resident anywhere: a core sharing with a
//!   background task rounds its GPS accounting once per segment, so its
//!   counter deltas depend on where its time is cut and are not
//!   translation-invariant ([`cloudlb_sim::Cluster::any_bg`]; a bg-free
//!   core accrues exactly the wall time of any segment);
//! * nothing in the event queue except current-epoch ghost messages for
//!   the boundary iteration (pending interference, failure, or stale
//!   events decline the window);
//! * the network is deterministic over the window (no stochastic chaos
//!   knobs; no partition window opening before the window ends);
//! * task costs are noise-free and match the template bit-for-bit;
//! * the chare→core mapping and alive mask match the template.
//!
//! Anything else falls back to the event-by-event path for that window, so
//! fast-forwarded runs are bit-identical to `fast_forward: off` in every
//! `RunResult` field except the two observability counters
//! (`ff_windows`, `events_skipped`), which
//! [`crate::result::RunResult::scrub_ff`] zeroes for differential tests.
//! The equivalence argument is spelled out in `DESIGN.md`.
//!
//! The capture/replay driver lives in [`crate::sim_exec`]; this module
//! holds the plain-data template types.

use cloudlb_sim::core_sched::CoreStat;
use cloudlb_sim::{Dur, Time};

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
    /// Wall time observed (equals `cpu` in bg-free windows, but kept
    /// verbatim so `InstrumentMode::WallTime` replays exactly).
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
