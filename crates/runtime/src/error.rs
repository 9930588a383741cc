//! Typed runtime errors.
//!
//! The executors used to treat every channel hiccup as a bug and panic
//! (`.expect("workers alive")`). In a fault-tolerant runtime those paths
//! are *expected*: a PE can die mid-run, a worker thread can panic, a
//! barrier can hang. This module gives every such condition a typed,
//! Display-able error so callers can distinguish "the run failed
//! gracefully after exhausting recovery" from "the runtime has a bug"
//! (which still panics via assertions).

use std::fmt;

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A channel endpoint disconnected outside the shutdown protocol.
    ChannelClosed {
        /// Which link broke (e.g. `"coordinator control queue"`).
        endpoint: String,
    },
    /// A worker thread panicked and recovery was impossible (checkpoints
    /// disabled or the app's chares do not PUP).
    WorkerPanicked {
        /// The worker that died.
        pe: usize,
        /// Panic payload rendered to text.
        detail: String,
    },
    /// A worker kept dying: the bounded-retry supervisor gave up.
    TooManyRestarts {
        /// The worker whose death exhausted the budget.
        pe: usize,
        /// Restarts attempted before giving up.
        attempts: usize,
    },
    /// The AtSync watchdog fired: no progress message arrived in time,
    /// so a hung or silently-dead PE is blocking the barrier.
    WatchdogTimeout {
        /// Protocol phase that hung (e.g. `"atsync barrier"`).
        phase: String,
        /// How long the coordinator waited, in milliseconds.
        waited_ms: u64,
    },
    /// A failure was injected but every PE is now dead.
    AllPesDead,
    /// A PE failure could not be recovered: checkpointing is disabled, no
    /// snapshot exists yet, or a chare's owner and buddy copies were both
    /// lost in the same failure.
    Unrecoverable {
        /// What made recovery impossible.
        reason: String,
    },
    /// A migration plan entry disagrees with the live mapping: the plan
    /// was built from a stale snapshot (e.g. the chare moved or its
    /// transfer was aborted since planning). The entry is skipped; the
    /// rest of the plan still commits.
    StalePlan {
        /// The chare whose plan entry went stale.
        task: u64,
        /// Where the plan believed the chare lived.
        expected: usize,
        /// Where the mapping actually has it.
        actual: usize,
    },
    /// The simulated event queue ran dry before the run could end: no
    /// pending event can complete the application or the outstanding
    /// finite background tasks.
    Deadlock {
        /// Whether the application itself had finished.
        app_done: bool,
        /// Finite background tasks still owed a completion.
        pending_bg: usize,
    },
    /// The run configuration is unusable (e.g. zero PEs).
    InvalidConfig(String),
    /// An AtSync/LB protocol invariant was violated by a message. On the
    /// worker side these surface as panics (and are caught by the
    /// supervisor); on the coordinator side they end the run gracefully.
    Protocol(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ChannelClosed { endpoint } => {
                write!(f, "channel closed unexpectedly: {endpoint}")
            }
            RuntimeError::WorkerPanicked { pe, detail } => {
                write!(f, "worker {pe} panicked and could not be recovered: {detail}")
            }
            RuntimeError::TooManyRestarts { pe, attempts } => {
                write!(f, "worker {pe} still failing after {attempts} restarts; giving up")
            }
            RuntimeError::WatchdogTimeout { phase, waited_ms } => {
                write!(f, "watchdog: no progress in {phase} for {waited_ms} ms")
            }
            RuntimeError::AllPesDead => write!(f, "every PE has failed; nothing left to run on"),
            RuntimeError::Unrecoverable { reason } => {
                write!(f, "unrecoverable PE failure: {reason}")
            }
            RuntimeError::StalePlan { task, expected, actual } => {
                write!(f, "stale plan: task {task} is on {actual}, not {expected}")
            }
            RuntimeError::Deadlock { app_done, pending_bg } => write!(
                f,
                "deadlock: event queue empty with app {} and {pending_bg} bg tasks pending",
                if *app_done { "done" } else { "running" }
            ),
            RuntimeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RuntimeError::Protocol(msg) => write!(f, "runtime protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Render a `catch_unwind` payload as text for [`RuntimeError::WorkerPanicked`].
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
