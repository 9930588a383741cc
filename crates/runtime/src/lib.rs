#![warn(missing_docs)]
//! A migratable-objects runtime in the spirit of Charm++, built for
//! studying cloud interference.
//!
//! The paper's scheme lives inside the Charm++ adaptive runtime: an
//! application is over-decomposed into many medium-grained *chares*, the
//! runtime measures how long each chare's work takes, and a periodic load
//! balancing step migrates chares between cores. No Rust actor crate
//! supports object migration, so this crate rebuilds the needed runtime
//! from scratch:
//!
//! * [`program::IterativeApp`] — how an application describes its
//!   decomposition (chare count, neighbor topology, per-iteration task
//!   costs, real compute kernels);
//! * [`lbdb`] — the load-balancing database: per-task measurements plus
//!   the paper's Eq. 2 background-load estimation from `/proc/stat` idle
//!   counters;
//! * [`atsync`] — the AtSync-style barrier at which load balancing runs;
//! * [`sim_exec`] — a deterministic executor driving the application over
//!   the `cloudlb-sim` cluster (virtual time, interference, power) — all
//!   paper figures are produced with it. Its private modules split it by
//!   concern: the AtSync LB step, failures and rollback recovery, elastic
//!   membership and evacuation, and steady-state fast-forward;
//! * [`thread_exec`] — a real multi-threaded executor: chares are live
//!   objects executing real kernels on OS worker threads and migrating
//!   between them through channels, demonstrating that the runtime design
//!   is not simulation-only;
//! * [`checkpoint`] and [`error`] — fault tolerance: in-memory chare
//!   checkpoints taken at AtSync boundaries, global rollback/restore after
//!   a PE failure, and the typed errors returned by the supervised
//!   executor instead of panicking;
//! * [`netproto`] — the reliable migration protocol (sequence numbers,
//!   ACKs, capped-backoff retries, per-migration deadlines) that turns a
//!   flaky network's losses into deterministic commit/abort outcomes.
//!
//! Both executors share the instrumentation and the strategy interface, so
//! a strategy validated under the simulator runs unchanged on threads.
//!
//! [`ampi`] adds the paper's AMPI angle: MPI-shaped bulk-synchronous
//! programs adapt onto the runtime as rank-chares and become migratable
//! without modification.

pub mod ampi;
pub mod atsync;
pub mod checkpoint;
pub mod comm;
pub mod config;
pub mod error;
pub mod lbdb;
pub mod migration;
pub mod msg;
pub mod netproto;
pub mod program;
pub mod pup;
pub mod reduction;
pub mod result;
pub mod sim_exec;
pub mod thread_exec;

pub use checkpoint::{buddy_of, ChareCheckpoint, CheckpointStore};
pub use comm::CommCsr;
pub use config::{FastForward, InitialMap, InstrumentMode, LbConfig, RunConfig};
pub use error::RuntimeError;
pub use netproto::{MigrationProto, TransferOutcome};
pub use program::{ChareKernel, IterativeApp};
pub use result::{ElasticStats, RunResult};
pub use sim_exec::SimExecutor;
pub use thread_exec::{CheckpointPolicy, ThreadExecutor, ThreadFault, ThreadRunConfig};
