#![warn(missing_docs)]
//! # cloudlb — Cloud Friendly Load Balancing for HPC Applications
//!
//! A from-scratch Rust reproduction of *Sarood, Gupta, Kalé — "Cloud
//! Friendly Load Balancing for HPC Applications: Preliminary Work"*
//! (ICPP Workshops 2012): a Charm++-style migratable-objects runtime, a
//! deterministic cluster/interference/power simulator, the paper's
//! interference-aware refinement load balancer (its Algorithm 1), the
//! three evaluation applications, and a harness that regenerates every
//! figure in the paper.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name and hosts the runnable examples and integration tests.
//!
//! ```
//! use cloudlb::balance::{CloudRefineLb, LbStats, LbStrategy, TaskId, TaskInfo};
//!
//! // 8 equal tasks on 2 cores, with an interfering job on core 0.
//! let mut db = LbStats::new(2);
//! for i in 0..8 {
//!     db.tasks.push(TaskInfo { id: TaskId(i), pe: (i % 2) as usize, load: 0.25, bytes: 1 << 12 });
//! }
//! db.bg_load = vec![1.0, 0.0];
//!
//! let plan = CloudRefineLb::default().plan(&db);
//! assert!(plan.iter().all(|m| m.from == 0), "sheds only the interfered core");
//! ```

pub use cloudlb_apps as apps;
pub use cloudlb_balance as balance;
pub use cloudlb_core as core_api;
pub use cloudlb_runtime as runtime;
pub use cloudlb_sim as sim;
pub use cloudlb_trace as trace;

/// Convenient re-exports for the common experiment workflow.
pub mod prelude {
    pub use cloudlb_apps::{Jacobi2D, Mol3D, Stencil3D, Wave2D};
    pub use cloudlb_balance::{CloudRefineLb, GreedyLb, LbStrategy, NoLb, RefineLb};
    pub use cloudlb_core::experiment::{
        evaluate, impacts, run_scenario, try_run_scenario, EvalPoint, Impact, Layer,
    };
    pub use cloudlb_core::figures;
    pub use cloudlb_core::scenario::{BgPattern, FailSpec, Scenario};
    pub use cloudlb_runtime::{
        ElasticStats, IterativeApp, LbConfig, RunConfig, RunResult, RuntimeError, SimExecutor,
        ThreadExecutor, ThreadRunConfig,
    };
    pub use cloudlb_sim::failure::{FailureAction, FailureScript};
    pub use cloudlb_sim::interference::BgScript;
    pub use cloudlb_sim::{
        Dur, MembershipSpec, NetFaultSpec, NetStats, TelemetrySpec, Time,
    };
}
