#![warn(missing_docs)]
//! High-level experiment API for the `cloudlb` reproduction.
//!
//! This crate turns the runtime + simulator + strategies into the paper's
//! experiments:
//!
//! * [`scenario`] — declarative descriptions of the paper's runs (which
//!   app, how many cores, which interference pattern, which balancer);
//! * [`experiment`] — executes scenario triples (base / noLB / LB),
//!   averages seeds, and computes the paper's metrics: timing penalty,
//!   background-job penalty, average node power, normalized energy
//!   overhead;
//! * [`pipeline`] — the sweep engine: a shared-source pool that streams
//!   independent `(app, cores, arm, seed)` runs across
//!   `CLOUDLB_JOBS`/`--jobs` workers with bit-identical results;
//! * [`figures`] — one driver per paper artifact (Figures 1–4) returning
//!   structured series plus rendered tables/timelines;
//! * [`report`] — markdown/CSV table formatting shared by the harness.

pub mod experiment;
pub mod figures;
pub mod pipeline;
pub mod report;
pub mod scenario;
pub mod stream_agg;

pub use experiment::{
    evaluate, evaluate_cells, evaluate_cells_stream, impacts, run_scenario, try_run_scenario,
    CellSpec, EvalPoint, Impact, Layer,
};
pub use pipeline::{default_jobs, pipeline_map, pipeline_stream, PipelineConfig, PipelineStats};
pub use scenario::{BgPattern, FailSpec, Scenario};
pub use stream_agg::StreamSummary;
