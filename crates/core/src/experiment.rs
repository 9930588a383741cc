//! Experiment execution: base / noLB / LB triples, seed averaging, and
//! the paper's metrics.
//!
//! For each `(application, core count)` cell the paper reports:
//! * **timing penalty** of the parallel job, with and without LB, as a
//!   percentage of the interference-free run (Fig. 2);
//! * **timing penalty of the background job** under both regimes (Fig. 2);
//! * **average power** per node and **energy overhead** normalized to the
//!   interference-free run (Fig. 4).
//!
//! `evaluate` reproduces one cell by running the three scenarios over a
//! set of seeds and averaging — the paper averages three repeated runs.
//!
//! # Parallel sweeps
//!
//! Every `(app, cores, arm, seed)` run is an independent deterministic
//! simulation, so [`evaluate_cells`] streams whole matrices through the
//! [`crate::pipeline`] shared-source pool as sequence-numbered
//! packets. Results come back in submission order and are reduced with
//! exactly the serial code's fold, so averaged [`EvalPoint`]s are
//! bit-identical for any worker count (see `tests/parallel_sweep.rs`
//! and `tests/pipeline_stream.rs`); [`evaluate_cells_stream`] exposes
//! the same sweep with O(jobs + reorder window) peak live runs for
//! studies too large to materialize.

use crate::pipeline::{default_jobs, pipeline_stream, PipelineConfig, PipelineStats};
use crate::scenario::Scenario;
use cloudlb_runtime::{FastForward, RunResult, RuntimeError, SimExecutor};
use cloudlb_sim::stats::mean;
use serde::{Deserialize, Serialize};

/// Execute a single scenario. Panics if an injected failure turns out
/// unrecoverable; use [`try_run_scenario`] for failure experiments.
pub fn run_scenario(s: &Scenario) -> RunResult {
    try_run_scenario(s).unwrap_or_else(|e| panic!("scenario failed: {e}"))
}

/// Execute a single scenario, reporting unrecoverable injected failures
/// as typed errors.
pub fn try_run_scenario(s: &Scenario) -> Result<RunResult, RuntimeError> {
    s.validate().map_err(RuntimeError::InvalidConfig)?;
    let app = s.build_app();
    let bg = s.bg_script(app.as_ref());
    let fail = s.fail_script(app.as_ref());
    let mut exec = SimExecutor::new(app.as_ref(), s.run_config(), bg).with_failures(fail);
    if let Some(spec) = s.telemetry {
        exec = exec.with_telemetry(spec);
    }
    if let Some(spec) = &s.net_fault {
        exec = exec.with_net_faults(spec.clone());
    }
    let membership = s.membership_script(app.as_ref());
    if !membership.is_empty() {
        exec = exec.with_membership(membership);
    }
    exec.try_run()
}

/// A chaos layer a [`Scenario`] can switch on, priced by [`impacts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layer {
    /// Injected core/node failures (`Scenario::fail`).
    Failures,
    /// Corrupted `/proc/stat` counters (`Scenario::telemetry`).
    Telemetry,
    /// Flaky interconnect (`Scenario::net_fault`).
    Network,
    /// Elastic membership churn (`Scenario::membership`).
    Membership,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] =
        [Layer::Failures, Layer::Telemetry, Layer::Network, Layer::Membership];

    /// Whether this layer did anything in `run`, the result of `scn`.
    fn is_active(self, scn: &Scenario, run: &RunResult) -> bool {
        match self {
            Layer::Failures => run.failures > 0,
            Layer::Telemetry => scn.telemetry.is_some(),
            Layer::Network => scn.net_fault.is_some(),
            Layer::Membership => scn.membership.as_ref().is_some_and(|m| m.is_active()),
        }
    }

    /// The clean twin of `scn` for this layer: the same scenario with only
    /// this layer stripped, so the twin differs from the run in nothing
    /// else.
    pub fn clean_twin(self, scn: &Scenario) -> Scenario {
        let mut twin = scn.clone();
        match self {
            Layer::Failures => twin.fail.clear(),
            Layer::Telemetry => twin.telemetry = None,
            Layer::Network => twin.net_fault = None,
            Layer::Membership => twin.membership = None,
        }
        twin
    }
}

/// What one chaos layer cost a run: the paper's timing penalty (§V),
/// taken against the layer's [`Layer::clean_twin`] instead of the
/// interference-free base. The counters explaining where the time went
/// live on the [`RunResult`] itself (`failures`/`recoveries`/
/// `replayed_iters`/`recovery_time`, `telemetry` + `decisions`, `net`,
/// `elastic`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Impact {
    /// The layer priced.
    pub layer: Layer,
    /// `(T_run − T_twin) / T_twin`.
    pub penalty: f64,
    /// Membership only: `T_run / T_tracking − 1`, where `T_tracking` is
    /// the makespan of a *capacity-tracking* clean twin — the measured
    /// twin's work done at a throughput following the scenario's capacity
    /// trajectory ([`Scenario::capacity_tracking_makespan`]) — so losing
    /// half the machine for the tail of the run is priced as capacity, not
    /// blamed on the evacuation machinery.
    pub capacity_adjusted: Option<f64>,
}

impl Impact {
    /// Price `layer` of `run`, the result of `scn`, against `twin`, the
    /// result of `layer.clean_twin(scn)`.
    pub fn new(layer: Layer, scn: &Scenario, run: &RunResult, twin: &RunResult) -> Impact {
        let capacity_adjusted = (layer == Layer::Membership).then(|| {
            let t_clean = twin.app_time.as_secs_f64().max(f64::MIN_POSITIVE);
            let base_s = scn.base_time_estimate(scn.build_app().as_ref());
            let t_tracking =
                scn.capacity_tracking_makespan(t_clean, base_s).max(f64::MIN_POSITIVE);
            run.app_time.as_secs_f64() / t_tracking - 1.0
        });
        Impact { layer, penalty: run.timing_penalty_vs(twin), capacity_adjusted }
    }
}

/// Price every active layer of `run`, the result of `scn`, against its
/// clean twin, in [`Layer::ALL`] order. A twin that fails to run is a
/// typed error.
pub fn impacts(scn: &Scenario, run: &RunResult) -> Result<Vec<Impact>, RuntimeError> {
    Layer::ALL
        .into_iter()
        .filter(|layer| layer.is_active(scn, run))
        .map(|layer| {
            let twin = try_run_scenario(&layer.clean_twin(scn))?;
            Ok(Impact::new(layer, scn, run, &twin))
        })
        .collect()
}

/// Averaged metrics for one `(app, cores)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Application name.
    pub app: String,
    /// Core count.
    pub cores: usize,
    /// App timing penalty without LB (fraction, e.g. 1.0 = +100 %).
    pub penalty_nolb: f64,
    /// App timing penalty with the paper's balancer.
    pub penalty_lb: f64,
    /// Background-job timing penalty without LB.
    pub bg_penalty_nolb: f64,
    /// Background-job timing penalty with LB.
    pub bg_penalty_lb: f64,
    /// Average power per node, interference-free base run (W).
    pub power_base_w: f64,
    /// Average power per node without LB (W).
    pub power_nolb_w: f64,
    /// Average power per node with LB (W).
    pub power_lb_w: f64,
    /// Energy overhead vs base without LB (fraction).
    pub energy_overhead_nolb: f64,
    /// Energy overhead vs base with LB (fraction).
    pub energy_overhead_lb: f64,
    /// Mean migrations per LB run.
    pub migrations: f64,
    /// Mean LB steps per LB run.
    pub lb_steps: f64,
    /// Simulator events processed across every run of the cell (base,
    /// noLB and LB arms, all seeds) — the numerator of the bench
    /// harness's events/sec figure. Includes the pops the fast-forward
    /// engine skipped, so the figure is mode-independent.
    pub sim_events: u64,
    /// Largest pending-event backlog any run of the cell reached.
    pub peak_queue_depth: usize,
    /// Steady-state LB windows macro-stepped across every run of the cell.
    #[serde(default)]
    pub ff_windows: usize,
    /// Event pops those replayed windows skipped (subset of `sim_events`).
    #[serde(default)]
    pub events_skipped: u64,
}

impl EvalPoint {
    /// Fractional reduction of the app timing penalty achieved by LB
    /// (the paper's headline claims ≥ 0.5 here).
    pub fn penalty_reduction(&self) -> f64 {
        if self.penalty_nolb <= 0.0 {
            return 0.0;
        }
        1.0 - self.penalty_lb / self.penalty_nolb
    }

    /// Fractional reduction of the energy overhead achieved by LB.
    pub fn energy_reduction(&self) -> f64 {
        if self.energy_overhead_nolb <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_overhead_lb / self.energy_overhead_nolb
    }
}

/// One `(app, cores)` cell of the paper matrix, to be evaluated as a
/// base / noLB / LB triple per seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Application name (`jacobi2d`, `wave2d`, `mol3d`, `stencil3d`).
    pub app: String,
    /// Core count.
    pub cores: usize,
    /// Iterations per run (the figures use 100).
    pub iterations: usize,
    /// Registry name of the balanced arm's strategy.
    pub strategy: String,
    /// Fast-forward mode applied to every arm of the cell (default `auto`).
    #[serde(default)]
    pub fast_forward: FastForward,
}

impl CellSpec {
    /// The paper-matrix cell for `app` on `cores` cores.
    pub fn paper(app: &str, cores: usize, iterations: usize, strategy: &str) -> Self {
        CellSpec {
            app: app.to_string(),
            cores,
            iterations,
            strategy: strategy.to_string(),
            fast_forward: FastForward::default(),
        }
    }

    /// The `[base, noLB, LB]` scenario triple for one seed, in the arm
    /// order the reduction consumes them.
    fn arms(&self, seed: u64) -> [Scenario; 3] {
        let mut lb_scn = Scenario::paper(&self.app, self.cores, &self.strategy);
        lb_scn.iterations = self.iterations;
        lb_scn.seed = seed;
        lb_scn.fast_forward = self.fast_forward;
        let mut nolb_scn = Scenario { strategy: "nolb".into(), ..lb_scn.clone() };
        nolb_scn.seed = seed;
        let base_scn = lb_scn.base_of();
        [base_scn, nolb_scn, lb_scn]
    }
}

/// Evaluate many cells at once through the streaming pipeline (see
/// [`crate::pipeline`]): every `(cell, seed, arm)` run is a packet
/// fanned out over `jobs` pool workers, and finished runs are
/// folded per cell in seed order as they stream back. This is the
/// `collect_all` path — it materializes one [`EvalPoint`] per cell (but
/// never more than O(jobs + reorder window) `RunResult`s). Bit-identical
/// to running [`evaluate`] serially per cell, for any `jobs`.
pub fn evaluate_cells(cells: &[CellSpec], seeds: &[u64], jobs: usize) -> Vec<EvalPoint> {
    let mut out = Vec::with_capacity(cells.len());
    evaluate_cells_stream(cells, seeds, jobs, |_ci, point| out.push(point));
    out
}

/// The memory-bounded sweep driver: stream every `(cell, seed, arm)` run
/// through the pipeline and hand each finished cell's [`EvalPoint`] to
/// `consume(cell_index, point)` **in cell order**. Scenarios are
/// generated lazily and at most `jobs + reorder_window` runs are alive
/// at once, so arbitrarily large cell lists sweep at flat memory — the
/// consumer decides what to keep (e.g. fold into a
/// [`crate::stream_agg::StreamSummary`]).
///
/// The per-cell fold is exactly the serial code's fold (same push order,
/// same [`mean`] calls), so the emitted points are bit-identical to the
/// serial path for any worker count.
pub fn evaluate_cells_stream<C>(
    cells: &[CellSpec],
    seeds: &[u64],
    jobs: usize,
    mut consume: C,
) -> PipelineStats
where
    C: FnMut(usize, EvalPoint),
{
    assert!(!seeds.is_empty());
    let cfg = PipelineConfig::new(jobs);
    let runs = cells
        .iter()
        .flat_map(|cell| seeds.iter().flat_map(move |&seed| cell.arms(seed)));

    let per_cell = seeds.len() * 3;
    let mut reducer: Option<CellReducer> = None;
    let stats = pipeline_stream(&cfg, runs, |scn| run_scenario(&scn), |seq, result| {
        let ci = seq / per_cell;
        let r = reducer.get_or_insert_with(|| CellReducer::new(cells[ci].clone()));
        r.push(result);
        if seq % per_cell == per_cell - 1 {
            let done = reducer.take().expect("reducer exists at cell boundary");
            consume(ci, done.finalize());
        }
    });
    debug_assert!(reducer.is_none(), "every cell must close on a triple boundary");
    stats
}

/// Incremental per-cell fold: consumes one [`RunResult`] at a time in
/// `[base, noLB, LB] × seed` submission order and averages into an
/// [`EvalPoint`]. The push sequence and the final [`mean`] calls are
/// exactly the batch code's fold, so the averages are reproducible to
/// the last bit while only the current triple's runs stay alive.
struct CellReducer {
    cell: CellSpec,
    /// Arms of the in-progress triple ([base, noLB]; LB folds eagerly).
    base: Option<RunResult>,
    nolb: Option<RunResult>,
    penalty_nolb: Vec<f64>,
    penalty_lb: Vec<f64>,
    bg_nolb: Vec<f64>,
    bg_lb: Vec<f64>,
    power_base: Vec<f64>,
    power_nolb: Vec<f64>,
    power_lb: Vec<f64>,
    energy_nolb: Vec<f64>,
    energy_lb: Vec<f64>,
    migrations: Vec<f64>,
    lb_steps: Vec<f64>,
    sim_events: u64,
    peak_queue_depth: usize,
    ff_windows: usize,
    events_skipped: u64,
}

impl CellReducer {
    fn new(cell: CellSpec) -> Self {
        CellReducer {
            cell,
            base: None,
            nolb: None,
            penalty_nolb: Vec::new(),
            penalty_lb: Vec::new(),
            bg_nolb: Vec::new(),
            bg_lb: Vec::new(),
            power_base: Vec::new(),
            power_nolb: Vec::new(),
            power_lb: Vec::new(),
            energy_nolb: Vec::new(),
            energy_lb: Vec::new(),
            migrations: Vec::new(),
            lb_steps: Vec::new(),
            sim_events: 0,
            peak_queue_depth: 0,
            ff_windows: 0,
            events_skipped: 0,
        }
    }

    /// Feed the next run of this cell (submission order: base, noLB, LB
    /// per seed). The third arm completes a triple and folds it.
    fn push(&mut self, run: RunResult) {
        match (&self.base, &self.nolb) {
            (None, _) => self.base = Some(run),
            (Some(_), None) => self.nolb = Some(run),
            (Some(_), Some(_)) => {
                let base = self.base.take().expect("base arm present");
                let nolb = self.nolb.take().expect("noLB arm present");
                let lb = run;
                self.penalty_nolb.push(nolb.timing_penalty_vs(&base));
                self.penalty_lb.push(lb.timing_penalty_vs(&base));
                if let Some(p) = nolb.bg_penalties.get(&0) {
                    self.bg_nolb.push(*p);
                }
                if let Some(p) = lb.bg_penalties.get(&0) {
                    self.bg_lb.push(*p);
                }
                self.power_base.push(base.energy.avg_power_per_node_w);
                self.power_nolb.push(nolb.energy.avg_power_per_node_w);
                self.power_lb.push(lb.energy.avg_power_per_node_w);
                self.energy_nolb.push(nolb.energy_overhead_vs(&base));
                self.energy_lb.push(lb.energy_overhead_vs(&base));
                self.migrations.push(lb.migrations as f64);
                self.lb_steps.push(lb.lb_steps as f64);
                for r in [&base, &nolb, &lb] {
                    self.sim_events += r.sim_events;
                    self.peak_queue_depth = self.peak_queue_depth.max(r.peak_queue_depth);
                    self.ff_windows += r.ff_windows;
                    self.events_skipped += r.events_skipped;
                }
            }
        }
    }

    fn finalize(self) -> EvalPoint {
        assert!(
            self.base.is_none() && self.nolb.is_none(),
            "cell finalized mid-triple"
        );
        EvalPoint {
            app: self.cell.app.clone(),
            cores: self.cell.cores,
            penalty_nolb: mean(&self.penalty_nolb),
            penalty_lb: mean(&self.penalty_lb),
            bg_penalty_nolb: mean(&self.bg_nolb),
            bg_penalty_lb: mean(&self.bg_lb),
            power_base_w: mean(&self.power_base),
            power_nolb_w: mean(&self.power_nolb),
            power_lb_w: mean(&self.power_lb),
            energy_overhead_nolb: mean(&self.energy_nolb),
            energy_overhead_lb: mean(&self.energy_lb),
            migrations: mean(&self.migrations),
            lb_steps: mean(&self.lb_steps),
            sim_events: self.sim_events,
            peak_queue_depth: self.peak_queue_depth,
            ff_windows: self.ff_windows,
            events_skipped: self.events_skipped,
        }
    }
}

/// Run the base / noLB / LB triple for one cell, averaged over `seeds`.
///
/// `lb_strategy` is the balanced arm's registry name (the paper's scheme
/// is `cloudrefine`; ablations swap in others). `iterations` scales run
/// length (the figures use 100). Runs are spread across
/// [`crate::pipeline::default_jobs`] workers (`CLOUDLB_JOBS` / `--jobs`);
/// the result is bit-identical for any worker count.
pub fn evaluate(
    app: &str,
    cores: usize,
    iterations: usize,
    lb_strategy: &str,
    seeds: &[u64],
) -> EvalPoint {
    let cell = CellSpec::paper(app, cores, iterations, lb_strategy);
    evaluate_cells(std::slice::from_ref(&cell), seeds, default_jobs())
        .pop()
        .expect("one cell in, one point out")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small but end-to-end cell: Jacobi2D on 4 cores over the paper's
    /// 100-iteration horizon (shorter runs leave the pre-first-LB window
    /// dominating the average). This is the paper's whole story in one
    /// assertion set, so it is worth its couple of seconds.
    #[test]
    fn jacobi_4core_cell_reproduces_paper_shape() {
        let p = evaluate("jacobi2d", 4, 100, "cloudrefine", &[1]);
        // Interference with fair sharing roughly doubles the noLB run.
        assert!(p.penalty_nolb > 0.6, "noLB penalty {:.2}", p.penalty_nolb);
        // 4 cores is the hardest cell (the capacity bound is 4/3, and
        // Algorithm 1 stops refining once interfered cores stop looking
        // heavy): the paper's own Fig. 2 is worst here too. Require a 40 %
        // cut at P = 4; the ≥ 50 % headline is asserted at P ≥ 8 by the
        // claim_headline integration test.
        assert!(
            p.penalty_reduction() >= 0.4,
            "reduction {:.2} (noLB {:.2} → LB {:.2})",
            p.penalty_reduction(),
            p.penalty_nolb,
            p.penalty_lb
        );
        // LB runs hotter but uses less energy (Fig. 4 shape).
        assert!(p.power_lb_w > p.power_nolb_w, "{:.1} vs {:.1}", p.power_lb_w, p.power_nolb_w);
        assert!(p.energy_overhead_lb < p.energy_overhead_nolb);
        assert!(p.migrations > 0.0);
    }

    #[test]
    fn cells_are_identical_with_and_without_fast_forward() {
        let mut on = CellSpec::paper("jacobi2d", 4, 40, "cloudrefine");
        on.fast_forward = FastForward::On;
        let mut off = on.clone();
        off.fast_forward = FastForward::Off;
        let mut points = evaluate_cells(&[on, off], &[1, 2], 2);
        let p_off = points.pop().unwrap();
        let p_on = points.pop().unwrap();
        assert!(p_on.ff_windows > 0, "the base arm's clean windows must replay");
        assert!(p_on.events_skipped > 0);
        assert_eq!(p_off.ff_windows, 0);
        let scrub = |mut p: EvalPoint| {
            p.ff_windows = 0;
            p.events_skipped = 0;
            p
        };
        assert_eq!(scrub(p_on), scrub(p_off), "macro-stepping must not move any metric");
    }

    #[test]
    fn invalid_scenarios_are_typed_errors_not_panics() {
        // Oracle-discovered panics converted to RuntimeError::InvalidConfig:
        // each of these used to unwind somewhere inside the runtime stack.
        let ok = Scenario::paper("jacobi2d", 8, "cloudrefine");
        let bad = [
            Scenario { app: "linpack".into(), ..ok.clone() },
            Scenario { strategy: "wat".into(), ..ok.clone() },
            Scenario { pe_speeds: vec![1.0; 3], ..ok.clone() },
            Scenario { cores: 6, ..ok.clone() },
        ];
        for s in bad {
            match try_run_scenario(&s) {
                Err(cloudlb_runtime::RuntimeError::InvalidConfig(_)) => {}
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn evaluate_is_deterministic_per_seed() {
        let a = evaluate("wave2d", 4, 20, "cloudrefine", &[7]);
        let b = evaluate("wave2d", 4, 20, "cloudrefine", &[7]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "!seeds.is_empty()")]
    fn evaluate_requires_seeds() {
        evaluate("jacobi2d", 4, 10, "cloudrefine", &[]);
    }

    /// `impacts` prices exactly the active layers, each against the twin
    /// that strips only that layer, and adjusts for capacity only under
    /// membership churn.
    #[test]
    fn impacts_price_each_active_layer_against_its_twin() {
        let cases = [
            (Scenario::failure_drill("wave2d", 4, "cloudrefine"), vec![Layer::Failures]),
            (Scenario::noisy_cloud("wave2d", 4, "robustcloudrefine"), vec![Layer::Telemetry]),
            (Scenario::flaky_cloud("jacobi2d", 8, "cloudrefine"), vec![Layer::Network]),
            (Scenario::spot_storm("jacobi2d", 8, "cloudrefine"), vec![Layer::Membership]),
            (Scenario::paper("jacobi2d", 4, "cloudrefine"), vec![]),
        ];
        for (mut scn, layers) in cases {
            scn.iterations = 30;
            let run = try_run_scenario(&scn).expect("preset runs");
            let got = impacts(&scn, &run).expect("twins run");
            let got_layers: Vec<Layer> = got.iter().map(|i| i.layer).collect();
            assert_eq!(got_layers, layers, "{}", scn.app);
            for imp in got {
                let twin = run_scenario(&imp.layer.clean_twin(&scn));
                assert_eq!(
                    imp.penalty.to_bits(),
                    run.timing_penalty_vs(&twin).to_bits(),
                    "{:?}",
                    imp.layer
                );
                match imp.capacity_adjusted {
                    Some(adj) => {
                        assert_eq!(imp.layer, Layer::Membership);
                        assert!(adj <= imp.penalty, "{adj} > {}", imp.penalty);
                    }
                    None => assert_ne!(imp.layer, Layer::Membership),
                }
            }
        }
    }

    #[test]
    fn noisy_cloud_scenario_runs_and_reports_impact() {
        let mut noisy = Scenario::noisy_cloud("wave2d", 4, "robustcloudrefine");
        noisy.iterations = 30;
        let n = run_scenario(&noisy);
        let q = n.telemetry;
        assert!(
            q.clamped_op + q.missing_samples + q.task_overrun + q.implausible_idle > 0,
            "corruption must trip the validators: {q:?}"
        );
        assert!(n.iter_times.len() == 30, "ground truth still completes");
    }

    #[test]
    fn flaky_cloud_scenario_runs_and_reports_impact() {
        let mut flaky = Scenario::flaky_cloud("jacobi2d", 8, "cloudrefine");
        flaky.iterations = 30;
        let f = run_scenario(&flaky);
        let c = run_scenario(&Layer::Network.clean_twin(&flaky));
        assert_eq!(f.iter_times.len(), 30, "chaos delays the app but never loses work");
        assert!(
            f.net.lost_copies + f.net.retransmits + f.net.duplicates_dropped > 0,
            "flaky_cloud must damage some traffic: {:?}",
            f.net
        );
        assert!(f.net.partition_us > 0);
        // Chare conservation under chaos: same multiset of cores hosting
        // every chare exactly once.
        assert_eq!(f.final_mapping.len(), c.final_mapping.len());
        assert!(f.final_mapping.iter().all(|&p| p < 8));
    }

    #[test]
    fn spot_storm_scenario_evacuates_and_reports_impact() {
        let mut storm = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        storm.iterations = 30;
        let e = run_scenario(&storm);
        let c = run_scenario(&Layer::Membership.clean_twin(&storm));
        assert_eq!(e.iter_times.len(), 30, "the storm is survivable");
        let el = e.elastic;
        assert!(el.notices >= 1, "{el:?}");
        assert!(el.nodes_revoked >= 1);
        assert_eq!(el.acquisitions, 1);
        assert_eq!(el.warmups, 1);
        assert!(el.evacuations_attempted >= 1);
        assert_eq!(el.chares_rolled_back, 0, "notice lead covers the drain");
        let cap = storm.capacity_avg_frac();
        assert!(cap > 0.0 && cap <= 1.5);
        let imp = Impact::new(Layer::Membership, &storm, &e, &c);
        assert!(imp.capacity_adjusted.expect("membership adjusts") <= imp.penalty);
        // The clean twin saw no churn at all.
        assert_eq!(c.elastic, cloudlb_runtime::ElasticStats::default());
    }

    #[test]
    fn autoscale_scenario_uses_acquired_nodes() {
        let mut scn = Scenario::autoscale("jacobi2d", 8, "cloudrefine");
        scn.iterations = 40;
        let r = run_scenario(&scn);
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.elastic.acquisitions, 2);
        assert_eq!(r.elastic.warmups, 2);
        // Some chare ends up on capacity that attached mid-run.
        assert!(
            r.final_mapping.iter().any(|&p| p >= 8),
            "acquired cores must take work: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn failure_drill_survives_and_reports_impact() {
        let mut drill = Scenario::failure_drill("wave2d", 4, "cloudrefine");
        drill.iterations = 30;
        let failed = try_run_scenario(&drill).expect("drill must be recoverable");
        let base = run_scenario(&Layer::Failures.clean_twin(&drill));
        assert_eq!(failed.iter_times.len(), 30);
        assert_eq!(failed.failures, 1);
        assert_eq!(failed.recoveries, 1);
        assert!(failed.replayed_iters > 0);
        assert!(failed.recovery_time.as_secs_f64() > 0.0);
        assert!(failed.timing_penalty_vs(&base) > 0.0, "losing a core must cost time");
        // The dead core hosts nothing at the end.
        assert!(failed.final_mapping.iter().all(|&p| p != 3));
    }
}
