//! Figure drivers: one function per paper artifact.
//!
//! * [`fig1`] — timelines of a 4-core Wave2D run disturbed by a 1-core
//!   background task (paper Fig. 1);
//! * [`eval_matrix`] + [`fig2_table`] — timing-penalty-vs-cores series for
//!   an application (paper Fig. 2 a–c);
//! * [`fig3`] — dynamic interference: a job on core 1 departs, another
//!   lands on core 3, and the balancer restores balance each time (paper
//!   Fig. 3 a–e);
//! * [`fig4_table`] — power and normalized energy overhead from the same
//!   run matrix (paper Fig. 4 a–c).

use crate::experiment::{run_scenario, CellSpec, EvalPoint};
use crate::pipeline::PipelineStats;
use crate::report::{pct, watts, Table};
use crate::scenario::{BgPattern, Scenario};
use crate::stream_agg::StreamSummary;
use cloudlb_sim::stats::mean;
use cloudlb_trace::timeline::{render_ascii, TimelineOptions};
use cloudlb_trace::svg::{render_svg, SvgOptions};

/// Output of the Fig. 1 reproduction.
#[derive(Debug)]
pub struct Fig1Output {
    /// Mean iteration time before the background task arrives (s).
    pub quiet_iter_s: f64,
    /// Mean iteration time while the background task runs (s).
    pub interfered_iter_s: f64,
    /// ASCII timeline (two-iteration window around the arrival).
    pub timeline: String,
    /// SVG timeline of the full run.
    pub svg: String,
}

/// Reproduce Fig. 1: Wave2D on 4 cores, no LB, a 1-core job arriving on
/// core 3 partway through. The interfered iterations stretch because the
/// whole tightly coupled application waits for the shared core.
pub fn fig1(iterations: usize) -> Fig1Output {
    let scenario = Scenario {
        bg: BgPattern::SingleCore { core: 3, start_frac: 0.4 },
        iterations,
        trace: true,
        ..Scenario::paper("wave2d", 4, "nolb")
    };
    let result = run_scenario(&scenario);
    let trace = result.trace.as_ref().expect("tracing enabled");

    // Locate the arrival from the trace marker.
    let arrival = trace
        .markers()
        .iter()
        .find(|(_, l)| l.contains("starts"))
        .map(|(t, _)| *t)
        .expect("bg start marker");

    // Completion instants from the per-iteration durations.
    let mut t = 0u64;
    let mut quiet = Vec::new();
    let mut interfered = Vec::new();
    for d in &result.iter_times {
        let end = t + d.as_us();
        if t >= arrival {
            interfered.push(d.as_secs_f64());
        } else if end <= arrival {
            quiet.push(d.as_secs_f64());
        } // iterations straddling the arrival count for neither
        t = end;
    }

    // Two-iteration window: one quiet, one interfered.
    let win_lo = arrival.saturating_sub((mean(&quiet) * 1e6) as u64);
    let win_hi = arrival + (mean(&interfered).max(mean(&quiet)) * 1e6) as u64;
    let timeline = render_ascii(
        trace,
        &TimelineOptions { width: 100, start: Some(win_lo), end: Some(win_hi), show_markers: true },
    );
    let svg = render_svg(
        trace,
        &SvgOptions { title: "Fig 1: background task on core 3 disturbs load balance".into(), ..Default::default() },
    );
    Fig1Output {
        quiet_iter_s: mean(&quiet),
        interfered_iter_s: mean(&interfered),
        timeline,
        svg,
    }
}

/// Run the Fig. 2 / Fig. 4 matrix for one application over the given core
/// counts. All `(cores, arm, seed)` runs of the matrix are flattened into
/// one fan-out over [`crate::pipeline::default_jobs`] workers, so a wide
/// matrix saturates the pool rather than parallelizing cell by cell.
pub fn eval_matrix(
    app: &str,
    cores: &[usize],
    iterations: usize,
    seeds: &[u64],
) -> Vec<EvalPoint> {
    let cells = matrix_cells(app, cores, iterations);
    crate::experiment::evaluate_cells(&cells, seeds, crate::pipeline::default_jobs())
}

/// One paper cell (`cloudrefine` balanced arm) per core count.
fn matrix_cells(app: &str, cores: &[usize], iterations: usize) -> Vec<CellSpec> {
    cores.iter().map(|&c| CellSpec::paper(app, c, iterations, "cloudrefine")).collect()
}

/// Online aggregate over a matrix's [`EvalPoint`]s: one
/// [`StreamSummary`] per headline metric, fed per cell as the pipeline
/// emits points, so a million-cell study summarizes at flat memory.
#[derive(Debug, Clone, Default)]
pub struct MatrixSummary {
    /// App timing penalty without LB (fraction).
    pub penalty_nolb: StreamSummary,
    /// App timing penalty with LB (fraction).
    pub penalty_lb: StreamSummary,
    /// Energy overhead without LB (fraction).
    pub energy_overhead_nolb: StreamSummary,
    /// Energy overhead with LB (fraction).
    pub energy_overhead_lb: StreamSummary,
    /// Mean migrations per LB run.
    pub migrations: StreamSummary,
    /// Simulator events across every run of every cell.
    pub sim_events: u64,
    /// Cells folded in.
    pub cells: u64,
}

impl MatrixSummary {
    /// Fold one cell's point into the summary.
    pub fn push(&mut self, p: &EvalPoint) {
        self.penalty_nolb.push(p.penalty_nolb);
        self.penalty_lb.push(p.penalty_lb);
        self.energy_overhead_nolb.push(p.energy_overhead_nolb);
        self.energy_overhead_lb.push(p.energy_overhead_lb);
        self.migrations.push(p.migrations);
        self.sim_events += p.sim_events;
        self.cells += 1;
    }

    /// Multi-line rendering, one metric per line.
    pub fn render(&self) -> String {
        format!(
            "cells={} sim_events={}\n\
             penalty_nolb       {}\n\
             penalty_lb         {}\n\
             energy_oh_nolb     {}\n\
             energy_oh_lb       {}\n\
             migrations         {}\n",
            self.cells,
            self.sim_events,
            self.penalty_nolb.render(),
            self.penalty_lb.render(),
            self.energy_overhead_nolb.render(),
            self.energy_overhead_lb.render(),
            self.migrations.render(),
        )
    }
}

/// Memory-bounded variant of [`eval_matrix`]: stream the matrix
/// through the pipeline, fold every emitted [`EvalPoint`] into a
/// [`MatrixSummary`], and pass each point to `consume` (e.g. to print a
/// table row incrementally) instead of materializing the matrix. Points
/// arrive in core-count order and are bit-identical to
/// [`eval_matrix`]'s for any worker count.
pub fn eval_matrix_stream<C>(
    app: &str,
    cores: &[usize],
    iterations: usize,
    seeds: &[u64],
    jobs: usize,
    mut consume: C,
) -> (MatrixSummary, PipelineStats)
where
    C: FnMut(&EvalPoint),
{
    let cells = matrix_cells(app, cores, iterations);
    let mut summary = MatrixSummary::default();
    let stats =
        crate::experiment::evaluate_cells_stream(&cells, seeds, jobs, |_ci, point| {
            summary.push(&point);
            consume(&point);
        });
    (summary, stats)
}

/// Fig. 2 table: timing penalties (%) for the app and the background job.
pub fn fig2_table(points: &[EvalPoint]) -> Table {
    let mut t = Table::new(&["cores", "noLB %", "LB %", "BG noLB %", "BG LB %"]);
    for p in points {
        fig2_row(&mut t, p);
    }
    t
}

/// Append one cell's Fig. 2 row — lets a streaming consumer build the
/// table incrementally (start from `fig2_table(&[])`).
pub fn fig2_row(t: &mut Table, p: &EvalPoint) {
    t.row(vec![
        p.cores.to_string(),
        pct(p.penalty_nolb),
        pct(p.penalty_lb),
        pct(p.bg_penalty_nolb),
        pct(p.bg_penalty_lb),
    ]);
}

/// Fig. 4 table: average power per node (W) and energy overheads (%).
pub fn fig4_table(points: &[EvalPoint]) -> Table {
    let mut t = Table::new(&[
        "cores",
        "noLB power W",
        "LB power W",
        "noLB energy OH %",
        "LB energy OH %",
    ]);
    for p in points {
        fig4_row(&mut t, p);
    }
    t
}

/// Append one cell's Fig. 4 row — streaming twin of [`fig2_row`].
pub fn fig4_row(t: &mut Table, p: &EvalPoint) {
    t.row(vec![
        p.cores.to_string(),
        watts(p.power_nolb_w),
        watts(p.power_lb_w),
        pct(p.energy_overhead_nolb),
        pct(p.energy_overhead_lb),
    ]);
}

/// Output of the Fig. 3 reproduction.
#[derive(Debug)]
pub struct Fig3Output {
    /// `(phase label, mean iteration seconds)` for the five phases of the
    /// paper's Fig. 3 (a)–(e).
    pub phases: Vec<(String, f64)>,
    /// ASCII timeline of the whole run.
    pub timeline: String,
    /// SVG timeline of the whole run.
    pub svg: String,
    /// Total migrations (should be > 0 twice over: shed and re-spread).
    pub migrations: usize,
}

/// Reproduce Fig. 3: Wave2D, 4 cores, CloudRefineLB, interference that
/// moves from core 1 to core 3. Phases:
/// (a) core 1 overloaded, (b) rebalanced, (c) interference gone,
/// (d) core 3 overloaded, (e) rebalanced again.
pub fn fig3(iterations: usize, lb_period: usize) -> Fig3Output {
    let scenario = Scenario {
        bg: BgPattern::Phased,
        iterations,
        lb_period,
        trace: true,
        ..Scenario::paper("wave2d", 4, "cloudrefine")
    };
    let result = run_scenario(&scenario);
    let trace = result.trace.as_ref().expect("tracing enabled");

    let marker_time = |pred: &dyn Fn(&str) -> bool, after: u64| {
        trace
            .markers()
            .iter()
            .filter(|(t, l)| *t >= after && pred(l))
            .map(|(t, _)| *t)
            .min()
    };
    let bg1_on = marker_time(&|l| l.contains("job 0 starts"), 0).expect("bg1 start");
    let bg1_off = marker_time(&|l| l.contains("job 0 leaves"), 0).expect("bg1 stop");
    let bg2_on = marker_time(&|l| l.contains("job 1 starts"), 0).expect("bg2 start");

    // Per-iteration durations of the iterations overlapping a window.
    let window_iters = |lo: u64, hi: u64| {
        let mut t = 0u64;
        let mut xs = Vec::new();
        for d in &result.iter_times {
            let end = t + d.as_us();
            if end > lo && t < hi {
                xs.push(d.as_secs_f64());
            }
            t = end;
        }
        xs
    };
    let peak = |lo: u64, hi: u64| window_iters(lo, hi).into_iter().fold(0.0f64, f64::max);
    let floor = |lo: u64, hi: u64| {
        window_iters(lo, hi).into_iter().fold(f64::INFINITY, f64::min).min(f64::MAX)
    };

    // The balancer fires at the first AtSync boundary inside each
    // disturbance, so the *peak* iteration in a window shows the
    // overloaded timeline (Fig. 3 a/d) and the *floor* shows the
    // rebalanced one (Fig. 3 b/e).
    let end = result.end_time.as_us();
    let phases = vec![
        ("(a) core 1 overloaded".to_string(), peak(bg1_on, bg1_off)),
        ("(b) load balanced".to_string(), floor(bg1_on, bg1_off)),
        ("(c) no bg task".to_string(), mean(&window_iters(bg1_off, bg2_on))),
        ("(d) core 3 overloaded".to_string(), peak(bg2_on, end)),
        ("(e) load balanced".to_string(), floor(bg2_on, end)),
    ];

    Fig3Output {
        phases,
        timeline: render_ascii(trace, &TimelineOptions { width: 110, ..Default::default() }),
        svg: render_svg(
            trace,
            &SvgOptions {
                title: "Fig 3: load balancer tracks interference from core 1 to core 3".into(),
                ..Default::default()
            },
        ),
        migrations: result.migrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_interfered_iterations_are_longer() {
        let out = fig1(20);
        assert!(out.quiet_iter_s > 0.0);
        assert!(
            out.interfered_iter_s > 1.5 * out.quiet_iter_s,
            "quiet {:.4}s vs interfered {:.4}s",
            out.quiet_iter_s,
            out.interfered_iter_s
        );
        assert!(out.timeline.contains("pe   3"));
        assert!(out.svg.starts_with("<svg"));
    }

    #[test]
    fn fig3_balancer_restores_balance_twice() {
        let out = fig3(60, 6);
        let p: Vec<f64> = out.phases.iter().map(|(_, v)| *v).collect();
        assert!(out.migrations > 0, "no migrations happened");
        // Overloaded phases are slower than their rebalanced successors.
        assert!(p[0] > 1.1 * p[1], "(a) {:.4} should exceed (b) {:.4}", p[0], p[1]);
        assert!(p[3] > 1.1 * p[4], "(d) {:.4} should exceed (e) {:.4}", p[3], p[4]);
        // The quiet middle phase is at least as fast as the balanced ones.
        assert!(p[2] <= p[0], "(c) {:.4} vs (a) {:.4}", p[2], p[0]);
    }

    #[test]
    fn fig2_and_fig4_tables_render() {
        let points = eval_matrix("jacobi2d", &[4], 30, &[1]);
        let t2 = fig2_table(&points);
        let t4 = fig4_table(&points);
        assert_eq!(t2.len(), 1);
        assert!(t2.markdown().contains("noLB %"));
        assert!(t4.markdown().contains("LB power W"));
    }
}
