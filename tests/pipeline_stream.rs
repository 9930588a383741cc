//! End-to-end guarantees of the streaming sweep pipeline: the packet
//! engine behind `evaluate_cells` / `eval_matrix` must be invisible in
//! the results. Streaming consumers see exactly the collect-all points,
//! collect-all is bit-identical to serial for any worker count across
//! the CI seeds, and the in-flight window bounds peak live results no
//! matter how large the sweep grows.

use cloudlb::core_api::figures;
use cloudlb::core_api::{
    evaluate_cells, evaluate_cells_stream, pipeline_map, run_scenario, CellSpec,
    PipelineConfig, Scenario, StreamSummary,
};

/// A reduced paper matrix: two apps × two core counts.
fn matrix() -> Vec<CellSpec> {
    ["jacobi2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            [4usize, 8].iter().map(move |&c| CellSpec::paper(app, c, 24, "cloudrefine"))
        })
        .collect()
}

const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn streaming_consumer_sees_the_collect_all_points_in_order() {
    let cells = matrix();
    let collected = evaluate_cells(&cells, &SEEDS, 1);
    for jobs in [1, 2, 4] {
        let mut streamed = Vec::new();
        let stats = evaluate_cells_stream(&cells, &SEEDS, jobs, |ci, p| {
            assert_eq!(ci, streamed.len(), "cells must finish in submission order");
            streamed.push(p);
        });
        assert_eq!(streamed, collected, "jobs={jobs}");
        assert_eq!(stats.packets, cells.len() * SEEDS.len() * 3);
    }
}

#[test]
fn pipeline_map_is_bit_identical_to_par_map_on_real_runs() {
    let scenarios: Vec<Scenario> = SEEDS
        .iter()
        .flat_map(|&seed| {
            ["nolb", "cloudrefine"].iter().map(move |&strategy| Scenario {
                seed,
                iterations: 24,
                ..Scenario::paper("wave2d", 4, strategy)
            })
        })
        .collect();
    // The retired claim-per-index `par_map` returned exactly the serial
    // map, so the serial map is the reference it stood for.
    let baseline: Vec<_> = scenarios.iter().map(run_scenario).collect();
    for jobs in [2, 4] {
        let (piped, stats) =
            pipeline_map(&PipelineConfig::new(jobs), scenarios.clone(), |s| run_scenario(&s));
        assert_eq!(piped, baseline, "jobs={jobs}");
        assert!(stats.live_peak <= stats.window, "jobs={jobs}");
    }
}

#[test]
fn eval_matrix_stream_matches_the_batch_matrix() {
    let batch = figures::eval_matrix("jacobi2d", &[4, 8], 24, &SEEDS);
    let mut streamed = Vec::new();
    let (summary, stats) =
        figures::eval_matrix_stream("jacobi2d", &[4, 8], 24, &SEEDS, 4, |p| {
            streamed.push(p.clone());
        });
    assert_eq!(streamed, batch);
    assert!(stats.live_peak <= stats.window);

    // The online summary folds exactly the streamed points: its means
    // must be bit-identical to the batch means (same arrival-order sum).
    let mut nolb = StreamSummary::new();
    for p in &batch {
        nolb.push(p.penalty_nolb);
    }
    assert_eq!(summary.penalty_nolb.mean(), nolb.mean());
    assert_eq!(summary.cells, batch.len() as u64);
}

#[test]
fn live_results_stay_bounded_on_a_sweep_much_larger_than_the_window() {
    // A long synthetic sweep (no simulator, just packets): whatever the
    // input size, peak live results must respect jobs + reorder_window.
    let cfg = PipelineConfig { jobs: 4, reorder_window: 8 };
    let mut consumed = 0usize;
    let stats = cloudlb::core_api::pipeline_stream(
        &cfg,
        0..5_000u64,
        |x| x.wrapping_mul(3),
        |_, _| consumed += 1,
    );
    assert_eq!(consumed, 5_000);
    assert!(
        stats.live_peak <= cfg.window(),
        "live peak {} exceeded window {}",
        stats.live_peak,
        cfg.window()
    );
    assert!(stats.reorder_peak <= cfg.window());
}
