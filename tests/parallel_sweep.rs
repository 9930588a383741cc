//! Determinism of the parallel sweep engine: fanning runs across worker
//! threads must be invisible in the results. Every `EvalPoint` and every
//! raw `RunResult` produced with `--jobs 4` has to be bit-identical to
//! the serial (`jobs = 1`) evaluation — same floats, same event counts,
//! same migrations — because results are reduced in submission order
//! regardless of which worker finishes first.

use cloudlb_core::{evaluate_cells, pipeline_map, run_scenario, CellSpec, PipelineConfig, Scenario};

/// A reduced paper matrix: two apps × two core counts × three CI seeds.
fn matrix() -> Vec<CellSpec> {
    ["jacobi2d", "wave2d"]
        .iter()
        .flat_map(|app| [4usize, 8].iter().map(move |&c| CellSpec::paper(app, c, 24, "cloudrefine")))
        .collect()
}

const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn parallel_eval_points_are_bit_identical_to_serial() {
    let cells = matrix();
    let serial = evaluate_cells(&cells, &SEEDS, 1);
    for jobs in [2, 4] {
        let parallel = evaluate_cells(&cells, &SEEDS, jobs);
        assert_eq!(
            parallel, serial,
            "EvalPoints diverged between jobs={jobs} and serial"
        );
    }
    // Sanity: the comparison covered real data, not empty vectors.
    assert_eq!(serial.len(), cells.len());
    assert!(serial.iter().all(|p| p.sim_events > 0 && p.peak_queue_depth > 0));
}

#[test]
fn parallel_run_results_are_bit_identical_to_serial() {
    // Raw per-run results (before any reduction): every field of
    // `RunResult` — iteration times, migrations, power, event counts —
    // must match the serial runs exactly, in submission order.
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

    let serial: Vec<_> = scenarios.iter().map(run_scenario).collect();
    let (parallel, _) =
        pipeline_map(&PipelineConfig::new(4), scenarios.clone(), |s| run_scenario(&s));
    assert_eq!(parallel.len(), serial.len());
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(p, s, "RunResult {i} diverged between jobs=4 and serial");
    }
}
