//! Differential oracle for lazy core settlement.
//!
//! With tracing on, the cluster advances every core at every event (the
//! Projections timeline needs every segment); with it off, only the cores
//! that complete something, are mutated, or host a background task are
//! advanced. Both runs must produce the same `RunResult` once the trace
//! itself is dropped — across every chaos preset, four apps and the CI
//! seeds, with fast-forward off in both arms so every window runs live.

use cloudlb_core::{pipeline_map, try_run_scenario, PipelineConfig, Scenario};
use cloudlb_runtime::{FastForward, RunResult, RuntimeError};

const SEEDS: [u64; 3] = [1, 2, 3];
const ITERS: usize = 30;

fn matrix() -> Vec<(String, Scenario)> {
    type Preset = (&'static str, fn(&str, usize, &str) -> Scenario, &'static str);
    let presets: [Preset; 6] = [
        ("paper", Scenario::paper, "cloudrefine"),
        ("flaky_cloud", Scenario::flaky_cloud, "cloudrefine"),
        ("spot_storm", Scenario::spot_storm, "cloudrefine"),
        ("autoscale", Scenario::autoscale, "cloudrefine"),
        ("noisy_cloud", Scenario::noisy_cloud, "robustcloudrefine"),
        ("failure_drill", Scenario::failure_drill, "cloudrefine"),
    ];
    let mut out = Vec::new();
    for (name, make, arm) in presets {
        for app in Scenario::KNOWN_APPS {
            for seed in SEEDS {
                let mut scn = make(app, 16, arm);
                scn.iterations = ITERS;
                scn.seed = seed;
                scn.fast_forward = FastForward::Off;
                out.push((format!("{name}/{app}/seed{seed}"), scn));
            }
        }
    }
    out
}

fn run(mut scn: Scenario, trace: bool) -> Result<RunResult, RuntimeError> {
    scn.trace = trace;
    try_run_scenario(&scn).map(|r| RunResult { trace: None, ..r })
}

#[test]
fn lazy_settlement_matches_eager_advancement() {
    let matrix = matrix();
    let runs: Vec<(Scenario, bool)> = matrix
        .iter()
        .flat_map(|(_, scn)| [(scn.clone(), true), (scn.clone(), false)])
        .collect();
    let cfg = PipelineConfig::new(cloudlb_core::default_jobs());
    let mut results = pipeline_map(&cfg, runs, |(scn, trace)| run(scn, trace)).0.into_iter();
    for (label, _) in &matrix {
        let (eager, lazy) = (results.next().unwrap(), results.next().unwrap());
        assert_eq!(lazy, eager, "lazy settlement diverged from eager advancement for {label}");
    }
}
