//! The perf sweeps behind `BENCH_*.json`, shared by the `harness = false`
//! bench targets and the `cloudlb-bench` baseline-refresh binary.

use crate::baseline::{PipelineRecord, ScaleRecord, SweepRecord};
use crate::Settings;
use cloudlb_apps::grids::{near_square_factors, Block2D};
use cloudlb_apps::Jacobi2D;
use cloudlb_core::{
    evaluate_cells, evaluate_cells_stream, pipeline_map, pipeline_stream, run_scenario, CellSpec,
    PipelineConfig, Scenario,
};
use cloudlb_runtime::{FastForward, RunResult, SimExecutor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Run every scenario through the sweep engine on `jobs` workers,
/// results in submission order.
fn run_all(jobs: usize, scenarios: Vec<Scenario>) -> Vec<RunResult> {
    pipeline_map(&PipelineConfig::new(jobs), scenarios, |scn| run_scenario(&scn)).0
}

/// The paper-sweep throughput baseline (`BENCH_fast.json` /
/// `BENCH_sweep.json`): the full Fig. 2 / Fig. 4 matrix through the
/// parallel sweep engine, fast-forward pinned OFF so the record measures
/// the raw event-by-event engine, plus the informational flaky-network
/// probe. Prints progress; returns the record to serialize.
pub fn perf_sweep(s: &Settings) -> SweepRecord {
    let name = if s.fast { "fast" } else { "sweep" };
    println!(
        "(cores {:?}, {} iterations, seeds {:?}, jobs {})",
        s.cores, s.iterations, s.seeds, s.jobs
    );

    // Fast-forward is pinned OFF: this baseline measures the raw
    // event-by-event engine, and the macro-stepper has its own dedicated
    // baseline (`BENCH_fastforward.json`, see [`fastforward_sweep`]).
    let cells: Vec<CellSpec> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.cores.iter().map(move |&c| {
                let mut cell = CellSpec::paper(app, c, s.iterations, "cloudrefine");
                cell.fast_forward = FastForward::Off;
                cell
            })
        })
        .collect();
    let runs = cells.len() * s.seeds.len() * 3;

    let t0 = Instant::now();
    let points = evaluate_cells(&cells, &s.seeds, s.jobs);
    let wall_s = t0.elapsed().as_secs_f64();

    let sim_events: u64 = points.iter().map(|p| p.sim_events).sum();
    let peak_queue_depth = points.iter().map(|p| p.peak_queue_depth).max().unwrap_or(0);
    let events_per_sec = sim_events as f64 / wall_s;
    println!(
        "{} runs in {:.2}s — {:.0} events/s ({} events, peak queue depth {})",
        runs, wall_s, events_per_sec, sim_events, peak_queue_depth
    );

    // Informational flaky-network probe: the same apps under the
    // `flaky_cloud` degradation model, at the largest core count. Chaos
    // runs are legitimately slower (retries, partitions), so this arm is
    // recorded but never gated — the regression gate stays on the clean
    // sweep, proving the chaos layer is free when disabled.
    let probe_cores = s.cores.iter().copied().max().unwrap_or(8);
    let probe: Vec<Scenario> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.seeds.iter().map(move |&seed| {
                let mut scn = Scenario::flaky_cloud(app, probe_cores, "cloudrefine");
                scn.iterations = s.iterations;
                scn.seed = seed;
                scn
            })
        })
        .collect();
    let probe_runs = probe.len();
    let t1 = Instant::now();
    let results = run_all(s.jobs, probe);
    let flaky_wall_s = t1.elapsed().as_secs_f64();
    let flaky_events: u64 = results.iter().map(|r| r.sim_events).sum();
    let flaky_events_per_sec = flaky_events as f64 / flaky_wall_s;
    let retries: u64 = results.iter().map(|r| r.net.migration_retries).sum();
    let aborts: u64 = results.iter().map(|r| r.net.migration_aborts).sum();
    println!(
        "flaky probe: {} runs in {:.2}s — {:.0} events/s \
         ({} migration retries, {} aborts; informational, not gated)",
        probe_runs, flaky_wall_s, flaky_events_per_sec, retries, aborts
    );

    // Informational spot-storm probe: the same apps under the elastic
    // `spot_storm` preset (acquire, then revoke both original nodes with
    // lead time). Evacuation churn is legitimately slower, so like the
    // flaky arm this is recorded but never gated — the regression gate
    // stays on the clean sweep, proving the membership layer is free when
    // disabled.
    let storm: Vec<Scenario> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.seeds.iter().map(move |&seed| {
                let mut scn = Scenario::spot_storm(app, probe_cores, "cloudrefine");
                scn.iterations = s.iterations;
                scn.seed = seed;
                scn
            })
        })
        .collect();
    let storm_runs = storm.len();
    let t2 = Instant::now();
    let results = run_all(s.jobs, storm);
    let storm_wall_s = t2.elapsed().as_secs_f64();
    let storm_events: u64 = results.iter().map(|r| r.sim_events).sum();
    let storm_events_per_sec = storm_events as f64 / storm_wall_s;
    let drained: usize = results.iter().map(|r| r.elastic.chares_drained).sum();
    let rolled_back: usize = results.iter().map(|r| r.elastic.chares_rolled_back).sum();
    println!(
        "spot-storm probe: {} runs in {:.2}s — {:.0} events/s \
         ({} chares drained, {} rolled back; informational, not gated)",
        storm_runs, storm_wall_s, storm_events_per_sec, drained, rolled_back
    );

    SweepRecord {
        name: name.to_string(),
        fast: s.fast,
        jobs: s.jobs,
        cores: s.cores.clone(),
        seeds: s.seeds.clone(),
        iterations: s.iterations,
        runs,
        wall_s,
        sim_events,
        events_per_sec,
        peak_queue_depth,
        flaky_wall_s,
        flaky_events_per_sec,
        storm_wall_s,
        storm_events_per_sec,
        ff_windows: points.iter().map(|p| p.ff_windows).sum(),
        events_skipped: points.iter().map(|p| p.events_skipped).sum(),
        // No fast-forward comparison arm in this sweep (it pins the
        // engine off): the off-arm fields are genuinely absent, not 0.
        off_wall_s: None,
        off_events_per_sec: None,
        speedup: None,
    }
}

/// The clean long-run sweep behind `BENCH_fastforward.json`: every app on
/// every core count, both a settled `nolb` arm and a `cloudrefine` arm,
/// no interference.
fn ff_scenarios(s: &Settings, iterations: usize, ff: FastForward) -> Vec<Scenario> {
    let mut out = Vec::new();
    for app in ["jacobi2d", "wave2d", "mol3d", "stencil3d"] {
        for &cores in &s.cores {
            for strategy in ["nolb", "cloudrefine"] {
                for &seed in &s.seeds {
                    let mut scn = Scenario::paper(app, cores, strategy).base_of();
                    scn.strategy = strategy.to_string();
                    scn.iterations = iterations;
                    scn.seed = seed;
                    scn.fast_forward = ff;
                    out.push(scn);
                }
            }
        }
    }
    out
}

fn ff_run(s: &Settings, iterations: usize, ff: FastForward) -> (Vec<RunResult>, f64) {
    let t0 = Instant::now();
    let results = run_all(s.jobs, ff_scenarios(s, iterations, ff));
    (results, t0.elapsed().as_secs_f64())
}

/// Differential check + throughput for the fast-forward engine: run the
/// clean long sweep with the macro-stepper OFF and ON, compare every
/// `RunResult` bit for bit (after scrubbing the two observability
/// counters), and return the record for `BENCH_fastforward.json`.
/// `Err` lists the diverging runs — callers exit non-zero on it.
pub fn fastforward_sweep(s: &Settings) -> Result<SweepRecord, String> {
    // Long horizons amortize the one live capture window per template.
    let iterations = if s.fast { 300 } else { 1000 };
    println!(
        "(cores {:?}, {} iterations, seeds {:?}, jobs {}, clean network)",
        s.cores, iterations, s.seeds, s.jobs
    );

    let (off, off_wall_s) = ff_run(s, iterations, FastForward::Off);
    let (on, wall_s) = ff_run(s, iterations, FastForward::On);
    let runs = on.len();

    // Aggregate the ON arm before the differential check consumes it.
    let sim_events: u64 = on.iter().map(|r| r.sim_events).sum();
    let ff_windows: usize = on.iter().map(|r| r.ff_windows).sum();
    let events_skipped: u64 = on.iter().map(|r| r.events_skipped).sum();
    let peak_queue_depth = on.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0);

    // Hard gate: bit-identical physics, run by run.
    let mut divergent = Vec::new();
    for (i, (scn, (a, b))) in ff_scenarios(s, iterations, FastForward::On)
        .iter()
        .zip(on.into_iter().zip(off))
        .enumerate()
    {
        assert!(a.ff_windows > 0, "run {i} ({}/{}) never fast-forwarded", scn.app, scn.cores);
        if a.scrub_ff() != b {
            divergent.push(format!(
                "run {i}: {} on {} cores, strategy {}, seed {}",
                scn.app, scn.cores, scn.strategy, scn.seed
            ));
        }
    }
    if !divergent.is_empty() {
        return Err(format!(
            "{}/{runs} runs diverged between fast-forward on and off:\n{}",
            divergent.len(),
            divergent.join("\n")
        ));
    }
    println!("differential check: {runs}/{runs} runs bit-identical across modes");

    // Throughput. `sim_events` counts skipped pops too, so the two modes
    // share a numerator and the wall-clock ratio is the whole story.
    let events_per_sec = sim_events as f64 / wall_s;
    let off_events_per_sec = sim_events as f64 / off_wall_s;
    let speedup = events_per_sec / off_events_per_sec;
    println!(
        "on:  {runs} runs in {wall_s:.2}s — {events_per_sec:.0} events/s \
         ({ff_windows} windows replayed, {events_skipped} of {sim_events} pops skipped)"
    );
    println!("off: {runs} runs in {off_wall_s:.2}s — {off_events_per_sec:.0} events/s");
    println!("speedup: {speedup:.2}x");

    Ok(SweepRecord {
        name: "fastforward".to_string(),
        fast: s.fast,
        jobs: s.jobs,
        cores: s.cores.clone(),
        seeds: s.seeds.clone(),
        iterations,
        runs,
        wall_s,
        sim_events,
        events_per_sec,
        peak_queue_depth,
        flaky_wall_s: 0.0,
        flaky_events_per_sec: 0.0,
        storm_wall_s: 0.0,
        storm_events_per_sec: 0.0,
        ff_windows,
        events_skipped,
        off_wall_s: Some(off_wall_s),
        off_events_per_sec: Some(off_events_per_sec),
        speedup: Some(speedup),
    })
}

/// Differential pass under the paper's interference: 4 apps × noLB /
/// CloudRefine with the two-core background job resident across LB
/// windows, each run with fast-forward OFF and ON. The replays re-cut the
/// background hosts, so this pass is the bench's check that they stay
/// bit-identical. `Err` lists every diverging run and every noLB run that
/// replayed no window (the gate must not pass by declining everything).
pub fn fastforward_interfered(s: &Settings) -> Result<(), String> {
    let scenarios = |ff| {
        let mut out = Vec::new();
        for app in ["jacobi2d", "wave2d", "mol3d", "stencil3d"] {
            for &cores in &s.cores {
                for strategy in ["nolb", "cloudrefine"] {
                    for &seed in &s.seeds {
                        let mut scn = Scenario::paper(app, cores, strategy);
                        scn.seed = seed;
                        scn.fast_forward = ff;
                        out.push(scn);
                    }
                }
            }
        }
        out
    };
    let off = run_all(s.jobs, scenarios(FastForward::Off));
    let on = run_all(s.jobs, scenarios(FastForward::On));
    let runs = on.len();
    let (mut ff_windows, mut skipped, mut events) = (0, 0, 0);
    let mut failures = Vec::new();
    for (scn, (a, b)) in scenarios(FastForward::On).iter().zip(on.into_iter().zip(off)) {
        let label = format!("{}/{}/{}/seed {}", scn.app, scn.cores, scn.strategy, scn.seed);
        (ff_windows, skipped, events) =
            (ff_windows + a.ff_windows, skipped + a.events_skipped, events + a.sim_events);
        if scn.strategy == "nolb" && a.ff_windows == 0 {
            failures.push(format!("{label}: replayed no window"));
        }
        if a.scrub_ff() != b {
            failures.push(format!("{label}: diverged between fast-forward on and off"));
        }
    }
    if !failures.is_empty() {
        return Err(format!("interfered pass:\n{}", failures.join("\n")));
    }
    println!(
        "interfered: {runs}/{runs} runs bit-identical, {ff_windows} windows replayed, \
         {skipped} of {events} pops skipped"
    );
    Ok(())
}

/// Packets per straggler group in the skew arms: 16 uniform cells plus
/// one Mol3D-heavy straggler, matching the pipeline bench's contract.
const SKEW_GROUP: usize = 17;

/// Time a closure, returning its result and wall-clock seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Best wall-clock of `n` runs (later runs see warm caches; taking the
/// min of both sides of an A/B damps scheduler noise symmetrically).
fn best_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Median wall-clock of three timings of `f` — the calibration runs are
/// single-digit milliseconds, where one preemption can double a sample.
fn median_of_3(mut f: impl FnMut() -> f64) -> f64 {
    let mut w = [f(), f(), f()];
    w.sort_by(f64::total_cmp);
    w[1]
}

/// The bench's reference pool: `jobs` workers claim items by index off
/// one atomic cursor and drop each result into its submission slot — no
/// credit window, no reorder buffer, every input and result resident at
/// once. The uniform A/B times the sweep engine against it, and the skew
/// arms build their chunked and unchunked schedules on it.
fn reference_pool<T: Send, R: Send>(
    jobs: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = work.get(i) else { break };
                let item = slot.lock().expect("work slot poisoned").take();
                let out = f(item.expect("each slot is claimed once"));
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().expect("result slot poisoned").expect("every slot is filled"))
        .collect()
}

/// The chunked-barrier schedule the pipeline replaced: process packets
/// `SKEW_GROUP` at a time through the reference pool, joining it between
/// chunks. Memory-bounded like the pipeline (≤ one chunk of results
/// resident), but every straggler parks the whole pool at its barrier.
fn chunked<T: Send + Clone, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    for chunk in items.chunks(SKEW_GROUP) {
        out.extend(reference_pool(jobs, chunk.to_vec(), &f));
    }
    out
}

/// One uniform (Jacobi2D) run of the skew profile. Fast-forward is off,
/// as on the straggler, so the calibrated cost ratio follows the
/// iteration counts.
fn skew_uniform_scenario(s: &Settings, seed: u64) -> Scenario {
    let mut scn = Scenario::paper("jacobi2d", 4, "cloudrefine");
    scn.iterations = s.iterations;
    scn.seed = seed;
    scn.fast_forward = FastForward::Off;
    scn
}

/// The Mol3D-heavy straggler of the skew profile. Fast-forward is off:
/// replay would skip most of its windows, so its cost relative to a
/// uniform run would follow the replay rate instead of the iteration
/// count it is calibrated by.
fn skew_straggler_scenario(iterations: usize, seed: u64) -> Scenario {
    let mut scn = Scenario::paper("mol3d", 4, "cloudrefine");
    scn.iterations = iterations;
    scn.seed = seed;
    scn.fast_forward = FastForward::Off;
    scn
}

/// The streaming-pipeline bench behind `BENCH_pipeline.json`: throughput,
/// utilization and memory-bound telemetry for the packet-based sweep
/// engine, gated against the bench's reference pool and the chunked
/// schedule it replaced.
/// `Err` carries the first failed gate — callers exit non-zero on it.
///
/// The skew gate (≥ 1.3× over the chunked barrier on a one-straggler-in-
/// seventeen profile) is measured on a *replay* arm: per-packet costs are
/// calibrated on real Jacobi2D/Mol3D runs, then re-executed as timed
/// waits. Timed waits overlap on any host, so the arm measures the two
/// schedules rather than the machine's core count; the same profile over
/// real runs is recorded alongside (`skew_real_*`, informational — a
/// single-core host serializes both schedules to total work and its real
/// ratio sits at 1.0 by conservation of compute).
pub fn pipeline_sweep(s: &Settings) -> Result<PipelineRecord, String> {
    // Below 4 workers the scheduling comparison is vacuous (and at 1 the
    // pipeline legitimately short-circuits to a serial loop), so the
    // bench floors the pool size. Timed-wait packets keep the replay arm
    // meaningful even when the host has fewer cores than workers.
    let jobs = s.jobs.max(4);
    let cfg = PipelineConfig { jobs, reorder_window: 16 };
    let live_bound = cfg.window();
    println!(
        "(jobs {jobs}, reorder window {}, live bound {live_bound}, \
         {} iterations, seeds {:?})",
        cfg.reorder_window, s.iterations, s.seeds
    );

    // --- Uniform arm: the real cell matrix through the streaming engine.
    let cells: Vec<CellSpec> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.cores.iter().map(move |&c| {
                let mut cell = CellSpec::paper(app, c, s.iterations, "cloudrefine");
                cell.fast_forward = FastForward::Off;
                cell
            })
        })
        .collect();
    let mut sim_events: u64 = 0;
    let mut points = 0usize;
    let stats = evaluate_cells_stream(&cells, &s.seeds, jobs, |_, p| {
        sim_events += p.sim_events;
        points += 1;
    });
    let events_per_sec = sim_events as f64 / stats.wall_s;
    let cells_per_sec = points as f64 / stats.wall_s;
    println!(
        "uniform: {} cells ({} runs) in {:.2}s — {:.0} events/s, {:.1} cells/s, \
         utilization {:.2}, reorder peak {}, live peak {} (bound {})",
        points, stats.packets, stats.wall_s, events_per_sec, cells_per_sec,
        stats.utilization, stats.reorder_peak, stats.live_peak, live_bound
    );
    if stats.live_peak > live_bound {
        return Err(format!(
            "memory bound: uniform arm held {} live results, over the bound {}",
            stats.live_peak, live_bound
        ));
    }

    // --- Uniform A/B: identical real packets through the reference pool
    // and the sweep engine.
    let uniform_runs = if s.fast { 32 } else { 64 };
    let ab: Vec<Scenario> =
        (0..uniform_runs).map(|i| skew_uniform_scenario(s, 1 + i as u64)).collect();
    // Passes alternate reference pool / pipeline so drifting background
    // load hits both sides of the A/B symmetrically. A rep is AB_PASSES
    // such pairs, each side timed over all of them: one set of 1–3 ms
    // runs lasts 20–60 ms, too short to time a ratio near 1.0 to within
    // the gate's 10 % on a 2-vCPU host. Each side keeps its best of 5
    // reps, so a single noisy rep on one side must not be able to drag
    // the min under the gate. Walls are per set.
    const AB_PASSES: usize = 8;
    let mut ref_results = Vec::new();
    let mut pipe_results = Vec::new();
    let mut uniform_par_map_wall_s = f64::INFINITY;
    let mut uniform_pipeline_wall_s = f64::INFINITY;
    for _ in 0..5 {
        let (mut ref_w, mut pipe_w) = (0.0, 0.0);
        for _ in 0..AB_PASSES {
            let (r, w) = timed(|| reference_pool(jobs, ab.clone(), |scn| run_scenario(&scn)));
            ref_results = r;
            ref_w += w;
            let ((r, _), w) = timed(|| pipeline_map(&cfg, ab.clone(), |scn| run_scenario(&scn)));
            pipe_results = r;
            pipe_w += w;
        }
        uniform_par_map_wall_s = uniform_par_map_wall_s.min(ref_w / AB_PASSES as f64);
        uniform_pipeline_wall_s = uniform_pipeline_wall_s.min(pipe_w / AB_PASSES as f64);
    }
    if ref_results != pipe_results {
        return Err(
            "uniform A/B: pipeline_map results diverged from the reference pool \
             on identical packets"
                .to_string(),
        );
    }
    let uniform_ratio = uniform_par_map_wall_s / uniform_pipeline_wall_s;
    println!(
        "uniform A/B: {uniform_runs} runs — reference pool {uniform_par_map_wall_s:.3}s, \
         pipeline {uniform_pipeline_wall_s:.3}s, ratio {uniform_ratio:.2}x \
         (bit-identical results)"
    );
    if uniform_ratio < 0.9 {
        return Err(format!(
            "uniform A/B: pipeline is {uniform_ratio:.2}x of the reference pool \
             on uniform packets (allowed ≥ 0.9x)"
        ));
    }

    // --- Calibration: measure the skew profile's per-packet costs. The
    // straggler runs Mol3D for 20× the uniform iteration count, both event
    // by event — a fixed, deterministic profile whose measured cost ratio
    // is recorded below. Inferring an iteration count from a short probe
    // instead is unstable: Mol3D's setup cost dominates short runs and
    // skews any per-iteration estimate.
    run_scenario(&skew_uniform_scenario(s, 1)); // warm-up
    let u_s = median_of_3(|| timed(|| run_scenario(&skew_uniform_scenario(s, 1))).1);
    let straggler_iterations = 20 * s.iterations;
    let straggler_s = median_of_3(|| {
        timed(|| run_scenario(&skew_straggler_scenario(straggler_iterations, 1))).1
    });
    let uniform_run_ms = u_s * 1e3;
    let straggler_run_ms = straggler_s * 1e3;
    let straggler_cost_ratio = straggler_s / u_s;
    println!(
        "calibration: uniform run {uniform_run_ms:.1}ms, straggler \
         ({straggler_iterations} Mol3D iters) {straggler_run_ms:.1}ms — \
         {straggler_cost_ratio:.1}x"
    );

    // --- Skew replay arm (gated): measured costs as timed waits.
    // Replay durations are the measured ones, floored so OS sleep
    // granularity stays small relative to the packet and capped so the
    // arm stays a smoke-sized bench.
    let skew_replay_ms = uniform_run_ms.clamp(5.0, 25.0);
    let straggler_replay_ms = skew_replay_ms * straggler_cost_ratio;
    let skew_groups = if s.fast { 4 } else { 6 };
    let mut replay_packets: Vec<f64> = Vec::new();
    for _ in 0..skew_groups {
        replay_packets.extend(vec![skew_replay_ms; SKEW_GROUP - 1]);
        replay_packets.push(straggler_replay_ms);
    }
    let replay = |ms: f64| std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
    // Interleave the three schedules rep by rep (min of 3 each) so a
    // transient host stall lands on all of them symmetrically instead of
    // flaking the gated ratio.
    let (mut skew_chunked_wall_s, mut skew_pipeline_wall_s, mut skew_unchunked_wall_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        skew_chunked_wall_s = skew_chunked_wall_s
            .min(timed(|| chunked(jobs, &replay_packets, replay)).1);
        skew_pipeline_wall_s = skew_pipeline_wall_s
            .min(timed(|| pipeline_map(&cfg, replay_packets.clone(), replay)).1);
        skew_unchunked_wall_s = skew_unchunked_wall_s
            .min(timed(|| reference_pool(jobs, replay_packets.clone(), replay)).1);
    }
    let skew_ratio = skew_chunked_wall_s / skew_pipeline_wall_s;
    let skew_unchunked_ratio = skew_unchunked_wall_s / skew_pipeline_wall_s;
    println!(
        "skew replay: {} packets ({} groups of {SKEW_GROUP}) — chunked \
         {skew_chunked_wall_s:.2}s, pipeline {skew_pipeline_wall_s:.2}s \
         ({skew_ratio:.2}x), unchunked {skew_unchunked_wall_s:.2}s \
         ({skew_unchunked_ratio:.2}x, informational)",
        replay_packets.len(),
        skew_groups
    );
    if skew_ratio < 1.3 {
        return Err(format!(
            "skew gate: pipeline is only {skew_ratio:.2}x over the chunked \
             schedule on the straggler replay (needs ≥ 1.3x)"
        ));
    }

    // --- Skew real arm (informational): the same profile, real runs.
    let real_groups = 2usize;
    let real_packets: Vec<Scenario> = (0..real_groups)
        .flat_map(|g| {
            (0..SKEW_GROUP - 1)
                .map(move |i| skew_uniform_scenario(s, 1 + (g * SKEW_GROUP + i) as u64))
                .chain(std::iter::once(skew_straggler_scenario(
                    straggler_iterations,
                    1 + g as u64,
                )))
        })
        .collect();
    let skew_real_chunked_wall_s = best_of(3, || {
        timed(|| chunked(jobs, &real_packets, |scn| run_scenario(&scn))).1
    });
    let skew_real_pipeline_wall_s = best_of(3, || {
        timed(|| pipeline_map(&cfg, real_packets.clone(), |scn| run_scenario(&scn))).1
    });
    let skew_real_ratio = skew_real_chunked_wall_s / skew_real_pipeline_wall_s;
    println!(
        "skew real: {} runs — chunked {skew_real_chunked_wall_s:.2}s, pipeline \
         {skew_real_pipeline_wall_s:.2}s ({skew_real_ratio:.2}x; informational, \
         capacity-bound on hosts with fewer cores than workers)",
        real_packets.len()
    );

    // --- Flood arm: the memory bound under tens of thousands of packets.
    let flood_packets = 20_000usize;
    let mut checksum = 0u64;
    let flood_stats = pipeline_stream(
        &cfg,
        0..flood_packets as u64,
        |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13),
        |_, r| checksum = checksum.wrapping_add(r),
    );
    println!(
        "flood: {} packets in {:.2}s — {:.0} packets/s, live peak {} (bound {}), \
         reorder peak {} (checksum {checksum:#x})",
        flood_packets, flood_stats.wall_s, flood_stats.packets_per_sec,
        flood_stats.live_peak, live_bound, flood_stats.reorder_peak
    );
    if flood_stats.live_peak > live_bound {
        return Err(format!(
            "memory bound: flood arm held {} live results, over the bound {} \
             ({} packets)",
            flood_stats.live_peak, live_bound, flood_packets
        ));
    }

    Ok(PipelineRecord {
        name: "pipeline".to_string(),
        fast: s.fast,
        jobs,
        seeds: s.seeds.clone(),
        iterations: s.iterations,
        cells: points,
        wall_s: stats.wall_s,
        sim_events,
        events_per_sec,
        cells_per_sec,
        utilization: stats.utilization,
        reorder_peak: stats.reorder_peak,
        live_peak: stats.live_peak,
        live_bound,
        uniform_runs,
        uniform_par_map_wall_s,
        uniform_pipeline_wall_s,
        uniform_ratio,
        uniform_identical: true,
        uniform_run_ms,
        straggler_iterations,
        straggler_run_ms,
        straggler_cost_ratio,
        skew_groups,
        skew_replay_ms,
        skew_chunked_wall_s,
        skew_pipeline_wall_s,
        skew_ratio,
        skew_unchunked_wall_s,
        skew_unchunked_ratio,
        skew_real_chunked_wall_s,
        skew_real_pipeline_wall_s,
        skew_real_ratio,
        flood_packets,
        flood_live_peak: flood_stats.live_peak,
        flood_reorder_peak: flood_stats.reorder_peak,
        flood_packets_per_sec: flood_stats.packets_per_sec,
    })
}

/// Over-decomposition factor of the scale run: 32 chares per core, twice
/// the paper default, so refinement still has fine granules at 32k cores.
const SCALE_ODF: usize = 32;

/// Points per block edge in the scale grid. Small blocks keep per-task
/// compute tiny; the event count — what the simulator actually pays for —
/// is set by the chare count, not the block size.
const SCALE_BLOCK: usize = 32;

/// The paper's setup blown up to cloud-datacenter size, behind
/// `BENCH_scale.json`: a clean Jacobi2D run over 32,768 cores and
/// 1,048,576 chares (`CLOUDLB_FAST`: 2,048 cores / 65,536 chares) with
/// fast-forward pinned ON, under [`Scenario::scale`].
///
/// Four hard gates, any of which fails the bench:
/// 1. chare conservation — every chare mapped, every home a valid core;
/// 2. bit-identical rerun of the gated flat-CloudRefine arm;
/// 3. `CLOUDLB_SCALE_BUDGET_S` wall-clock budget on that arm (unset = no
///    budget);
/// 4. paper-scale quality parity — `hiercloudrefine` makespan within 5 %
///    of flat CloudRefine on the paper's 8 × 4-core cluster across three
///    seeds.
///
/// The hierarchical arm also runs at full scale (informational wall/
/// events, plus its makespan ratio against the flat arm — at scale the
/// clean run gives refinement little to do, so the ratio should sit at
/// 1.0 within noise).
pub fn scale_sweep(s: &Settings) -> Result<ScaleRecord, String> {
    let cores = if s.fast { 2_048 } else { 32_768 };
    let (cx, cy) = near_square_factors(SCALE_ODF * cores);
    let app = Jacobi2D::new(Block2D::new(cx * SCALE_BLOCK, cy * SCALE_BLOCK, cx, cy));
    let chares = app.grid.num_chares();
    let budget_s: Option<f64> = std::env::var("CLOUDLB_SCALE_BUDGET_S")
        .ok()
        .map(|v| v.parse().expect("CLOUDLB_SCALE_BUDGET_S: bad number"));
    let budget_str =
        budget_s.map_or_else(|| "none".to_string(), |b| format!("{b:.0}s"));
    println!(
        "({cores} cores, {chares} chares ({SCALE_ODF}/core), 30 iterations, \
         LB every 3, fast-forward ON, budget {budget_str})"
    );

    // Gated arm: flat CloudRefine.
    let scn = Scenario::scale("jacobi2d", cores, "cloudrefine");
    let t0 = Instant::now();
    let flat = SimExecutor::new(&app, scn.run_config(), scn.bg_script(&app)).run();
    let wall_s = t0.elapsed().as_secs_f64();
    let events_per_sec = flat.sim_events as f64 / wall_s;
    println!(
        "flat:  {wall_s:.2}s — {events_per_sec:.0} events/s ({} events, \
         {} windows replayed, {} pops skipped, peak queue {})",
        flat.sim_events, flat.ff_windows, flat.events_skipped, flat.peak_queue_depth
    );

    // Gate 1: chare conservation — the placement covers every chare and
    // never points outside the cluster.
    if flat.final_mapping.len() != chares {
        return Err(format!(
            "conservation: final mapping covers {} of {chares} chares",
            flat.final_mapping.len()
        ));
    }
    if let Some(&bad) = flat.final_mapping.iter().find(|&&pe| pe >= cores) {
        return Err(format!("conservation: a chare landed on core {bad} of {cores}"));
    }
    if flat.iter_times.len() != scn.iterations {
        return Err(format!(
            "run completed {} of {} iterations",
            flat.iter_times.len(),
            scn.iterations
        ));
    }

    // Gate 2: determinism — the same scenario rerun must be bit-identical.
    let rerun = SimExecutor::new(&app, scn.run_config(), scn.bg_script(&app)).run();
    if rerun != flat {
        return Err("rerun of the scale scenario diverged from the first run".to_string());
    }
    println!("rerun: bit-identical");

    // Gate 3: wall-clock budget on the gated arm.
    if let Some(budget) = budget_s {
        if wall_s > budget {
            return Err(format!(
                "budget: flat arm took {wall_s:.2}s, over the {budget:.0}s budget"
            ));
        }
    }

    // Informational at scale: the hierarchical arm.
    let hscn = Scenario::scale("jacobi2d", cores, "hiercloudrefine");
    let t1 = Instant::now();
    let hier = SimExecutor::new(&app, hscn.run_config(), hscn.bg_script(&app)).run();
    let hier_wall_s = t1.elapsed().as_secs_f64();
    let hier_events_per_sec = hier.sim_events as f64 / hier_wall_s;
    let hier_makespan_ratio = hier.app_time.as_secs_f64() / flat.app_time.as_secs_f64();
    println!(
        "hier:  {hier_wall_s:.2}s — {hier_events_per_sec:.0} events/s \
         (makespan ratio vs flat {hier_makespan_ratio:.4})"
    );

    // Gate 4: quality parity at the paper's own scale (8 nodes × 4
    // cores, interference on), where refinement genuinely works.
    let parity_cores = 32;
    let parity_seeds: Vec<u64> = vec![1, 2, 3];
    let mut parity_worst_ratio = 0.0f64;
    for &seed in &parity_seeds {
        let run_arm = |strategy: &str| {
            let mut scn = Scenario::paper("jacobi2d", parity_cores, strategy);
            scn.seed = seed;
            run_scenario(&scn)
        };
        let f = run_arm("cloudrefine");
        let h = run_arm("hiercloudrefine");
        let ratio = h.app_time.as_secs_f64() / f.app_time.as_secs_f64();
        println!("parity seed {seed}: hier/flat makespan {ratio:.4}");
        parity_worst_ratio = parity_worst_ratio.max(ratio);
        if ratio > 1.05 {
            return Err(format!(
                "parity: hiercloudrefine makespan is {:.1}% of flat CloudRefine \
                 at {parity_cores} cores, seed {seed} (allowed 105%)",
                ratio * 100.0
            ));
        }
    }

    Ok(ScaleRecord {
        name: "scale".to_string(),
        fast: s.fast,
        cores,
        chares,
        chares_per_core: SCALE_ODF,
        iterations: scn.iterations,
        lb_period: scn.lb_period,
        wall_s,
        sim_events: flat.sim_events,
        events_per_sec,
        peak_queue_depth: flat.peak_queue_depth,
        ff_windows: flat.ff_windows,
        events_skipped: flat.events_skipped,
        rerun_identical: true,
        hier_wall_s,
        hier_events_per_sec,
        hier_makespan_ratio,
        parity_cores,
        parity_seeds,
        parity_worst_ratio,
        budget_s,
    })
}
