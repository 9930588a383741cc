//! Differential gate for the steady-state fast-forward engine: with
//! macro-stepping ON, every scenario preset must produce a `RunResult`
//! bit-identical (after [`RunResult::scrub_ff`], which zeroes only the
//! two observability counters) to the event-by-event run with it OFF —
//! same iteration times, same migrations, same energy, same event
//! accounting. The matrix covers every preset constructor × four apps ×
//! both arms × the three CI seeds, so interference, dirty telemetry,
//! network chaos, and a permanent core kill are all exercised. A second
//! matrix runs the paper's interference at two widths and requires the
//! noLB arms to replay, so windows with a resident background job are
//! re-cut rather than declined.
//!
//! Property tests pin the engine's conservatism: a clean run coalesces
//! almost every LB window; a background job runs live only the windows
//! where it starts or completes; and a sweep of the job's demand moves
//! its completion across every window — onto the LbDone instant and the
//! boundary ghosts' arrivals after a replayed window — with every run
//! bit-identical.

use cloudlb_core::{pipeline_map, try_run_scenario, BgPattern, PipelineConfig, Scenario};
use cloudlb_runtime::{FastForward, RunResult, RuntimeError, SimExecutor};
use cloudlb_sim::{BgAction, BgScript, Dur, Time};
use cloudlb_trace::Activity;

const SEEDS: [u64; 3] = [1, 2, 3];
// Four LB windows: capture needs one, replay another, and the engine
// always runs the final window live — fewer than 40 iterations at the
// default period of 10 would leave nothing to macro-step.
const ITERS: usize = 40;

/// Map `f` over `items` through the sweep engine, results in order.
fn sweep<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    pipeline_map(&PipelineConfig::new(cloudlb_core::default_jobs()), items, f).0
}

fn with_ff(mut scn: Scenario, ff: FastForward) -> Scenario {
    scn.fast_forward = ff;
    scn
}

/// Every preset constructor × app × arm × CI seed, with iterations
/// reduced so the whole matrix stays CI-sized.
fn preset_matrix() -> Vec<(String, Scenario)> {
    // Clean machine (the normalization base), with the arm's strategy
    // restored after `base_of` forces `nolb`: the presets below all keep
    // scheduled disturbances live in the queue for most of a short run,
    // so this row is where the replay path itself gets exercised.
    fn clean(app: &str, cores: usize, strategy: &str) -> Scenario {
        let mut scn = Scenario::paper(app, cores, strategy).base_of();
        scn.strategy = strategy.to_string();
        scn
    }
    type Preset = (&'static str, fn(&str, usize, &str) -> Scenario, &'static str);
    let presets: [Preset; 5] = [
        ("clean", clean, "cloudrefine"),
        ("paper", Scenario::paper, "cloudrefine"),
        ("noisy_cloud", Scenario::noisy_cloud, "robustcloudrefine"),
        ("flaky_cloud", Scenario::flaky_cloud, "cloudrefine"),
        ("failure_drill", Scenario::failure_drill, "cloudrefine"),
    ];
    let mut out = Vec::new();
    for (name, make, lb_arm) in presets {
        for app in ["jacobi2d", "wave2d", "mol3d", "stencil3d"] {
            for arm in ["nolb", lb_arm] {
                for seed in SEEDS {
                    let mut scn = make(app, 8, arm);
                    scn.iterations = ITERS;
                    scn.seed = seed;
                    out.push((format!("{name}/{app}/{arm}/seed{seed}"), scn));
                }
            }
        }
    }
    out
}

fn run(scn: &Scenario) -> Result<RunResult, RuntimeError> {
    try_run_scenario(scn)
}

#[test]
fn fast_forward_is_bit_identical_across_every_preset() {
    let matrix = preset_matrix();
    let runs: Vec<Scenario> = matrix
        .iter()
        .flat_map(|(_, scn)| {
            [with_ff(scn.clone(), FastForward::On), with_ff(scn.clone(), FastForward::Off)]
        })
        .collect();
    let mut results = sweep(runs, |scn| run(&scn)).into_iter();

    let mut replayed_anywhere = false;
    for (label, _) in &matrix {
        let (on_res, off_res) = (results.next().unwrap(), results.next().unwrap());
        match (on_res, off_res) {
            (Ok(on), Ok(off)) => {
                replayed_anywhere |= on.ff_windows > 0;
                assert_eq!(
                    off.ff_windows, 0,
                    "the off arm must never macro-step ({label})"
                );
                assert_eq!(
                    on.scrub_ff(),
                    off,
                    "fast-forward diverged from the event-by-event run for {label}"
                );
            }
            // A scenario that cannot complete must fail identically in
            // both modes (same error, not just "both failed").
            (Err(on), Err(off)) => assert_eq!(on, off, "error diverged for {label}"),
            (on, off) => panic!(
                "one arm failed and the other did not for {label}: on={on:?} off={off:?}"
            ),
        }
    }
    // Sanity: the matrix contained at least one scenario where the fast
    // path actually engaged, so the equality above covered real replays.
    assert!(replayed_anywhere, "no scenario in the matrix ever fast-forwarded");
}

#[test]
fn clean_runs_coalesce_almost_every_window() {
    // On a clean machine with a static mapping, every LB window after the
    // first (the capture) is identical, so at most a couple of windows at
    // the edges may run live.
    let mut scn = Scenario::paper("jacobi2d", 8, "nolb").base_of();
    scn.iterations = 80;
    scn.fast_forward = FastForward::On;
    let r = try_run_scenario(&scn).expect("clean run");
    let windows = scn.iterations / scn.lb_period;
    assert!(
        r.ff_windows >= windows - 3,
        "expected nearly all {windows} windows coalesced, got {}",
        r.ff_windows
    );
    assert!(r.events_skipped > 0);
}

#[test]
fn interfered_paper_matrix_is_bit_identical_and_replays() {
    // The paper's two-core background job persists across LB windows, so
    // every replay here re-cuts the background hosts.
    let mut matrix = Vec::new();
    for app in ["jacobi2d", "wave2d", "mol3d", "stencil3d"] {
        for cores in [8, 16] {
            for arm in ["nolb", "cloudrefine"] {
                for seed in SEEDS {
                    let mut scn = Scenario::paper(app, cores, arm);
                    scn.iterations = 60;
                    scn.seed = seed;
                    matrix.push((format!("paper/{app}/{cores}/{arm}/seed{seed}"), scn));
                }
            }
        }
    }
    let runs: Vec<Scenario> = matrix
        .iter()
        .flat_map(|(_, scn)| [FastForward::On, FastForward::Off].map(|ff| with_ff(scn.clone(), ff)))
        .collect();
    let mut results = sweep(runs, |scn| run(&scn).unwrap()).into_iter();
    for (label, scn) in &matrix {
        let (on, off) = (results.next().unwrap(), results.next().unwrap());
        if scn.strategy == "nolb" {
            assert!(on.ff_windows > 0, "{label}: no window replayed under a resident job");
        }
        assert_eq!(on.scrub_ff(), off, "fast-forward diverged for {label}");
    }
}

/// `scn`'s app and configuration under a two-core background on cores 0
/// and 1: job 0 on core `stepped` with `demand_us` of CPU, and job 1 on
/// the other core outliving the run. Returns the run and job 0's
/// completion instant (from its timing penalty; it starts at t = 0).
fn run_stepped_job(
    scn: &Scenario,
    stepped: usize,
    demand_us: u64,
    ff: FastForward,
) -> (RunResult, u64) {
    let app = scn.build_app();
    let mut cfg = scn.run_config();
    cfg.fast_forward = ff;
    let resident = Dur::from_secs_f64(10.0 * scn.base_time_estimate(app.as_ref()));
    let start = |job, core, demand| {
        (Time::ZERO, BgAction::Start { job, core, demand: Some(demand), weight: scn.bg_weight })
    };
    let actions = vec![start(0, stepped, Dur::from_us(demand_us)), start(1, 1 - stepped, resident)];
    let bg = BgScript { actions };
    let r = SimExecutor::new(app.as_ref(), cfg, bg).try_run().unwrap();
    let done = ((r.bg_penalties[&0] + 1.0) * demand_us as f64).round() as u64;
    (r, done)
}

#[test]
fn background_completion_sweep_is_bit_identical() {
    // Five LB windows: the first runs before any release, the second is
    // captured, the next two replay, and the last one ends the app.
    let mut scn = Scenario::paper("jacobi2d", 8, "nolb");
    scn.iterations = 50;

    // The paper's two-core job, its demand stepped so its completion
    // moves through every window and past the app's end.
    let coarse: Vec<Scenario> = (1..=30)
        .map(|k| {
            let mut s = scn.clone();
            s.bg = BgPattern::TwoCore { demand_frac: k as f64 / 20.0 };
            s
        })
        .collect();
    sweep(coarse, |s| {
        let on = run(&with_ff(s.clone(), FastForward::On)).unwrap();
        let off = run(&with_ff(s.clone(), FastForward::Off)).unwrap();
        assert_eq!(on.scrub_ff(), off, "{:?} diverged", s.bg);
    });

    // Then land a completion on exact instants around each window's end:
    // the arrivals of the last chare's ghosts (intra- and inter-node) and
    // the LbDone. The foreground idles there, so the completion moves
    // 1 µs per µs of demand and every instant is reachable. A second job
    // stays resident on the other core so that the windows before the
    // completion replay with background hosts. Each core takes a turn
    // with the stepped job: whether it runs the window's last task decides
    // whether its wake is set before or after the ghosts that task sends.
    let finish = |(stepped, d)| run_stepped_job(&scn, stepped, d, FastForward::Off).1;
    let check = |stepped, demand_us| {
        let (on, _) = run_stepped_job(&scn, stepped, demand_us, FastForward::On);
        let (off, _) = run_stepped_job(&scn, stepped, demand_us, FastForward::Off);
        let ff_windows = on.ff_windows;
        assert_eq!(on.scrub_ff(), off, "demand {demand_us} µs on core {stepped} diverged");
        ff_windows
    };
    let (probe, _) = run_stepped_job(&scn, 0, u32::MAX.into(), FastForward::Off);
    let cfg = scn.run_config();
    let app = scn.build_app();
    let bytes = app.message_bytes(0, app.neighbors(0)[0]);
    let step = Dur::from_secs_f64(cfg.lb.step_cost_s).as_us();
    let mut targets = Vec::new();
    for k in 1..=4 {
        let end: u64 = probe.iter_times[..k * scn.lb_period].iter().map(|d| d.as_us()).sum();
        let ghost = |same_node| cfg.network.delay(bytes, same_node).as_us();
        for after in [ghost(true), ghost(false), step] {
            targets.extend([(0, k, end + after), (1, k, end + after)]);
        }
    }
    // Completion instants on a demand grid bracket every target.
    let d_hi = probe.app_time.as_us();
    let grid: Vec<(usize, u64)> =
        (0..2).flat_map(|c| (1..=16).map(move |i| (c, d_hi * i / 16))).collect();
    let grid_f = sweep(grid.clone(), finish);
    let landed = sweep(targets.clone(), |(stepped, _, target)| {
        // Narrow the bracket: a µs of demand costs at least a µs of wall
        // time, so stepping from either end at slope 1 stays inside it,
        // and lands exactly once both ends idle the foreground.
        let (mut lo, mut f_lo, mut hi, mut f_hi) = (0, 0, u64::MAX, u64::MAX);
        for (&(c, d), &f) in grid.iter().zip(&grid_f) {
            if c == stepped && f <= target && d >= lo {
                (lo, f_lo) = (d, f);
            }
            if c == stepped && f > target && d < hi {
                (hi, f_hi) = (d, f);
            }
        }
        assert!(hi != u64::MAX, "the grid never passes {target} µs");
        for step in 0.. {
            if hi - lo <= 1 || f_lo == target {
                break;
            }
            let d = match step % 3 {
                0 => hi.saturating_sub(f_hi - target),
                1 => lo + (target - f_lo),
                _ => lo + (hi - lo) / 2,
            };
            let d = d.clamp(lo + 1, hi - 1);
            let f = finish((stepped, d));
            if f <= target {
                (lo, f_lo) = (d, f);
            } else {
                (hi, f_hi) = (d, f);
            }
        }
        check(stepped, lo.saturating_sub(1));
        check(stepped, lo + 1);
        (f_lo == target, check(stepped, lo))
    });
    for (&(stepped, k, target), (ok, replayed)) in targets.iter().zip(landed) {
        assert!(ok, "no demand ends job 0 on core {stepped} at {target} µs (after window {k})");
        // Windows 2 and 3 replay before a completion after them.
        assert!(k < 3 || replayed >= k - 2, "{target} µs: only {replayed} windows replayed");
    }
}

#[test]
fn a_pending_disturbance_forces_fallback_until_it_drains() {
    // A resident background job no longer forces the fallback: its hosts
    // are re-cut through each replayed window. Only the windows where the
    // job is pending, starts or completes run live (plus the one that
    // re-captures after its completion), so a finite pulse costs the
    // clean run at most two windows, replays windows both while it is
    // resident and after it drains, and every variant stays bit-identical
    // to its event-by-event twin. (Both pulses outlive the captured
    // window, so a replay while resident is possible.)
    let clean = {
        let mut s = Scenario::paper("wave2d", 8, "nolb").base_of();
        s.iterations = 80;
        s
    };
    let pulse = |demand_frac: f64| {
        let mut s = clean.clone();
        s.bg = BgPattern::TwoCore { demand_frac };
        s
    };

    let mut windows = Vec::new();
    for scn in [clean.clone(), pulse(0.4), pulse(0.6)] {
        let on = try_run_scenario(&with_ff(scn.clone(), FastForward::On)).unwrap();
        let off = try_run_scenario(&with_ff(scn.clone(), FastForward::Off)).unwrap();
        let on_windows = on.ff_windows;
        windows.push(on_windows);
        assert_eq!(on.scrub_ff(), off, "disturbed run diverged");
        // Where the replayed windows lie relative to the job's completion
        // (a traced run marks each one as a fast-forward interval).
        let mut traced = with_ff(scn.clone(), FastForward::On);
        traced.trace = true;
        let traced = try_run_scenario(&traced).unwrap();
        let replayed: Vec<(u64, u64)> = traced.trace.as_ref().unwrap().intervals(0)
            .iter()
            .filter(|iv| iv.activity == Activity::FastForward)
            .map(|iv| (iv.start, iv.end))
            .collect();
        assert_eq!(replayed.len(), on_windows, "traced run replayed differently");
        let Some(&penalty) = off.bg_penalties.get(&0) else { continue };
        let BgPattern::TwoCore { demand_frac } = scn.bg else { unreachable!() };
        let base = scn.base_time_estimate(scn.build_app().as_ref());
        let demand = Dur::from_secs_f64(base * demand_frac);
        let done = ((penalty + 1.0) * demand.as_us() as f64).round() as u64;
        assert!(
            replayed.iter().all(|&(start, end)| done < start || done > end),
            "a window containing the completion at {done} µs replayed: {replayed:?}"
        );
        assert!(
            replayed.iter().any(|&(_, end)| end < done),
            "demand {demand_frac}: no window replayed while the job was resident"
        );
        assert!(
            replayed.iter().any(|&(start, _)| start > done),
            "demand {demand_frac}: replay must resume once the pulse drains"
        );
    }
    let clean_w = windows[0];
    for (w, name) in windows[1..].iter().zip(["short", "long"]) {
        assert!(
            clean_w - w <= 2,
            "the {name} pulse ran {} more windows live than the clean run ({clean_w})",
            clean_w - w
        );
    }
}
