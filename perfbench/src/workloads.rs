//! The four workloads. Each is one *job* — a fixed amount of work made
//! from the pool seed — run either plainly (the end-to-end pass) or with
//! spans and decorators around every call into a layer (the traced pass).

use crate::trace::{span, TimedApp, TimedStrategy, Tracer};
use cloudlb_core::{evaluate_cells_stream, pipeline_stream, CellSpec, EvalPoint, PipelineConfig};
use cloudlb_core::{PipelineStats, Scenario};
use cloudlb_runtime::SimExecutor;
use cloudlb_runtime::{ElasticStats, FastForward, IterativeApp, RunResult, RuntimeError};
use cloudlb_sim::stats::mean;
use cloudlb_sim::NetStats;
use cloudlb_vopr::oracle::dead_cores;
use cloudlb_vopr::{check, generate, run_swarm_stream, OracleOpts, Outcome, Verdict};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads for the pipeline workloads: the benchmark host has two.
pub const JOBS: usize = 2;

/// `--seed` is reduced modulo this many pool entries, each of which has
/// its expected outputs recorded in `digests.txt`.
pub const POOL: u64 = 16;

const PAPER_APPS: [&str; 4] = ["jacobi2d", "wave2d", "mol3d", "stencil3d"];
const PAPER_CORES: [usize; 3] = [8, 16, 32];
const PAPER_ITERS: usize = 100;
const WIDE_CORES: [usize; 3] = [64, 128, 256];
const WIDE_ITERS: usize = 20;
const SCALE_CORES: usize = 512;
const SWARM_SEEDS: u64 = 800;
/// The swarm runs as this many contiguous chunks of seeds, one
/// `run_swarm_stream` each.
const SWARM_PARTS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMatrix,
    WideChaos,
    ScaleFf,
    VoprSwarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::WideChaos,
        Workload::ScaleFf,
        Workload::VoprSwarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper_matrix",
            Workload::WideChaos => "wide_chaos",
            Workload::ScaleFf => "scale_ff",
            Workload::VoprSwarm => "vopr_swarm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Threads the job keeps busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::PaperMatrix | Workload::VoprSwarm => JOBS,
            Workload::WideChaos | Workload::ScaleFf => 1,
        }
    }

    /// Parts a plain job runs in. The end-to-end pass calibrates between
    /// parts, so a long job is not calibrated only at its two ends.
    pub fn parts(self) -> usize {
        match self {
            Workload::VoprSwarm => SWARM_PARTS as usize,
            _ => 1,
        }
    }

    /// Part `k` of the plain job.
    pub fn untraced_part(self, pool: u64, k: usize) -> Job {
        match self {
            Workload::PaperMatrix => paper_untraced(pool),
            Workload::WideChaos | Workload::ScaleFf => serial_job(&self.scenarios(pool), None),
            Workload::VoprSwarm => swarm_untraced(pool, k as u64),
        }
    }

    /// The plain job: what a user of the reproduction runs.
    pub fn untraced(self, pool: u64) -> Job {
        (0..self.parts())
            .map(|k| self.untraced_part(pool, k))
            .reduce(Job::merge)
            .expect("a job has at least one part")
    }

    /// The same job with every layer call inside a span.
    pub fn traced(self, pool: u64, tracer: &Arc<Tracer>, root: u64) -> Job {
        match self {
            Workload::PaperMatrix => paper_traced(pool, tracer, root),
            Workload::WideChaos | Workload::ScaleFf => {
                serial_job(&self.scenarios(pool), Some((tracer, root)))
            }
            Workload::VoprSwarm => swarm_traced(pool, tracer, root),
        }
    }

    /// Host seconds for every set-up call the job makes before its first
    /// event (scenario generation included for the swarm).
    pub fn setup_secs(self, pool: u64) -> f64 {
        if self == Workload::VoprSwarm {
            let t = Instant::now();
            for seed in swarm_range(pool) {
                set_up(&generate(seed));
            }
            return t.elapsed().as_secs_f64();
        }
        let scns = self.scenarios(pool);
        let t = Instant::now();
        for scn in &scns {
            set_up(scn);
        }
        t.elapsed().as_secs_f64()
    }

    /// Scenarios of the job in run order (the swarm generates its own).
    fn scenarios(self, pool: u64) -> Vec<Scenario> {
        let seed = pool + 1;
        match self {
            Workload::PaperMatrix => paper_cells()
                .iter()
                .flat_map(|cell| arms(cell, seed))
                .collect(),
            Workload::WideChaos => WIDE_CORES.iter().map(|&p| wide_scenario(p, seed)).collect(),
            Workload::ScaleFf => {
                vec![Scenario {
                    seed,
                    ..Scenario::scale("jacobi2d", SCALE_CORES, "hiercloudrefine")
                }]
            }
            Workload::VoprSwarm => swarm_range(pool).map(generate).collect(),
        }
    }

    /// The values recorded in `digests.txt` for a pool entry: the job's
    /// fingerprint, plus for the swarm (which `run_swarm_stream` does not
    /// report events) the events of the traced pass's probe runs.
    pub fn record(self, pool: u64) -> Vec<u64> {
        let job = self.untraced(pool);
        assert!(
            job.errors.is_empty(),
            "{} pool {pool}: {:?}",
            self.name(),
            job.errors
        );
        let mut line = job.fingerprint;
        if self == Workload::VoprSwarm {
            let probes = swarm_traced(pool, &Arc::new(Tracer::new()), 0);
            assert!(probes.errors.is_empty(), "{:?}", probes.errors);
            line.push(probes.sim_events);
        }
        line
    }
}

/// What one job did, for the output check and the metrics.
#[derive(Default)]
pub struct Job {
    /// Host seconds of the job's work, set-up excluded where the job runs
    /// on the calling thread (see README.md).
    pub wall_s: f64,
    /// Runs, cells or seeds the job checked.
    pub units: usize,
    /// Units that panicked, errored unexpectedly or broke an invariant.
    pub errors: Vec<String>,
    /// Compared against the recorded line: one digest per cell or run, or
    /// the swarm's verdict counts.
    pub fingerprint: Vec<u64>,
    pub sim_events: u64,
    /// Paper headline `(penalty, energy)` reduction in percent.
    pub quality: Option<(f64, f64)>,
    pub pipeline: Option<PipelineStats>,
    /// Paper-matrix cells, for the traced pass's bit-for-bit comparison.
    pub points: Vec<EvalPoint>,
    /// Traced pass only: one record per instrumented run.
    pub runs: Vec<RunRecord>,
    /// Traced swarm only: `(completed, typed errors, oracle failures)`.
    pub verdicts: Option<[u64; 3]>,
    /// Traced swarm only: host seconds of the part comparable with the
    /// untraced swarm (the instrumented probe runs come after it).
    pub comparable_wall_s: Option<f64>,
}

impl Job {
    /// Fold the next part of a job into this one. Only the swarm has more
    /// than one part; its verdict counts add up.
    pub fn merge(mut self, next: Job) -> Job {
        self.wall_s += next.wall_s;
        self.units += next.units;
        self.errors.extend(next.errors);
        self.sim_events += next.sim_events;
        for (a, b) in self.fingerprint.iter_mut().zip(next.fingerprint) {
            *a += b;
        }
        self
    }
}

/// Counters of one instrumented run.
pub struct RunRecord {
    /// Id of the run's `try_run_with_strategy` span.
    pub span: u64,
    /// Host seconds of that span.
    pub run_s: f64,
    pub cores: usize,
    pub callback_calls: u64,
    pub callback_s: f64,
    /// Copied from the `RunResult` when the run completed.
    pub stats: Option<RunStats>,
}

#[derive(Clone, Copy)]
pub struct RunStats {
    pub sim_events: u64,
    pub events_skipped: u64,
    pub ff_windows: usize,
    pub peak_queue_depth: usize,
    pub lb_steps: usize,
    pub migrations: usize,
    pub replayed_iters: usize,
    pub failures: usize,
    pub recoveries: usize,
    pub net: NetStats,
    pub elastic: ElasticStats,
}

impl RunStats {
    fn of(r: &RunResult) -> Self {
        RunStats {
            sim_events: r.sim_events,
            events_skipped: r.events_skipped,
            ff_windows: r.ff_windows,
            peak_queue_depth: r.peak_queue_depth,
            lb_steps: r.lb_steps,
            migrations: r.migrations,
            replayed_iters: r.replayed_iters,
            failures: r.failures,
            recoveries: r.recoveries,
            net: r.net,
            elastic: r.elastic,
        }
    }
}

/// FNV-1a over the value's `Debug` text. `Debug` prints every `f64` in
/// its shortest round-trip form, so equal digests mean equal bits.
fn digest<T: Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Digest of a run's physics: the fast-forward counters are scrubbed so
/// that replaying more or fewer windows is not a behaviour change.
fn run_digest(r: RunResult) -> u64 {
    digest(&r.scrub_ff())
}

fn point_digest(p: &EvalPoint) -> u64 {
    digest(&EvalPoint {
        ff_windows: 0,
        events_skipped: 0,
        ..p.clone()
    })
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The first half of `try_run_scenario`: validation and the app.
fn build(
    scn: &Scenario,
    t: Option<&Tracer>,
    parent: u64,
) -> Result<Box<dyn IterativeApp>, RuntimeError> {
    span(t, parent, "core", "setup.validate", |_| scn.validate())
        .map_err(RuntimeError::InvalidConfig)?;
    Ok(span(t, parent, "core", "setup.build_app", |_| {
        scn.build_app()
    }))
}

/// The second half: chaos scripts and the executor. Scripts size
/// themselves from `app`; the executor runs `exec_app` (the same app, or
/// its timing decorator).
fn executor<'a>(
    scn: &Scenario,
    app: &dyn IterativeApp,
    exec_app: &'a dyn IterativeApp,
    t: Option<&Tracer>,
    parent: u64,
) -> SimExecutor<'a> {
    let bg = span(t, parent, "core", "setup.bg_script", |_| scn.bg_script(app));
    let fail = span(t, parent, "core", "setup.fail_script", |_| {
        scn.fail_script(app)
    });
    let membership = span(t, parent, "core", "setup.membership_script", |_| {
        scn.membership_script(app)
    });
    span(t, parent, "core", "setup.executor_new", |_| {
        let mut exec = SimExecutor::new(exec_app, scn.run_config(), bg).with_failures(fail);
        if let Some(spec) = scn.telemetry {
            exec = exec.with_telemetry(spec);
        }
        if let Some(spec) = &scn.net_fault {
            exec = exec.with_net_faults(spec.clone());
        }
        if !membership.is_empty() {
            exec = exec.with_membership(membership);
        }
        exec
    })
}

fn set_up(scn: &Scenario) {
    if let Ok(app) = build(scn, None, 0) {
        std::hint::black_box(executor(scn, app.as_ref(), app.as_ref(), None, 0));
    }
}

/// Completion and chare conservation, the invariants every run must keep.
fn check_run(scn: &Scenario, chares: usize, r: &RunResult) -> Result<(), String> {
    if r.iter_times.len() != scn.iterations {
        return Err(format!(
            "{} of {} iterations ran",
            r.iter_times.len(),
            scn.iterations
        ));
    }
    r.check_conservation(chares, scn.total_cores(), &dead_cores(scn))
}

fn label(scn: &Scenario) -> String {
    format!(
        "{} P={} {} seed {}",
        scn.app, scn.cores, scn.strategy, scn.seed
    )
}

/// One instrumented run: set-up spans, then the run with the timed
/// strategy and app, grouped under a `bench.run` span.
fn run_traced(
    scn: &Scenario,
    tracer: &Arc<Tracer>,
    parent: u64,
) -> (RunRecord, Result<RunResult, String>) {
    tracer.span(parent, "bench", "run", |run_id| {
        let mut rec = RunRecord {
            span: 0,
            run_s: 0.0,
            cores: scn.cores,
            callback_calls: 0,
            callback_s: 0.0,
            stats: None,
        };
        let app = match build(scn, Some(tracer), run_id) {
            Ok(app) => app,
            Err(e) => return (rec, Err(e.to_string())),
        };
        let timed = TimedApp::new(app.as_ref());
        let exec = executor(scn, app.as_ref(), &timed, Some(tracer), run_id);
        let (calls0, secs0) = timed.totals();
        let (id, run_s, result) = tracer.span(run_id, "runtime", "try_run_with_strategy", |id| {
            let t = Instant::now();
            let run = scn
                .run_config()
                .lb
                .try_strategy()
                .map_err(RuntimeError::InvalidConfig);
            let run = run.and_then(|inner| {
                let strategy = TimedStrategy {
                    inner,
                    tracer: tracer.clone(),
                    parent: id,
                };
                exec.try_run_with_strategy(Box::new(strategy))
            });
            (id, t.elapsed().as_secs_f64(), run)
        });
        let (calls1, secs1) = timed.totals();
        rec.span = id;
        rec.run_s = run_s;
        rec.callback_calls = calls1 - calls0;
        rec.callback_s = secs1 - secs0;
        let result = result.map_err(|e| e.to_string()).and_then(|r| {
            check_run(scn, app.num_chares(), &r)?;
            rec.stats = Some(RunStats::of(&r));
            Ok(r)
        });
        (rec, result)
    })
}

/// `wide_chaos` and `scale_ff`: runs one after another on this thread.
/// Only the runs are timed; their set-up is `setup_s`.
fn serial_job(scns: &[Scenario], traced: Option<(&Arc<Tracer>, u64)>) -> Job {
    let mut job = Job {
        units: scns.len(),
        ..Job::default()
    };
    for scn in scns {
        let outcome = catch_unwind(AssertUnwindSafe(|| match traced {
            Some((tracer, root)) => {
                let (rec, r) = run_traced(scn, tracer, root);
                (rec.run_s, Some(rec), r)
            }
            None => {
                let prepared = build(scn, None, 0).map(|app| {
                    let exec = executor(scn, app.as_ref(), app.as_ref(), None, 0);
                    let t = Instant::now();
                    let r = exec.try_run();
                    let secs = t.elapsed().as_secs_f64();
                    (
                        secs,
                        r.map_err(|e| e.to_string())
                            .and_then(|r| check_run(scn, app.num_chares(), &r).map(|_| r)),
                    )
                });
                match prepared {
                    Ok((secs, r)) => (secs, None, r),
                    Err(e) => (0.0, None, Err(e.to_string())),
                }
            }
        }))
        .unwrap_or_else(|p| (0.0, None, Err(format!("panic: {}", panic_text(p)))));
        let (secs, rec, result) = outcome;
        job.wall_s += secs;
        job.runs.extend(rec);
        match result {
            Ok(r) => {
                job.sim_events += r.sim_events;
                job.fingerprint.push(run_digest(r));
            }
            Err(e) => {
                job.errors.push(format!("{}: {e}", label(scn)));
                job.fingerprint.push(0);
            }
        }
    }
    job
}

fn wide_scenario(cores: usize, seed: u64) -> Scenario {
    // The paper's interference, the flaky_cloud network and the
    // spot_storm membership at once, event by event.
    let storm = Scenario::spot_storm("jacobi2d", cores, "cloudrefine");
    Scenario {
        iterations: WIDE_ITERS,
        seed,
        fast_forward: FastForward::Off,
        membership: storm.membership,
        ..Scenario::flaky_cloud("jacobi2d", cores, "cloudrefine")
    }
}

fn paper_cells() -> Vec<CellSpec> {
    PAPER_APPS
        .iter()
        .flat_map(|app| {
            PAPER_CORES
                .iter()
                .map(move |&p| CellSpec::paper(app, p, PAPER_ITERS, "cloudrefine"))
        })
        .collect()
}

/// The `[base, noLB, LB]` triple of a cell, as `evaluate_cells` builds it.
fn arms(cell: &CellSpec, seed: u64) -> [Scenario; 3] {
    let lb = Scenario {
        iterations: cell.iterations,
        seed,
        fast_forward: cell.fast_forward,
        ..Scenario::paper(&cell.app, cell.cores, &cell.strategy)
    };
    let nolb = Scenario {
        strategy: "nolb".into(),
        ..lb.clone()
    };
    [lb.base_of(), nolb, lb]
}

fn paper_job(points: Vec<EvalPoint>, wall_s: f64, stats: PipelineStats) -> Job {
    let n = points.len() as f64;
    let penalty = points.iter().map(|p| p.penalty_reduction()).sum::<f64>() / n * 100.0;
    let energy = points.iter().map(|p| p.energy_reduction()).sum::<f64>() / n * 100.0;
    Job {
        wall_s,
        units: points.len(),
        fingerprint: points.iter().map(point_digest).collect(),
        sim_events: points.iter().map(|p| p.sim_events).sum(),
        quality: Some((penalty, energy)),
        pipeline: Some(stats),
        points,
        ..Job::default()
    }
}

fn paper_untraced(pool: u64) -> Job {
    let cells = paper_cells();
    let mut points = Vec::with_capacity(cells.len());
    let t = Instant::now();
    let stats = catch_unwind(AssertUnwindSafe(|| {
        evaluate_cells_stream(&cells, &[pool + 1], JOBS, |_, p| points.push(p))
    }));
    let wall_s = t.elapsed().as_secs_f64();
    match stats {
        Ok(stats) => paper_job(points, wall_s, stats),
        Err(p) => Job {
            units: cells.len(),
            errors: vec![format!("evaluate_cells_stream panicked: {}", panic_text(p))],
            fingerprint: vec![0; cells.len()],
            ..Job::default()
        },
    }
}

/// Per-cell fold of the traced triples, in `evaluate_cells`' push order.
#[derive(Default)]
struct CellFold {
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

impl CellFold {
    fn push(&mut self, run: RunResult) {
        let (base, nolb) = match (self.base.take(), self.nolb.take()) {
            (None, _) => {
                self.base = Some(run);
                return;
            }
            (Some(base), None) => {
                self.base = Some(base);
                self.nolb = Some(run);
                return;
            }
            (Some(base), Some(nolb)) => (base, nolb),
        };
        let lb = run;
        self.penalty_nolb.push(nolb.timing_penalty_vs(&base));
        self.penalty_lb.push(lb.timing_penalty_vs(&base));
        self.bg_nolb.extend(nolb.bg_penalties.get(&0).copied());
        self.bg_lb.extend(lb.bg_penalties.get(&0).copied());
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

    fn finish(self, cell: &CellSpec) -> EvalPoint {
        EvalPoint {
            app: cell.app.clone(),
            cores: cell.cores,
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

/// `paper_matrix` rebuilt from its triples (`Scenario::paper`, `base_of`)
/// and streamed through `pipeline_stream`, so every run can be
/// instrumented and checked; the folded cells must equal the untraced
/// `EvalPoint`s bit for bit.
fn paper_traced(pool: u64, tracer: &Arc<Tracer>, root: u64) -> Job {
    let cells = paper_cells();
    let items = Workload::PaperMatrix.scenarios(pool);
    let mut points = Vec::with_capacity(cells.len());
    let mut runs = Vec::with_capacity(items.len());
    let mut errors = Vec::new();
    let mut fold = CellFold::default();
    let mut failed_cell = false;
    let t = Instant::now();
    let stats = pipeline_stream(
        &PipelineConfig::new(JOBS),
        items,
        |scn| {
            tracer.span(root, "core", "pipeline.map", |id| {
                let out = catch_unwind(AssertUnwindSafe(|| run_traced(&scn, tracer, id)));
                (scn, out.map_err(panic_text))
            })
        },
        |seq, (scn, out)| {
            tracer.span(root, "core", "pipeline.consume", |_| {
                let result = match out {
                    Ok((rec, r)) => {
                        runs.push(rec);
                        r
                    }
                    Err(p) => Err(format!("panic: {p}")),
                };
                match result {
                    Ok(r) => fold.push(r),
                    Err(e) => {
                        errors.push(format!("{}: {e}", label(&scn)));
                        failed_cell = true;
                    }
                }
                if seq % 3 == 2 {
                    let point = std::mem::take(&mut fold).finish(&cells[seq / 3]);
                    // A cell with a failed run keeps its place but can
                    // never match its recorded digest.
                    let app = if failed_cell {
                        "failed".into()
                    } else {
                        point.app.clone()
                    };
                    points.push(EvalPoint { app, ..point });
                    failed_cell = false;
                }
            })
        },
    );
    let wall_s = t.elapsed().as_secs_f64();
    Job {
        errors,
        runs,
        ..paper_job(points, wall_s, stats)
    }
}

fn swarm_range(pool: u64) -> std::ops::Range<u64> {
    pool * SWARM_SEEDS..(pool + 1) * SWARM_SEEDS
}

/// Chunk `part` of the pool entry's swarm seeds.
fn swarm_untraced(pool: u64, part: u64) -> Job {
    let n = SWARM_SEEDS / SWARM_PARTS;
    let first = swarm_range(pool).start + part * n;
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        run_swarm_stream(first, n, JOBS, &OracleOpts::default(), false)
    }));
    let wall_s = t.elapsed().as_secs_f64();
    match out {
        Ok((report, stats)) => Job {
            wall_s,
            units: n as usize,
            errors: report
                .failures()
                .iter()
                .map(|row| format!("swarm seed {}: {:?}", row.seed, row.verdict))
                .collect(),
            fingerprint: vec![
                report.completed() as u64,
                report.typed_errors() as u64,
                report.failures().len() as u64,
            ],
            pipeline: Some(stats),
            ..Job::default()
        },
        Err(p) => Job {
            units: n as usize,
            errors: vec![format!("run_swarm_stream panicked: {}", panic_text(p))],
            fingerprint: vec![0; 3],
            ..Job::default()
        },
    }
}

/// The swarm with `generate` and `check` spans per seed, then one
/// instrumented probe run per seed: `check` runs its scenarios inside the
/// oracle, out of the benchmark's reach, so the runtime, balance and apps
/// layers are measured on the probe. The probe must reproduce what the
/// oracle saw: the same makespan bits, migrations and kills, or the same
/// typed error.
fn swarm_traced(pool: u64, tracer: &Arc<Tracer>, root: u64) -> Job {
    let opts = OracleOpts::default();
    let mut verdicts: Vec<(Scenario, Verdict)> = Vec::with_capacity(SWARM_SEEDS as usize);
    let t = Instant::now();
    let stats = pipeline_stream(
        &PipelineConfig::new(JOBS),
        swarm_range(pool),
        |seed| {
            tracer.span(root, "core", "pipeline.map", |id| {
                let scn = tracer.span(id, "vopr", "generate", |_| generate(seed));
                let verdict = tracer.span(id, "vopr", "check", |_| check(&scn, &opts));
                (scn, verdict)
            })
        },
        |_, out| tracer.span(root, "core", "pipeline.consume", |_| verdicts.push(out)),
    );
    let comparable = t.elapsed().as_secs_f64();

    let mut job = Job {
        units: verdicts.len(),
        pipeline: Some(stats),
        ..Job::default()
    };
    let mut counts = [0u64; 3];
    for (scn, verdict) in &verdicts {
        match verdict {
            Ok(Outcome::Completed { .. }) => counts[0] += 1,
            Ok(Outcome::TypedError(_)) => counts[1] += 1,
            Err(f) => {
                counts[2] += 1;
                job.errors.push(format!("swarm seed {}: {f:?}", scn.seed));
                continue;
            }
        }
        let (rec, probe) = run_traced(scn, tracer, root);
        job.runs.push(rec);
        let agrees = match (verdict, probe) {
            (
                Ok(Outcome::Completed {
                    app_time_s,
                    migrations,
                    failures,
                    ..
                }),
                Ok(r),
            ) => {
                job.sim_events += r.sim_events;
                r.app_time.as_secs_f64().to_bits() == app_time_s.to_bits()
                    && r.migrations == *migrations
                    && r.failures == *failures
            }
            (Ok(Outcome::TypedError(want)), Err(got)) => got == *want,
            _ => false,
        };
        if !agrees {
            job.errors.push(format!(
                "swarm seed {}: instrumented run differs from the oracle's",
                scn.seed
            ));
        }
    }
    job.wall_s = t.elapsed().as_secs_f64();
    job.comparable_wall_s = Some(comparable);
    job.fingerprint = counts.to_vec();
    job.verdicts = Some(counts);
    job
}
