//! `cloudlb` command-line interface.
//!
//! ```text
//! cloudlb run   --app jacobi2d --cores 8 --strategy cloudrefine [--iters N] [--seed S] [--json]
//! cloudlb fig1 | fig2 | fig3 | fig4 [--fast]
//! cloudlb matrix --app mol3d [--fast] [--json]
//! ```
//!
//! `run` executes one scenario (plus its interference-free base twin and
//! one clean twin per active chaos layer) and reports the timing penalty,
//! power, energy overhead and each layer's cost; the `fig*` subcommands
//! regenerate the paper's figures; `matrix` prints both the Fig. 2 and
//! Fig. 4 tables for one application.

use cloudlb::balance::DecisionQuality;
use cloudlb::core_api::default_jobs;
use cloudlb::core_api::experiment::{impacts, run_scenario, try_run_scenario, Impact, Layer};
use cloudlb::core_api::figures;
use cloudlb::core_api::scenario::{BgPattern, FailSpec, Scenario};
use cloudlb::runtime::lbdb::WindowQuality;
use cloudlb::runtime::{ElasticStats, FastForward, RuntimeError};
use cloudlb::sim::{MembershipSpec, NetFaultSpec, NetStats, TelemetrySpec};
use cloudlb::trace::profile::{render_profile, ProfileOptions};
use cloudlb::trace::svg::{render_svg, SvgOptions};
use cloudlb::trace::timeline::{render_ascii, TimelineOptions};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(jobs) = opts.jobs {
        // The sweep engine resolves its worker count from CLOUDLB_JOBS
        // (see cloudlb_core::pipeline::default_jobs); --jobs overrides it
        // process-wide before any sweep starts.
        std::env::set_var("CLOUDLB_JOBS", jobs.to_string());
    }
    match cmd.as_str() {
        "run" => cmd_run(&opts),
        "fig1" => {
            let out = figures::fig1(20);
            println!(
                "quiet {:.2} ms, interfered {:.2} ms ({:.2}x)\n{}",
                out.quiet_iter_s * 1e3,
                out.interfered_iter_s * 1e3,
                out.interfered_iter_s / out.quiet_iter_s,
                out.timeline
            );
            ExitCode::SUCCESS
        }
        "fig2" | "fig4" | "matrix" => cmd_sweep(cmd, &opts),
        "fig3" => {
            let out = figures::fig3(60, 6);
            for (label, s) in &out.phases {
                println!("{label:<26} {:8.2} ms", s * 1e3);
            }
            println!("\n{}", out.timeline);
            ExitCode::SUCCESS
        }
        "trace" => cmd_trace(&opts),
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Resolve the scenario: either from `--scenario file.json` or from flags.
fn scenario_from(opts: &Opts) -> Result<Scenario, String> {
    if let Some(path) = &opts.scenario_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut scn: Scenario = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        scn.fail.extend(opts.fail.iter().copied());
        if opts.telemetry.is_some() {
            scn.telemetry = opts.telemetry;
        }
        if opts.net_fault.is_some() {
            scn.net_fault = opts.net_fault.clone();
        }
        if opts.membership.is_some() {
            scn.membership = opts.membership.clone();
        }
        if let Some(ff) = opts.fast_forward {
            scn.fast_forward = ff;
        }
        if let Some(bg) = opts.bg {
            scn.bg = bg;
        }
        return Ok(scn);
    }
    let mut scn = Scenario::paper(&opts.app, opts.cores, &opts.strategy);
    scn.iterations = opts.iters;
    scn.seed = opts.seeds[0];
    scn.fail.extend(opts.fail.iter().copied());
    scn.telemetry = opts.telemetry;
    scn.net_fault = opts.net_fault.clone();
    scn.membership = opts.membership.clone();
    if let Some(ff) = opts.fast_forward {
        scn.fast_forward = ff;
    }
    if let Some(bg) = opts.bg {
        scn.bg = bg;
    }
    Ok(scn)
}

fn cmd_trace(opts: &Opts) -> ExitCode {
    let mut scn = match scenario_from(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    scn.trace = true;
    let run = run_scenario(&scn);
    let trace = run.trace.expect("tracing enabled");
    println!("{}", render_ascii(&trace, &TimelineOptions { width: 110, ..Default::default() }));
    println!("{}", render_profile(&trace, &ProfileOptions::default()));
    let path = std::env::temp_dir().join("cloudlb_trace.svg");
    let svg = render_svg(
        &trace,
        &SvgOptions { title: format!("{} on {} cores", scn.app, scn.cores), ..Default::default() },
    );
    match std::fs::write(&path, svg) {
        Ok(()) => println!("SVG timeline: {}", path.display()),
        Err(e) => eprintln!("could not write SVG: {e}"),
    }
    ExitCode::SUCCESS
}

fn cmd_run(opts: &Opts) -> ExitCode {
    let scn = match scenario_from(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match RunReport::new(scn) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Under --json, stdout carries exactly one JSON document and the
    // human-readable lines go to stderr.
    if opts.json {
        eprint!("{}", report.text());
        println!("{}", serde_json_string(&report));
    } else {
        print!("{}", report.text());
    }
    ExitCode::SUCCESS
}

/// Everything `cloudlb run` reports about the one scenario it ran: text
/// mode prints it as lines, `--json` serialises it as one document.
#[derive(serde::Serialize)]
struct RunReport {
    /// The scenario that ran, after flag overrides.
    scenario: Scenario,
    /// App time of the interference-free base twin (s).
    base_s: f64,
    /// App time of the scenario (s).
    run_s: f64,
    /// Timing penalty against the base twin (fraction).
    penalty: f64,
    /// Energy overhead against the base twin (fraction).
    energy_overhead: f64,
    /// Average power per node over the run (W).
    power_per_node_w: f64,
    migrations: usize,
    ff_windows: usize,
    events_skipped: u64,
    failures: usize,
    recoveries: usize,
    replayed_iters: usize,
    recovery_time_s: f64,
    telemetry: WindowQuality,
    decisions: DecisionQuality,
    net: NetStats,
    elastic: ElasticStats,
    /// One entry per active chaos layer, priced against its clean twin.
    impacts: Vec<Impact>,
}

impl RunReport {
    /// Run the base twin, the scenario and one clean twin per active layer.
    fn new(scenario: Scenario) -> Result<RunReport, RuntimeError> {
        let base = try_run_scenario(&scenario.base_of())?;
        let run = try_run_scenario(&scenario)?;
        let impacts = impacts(&scenario, &run)?;
        Ok(RunReport {
            base_s: base.app_time.as_secs_f64(),
            run_s: run.app_time.as_secs_f64(),
            penalty: run.timing_penalty_vs(&base),
            energy_overhead: run.energy_overhead_vs(&base),
            power_per_node_w: run.energy.avg_power_per_node_w,
            migrations: run.migrations,
            ff_windows: run.ff_windows,
            events_skipped: run.events_skipped,
            failures: run.failures,
            recoveries: run.recoveries,
            replayed_iters: run.replayed_iters,
            recovery_time_s: run.recovery_time.as_secs_f64(),
            telemetry: run.telemetry,
            decisions: run.decisions,
            net: run.net,
            elastic: run.elastic,
            impacts,
            scenario,
        })
    }

    /// The human-readable report: a headline, then one line for
    /// fast-forward and one per priced layer when they apply.
    fn text(&self) -> String {
        let scn = &self.scenario;
        let mut out = format!(
            "{} on {} cores, strategy {}: base {:.3} s, interfered {:.3} s \
             (penalty {:.1} %), {} migrations, {:.1} W/node, energy overhead {:.1} %\n",
            scn.app,
            scn.cores,
            scn.strategy,
            self.base_s,
            self.run_s,
            self.penalty * 100.0,
            self.migrations,
            self.power_per_node_w,
            self.energy_overhead * 100.0,
        );
        if self.ff_windows > 0 {
            out += &format!(
                "fast-forwarded {}/{} iterations ({} windows, {} events skipped)\n",
                self.ff_windows * scn.lb_period,
                scn.iterations,
                self.ff_windows,
                self.events_skipped,
            );
        }
        for imp in &self.impacts {
            let penalty = imp.penalty * 100.0;
            let line = match imp.layer {
                Layer::Failures => format!(
                    "failures: {} core(s) lost, {} recover{}, {} iteration(s) replayed, \
                     {:.3} s recovering (failure penalty {penalty:.1} %)",
                    self.failures,
                    self.recoveries,
                    if self.recoveries == 1 { "y" } else { "ies" },
                    self.replayed_iters,
                    self.recovery_time_s,
                ),
                Layer::Telemetry => format!(
                    "telemetry: {} clamped O_p, {} stale window(s), {} task overrun(s), \
                     {} implausible idle; {} migration(s) suppressed, {} oscillation(s) damped, \
                     {} outlier(s) rejected; noise penalty {penalty:.1} %",
                    self.telemetry.clamped_op,
                    self.telemetry.missing_samples,
                    self.telemetry.task_overrun,
                    self.telemetry.implausible_idle,
                    self.decisions.suppressed,
                    self.decisions.oscillations,
                    self.decisions.outliers_rejected,
                ),
                Layer::Network => format!(
                    "network: {} cop(ies) lost, {} ghost retransmit(s), {} duplicate(s) dropped, \
                     {} migration retr(ies), {} abort(s), {:.3} s partitioned \
                     (network penalty {penalty:.1} %)",
                    self.net.lost_copies,
                    self.net.retransmits,
                    self.net.duplicates_dropped,
                    self.net.migration_retries,
                    self.net.migration_aborts,
                    self.net.partition_us as f64 / 1e6,
                ),
                Layer::Membership => {
                    let e = &self.elastic;
                    format!(
                        "membership: {} notice(s), {} node(s) revoked, {} acquired ({} warmed up); \
                         {}/{} evacuation(s) completed, {} chare(s) drained, {} rescued, \
                         {} rolled back; penalty {penalty:.1} % ({:.1} % capacity-adjusted \
                         at {:.0} % avg capacity)",
                        e.notices,
                        e.nodes_revoked,
                        e.acquisitions,
                        e.warmups,
                        e.evacuations_completed,
                        e.evacuations_attempted,
                        e.chares_drained,
                        e.chares_rescued,
                        e.chares_rolled_back,
                        imp.capacity_adjusted.expect("membership is capacity-adjusted") * 100.0,
                        scn.capacity_avg_frac() * 100.0,
                    )
                }
            };
            out += &line;
            out.push('\n');
        }
        out
    }
}

/// `fig2`, `fig4` and `matrix`: stream the matrix through the pipeline,
/// building table rows as cells finish. `--json` prints the points
/// instead of the tables; `--stream-summary` adds the summary footer,
/// which goes to stderr under `--json`.
fn cmd_sweep(cmd: &str, opts: &Opts) -> ExitCode {
    let mut t2 = (cmd != "fig4").then(|| figures::fig2_table(&[]));
    let mut t4 = (cmd != "fig2").then(|| figures::fig4_table(&[]));
    let mut points = Vec::new();
    let (summary, stats) = figures::eval_matrix_stream(
        &opts.app,
        &opts.cores_list(),
        opts.iters,
        &opts.seeds,
        default_jobs(),
        |p| {
            if opts.json {
                points.push(p.clone());
            }
            if let Some(t) = &mut t2 {
                figures::fig2_row(t, p);
            }
            if let Some(t) = &mut t4 {
                figures::fig4_row(t, p);
            }
        },
    );
    if opts.json {
        println!("{}", serde_json_string(&points));
    } else if let (Some(t2), Some(t4)) = (&t2, &t4) {
        println!("Fig. 2 ({})", opts.app);
        print!("{}", t2.markdown());
        println!("\nFig. 4 ({})", opts.app);
        print!("{}", t4.markdown());
    } else if let Some(t) = t2.or(t4) {
        print!("{}", t.markdown());
    }
    if opts.stream_summary {
        let footer = stream_summary(&summary, &stats);
        if opts.json {
            eprint!("{footer}");
        } else {
            print!("{footer}");
        }
    }
    ExitCode::SUCCESS
}

fn serde_json_string<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable")
}

/// Footer for `--stream-summary` runs: the online metric summaries plus
/// the pipeline's own counters.
fn stream_summary(
    summary: &figures::MatrixSummary,
    stats: &cloudlb::core_api::PipelineStats,
) -> String {
    format!(
        "\nstreaming summary\n{}pipeline: {:.1} cells-arms/s, utilization {:.2}, reorder peak {}, \
         live peak {} (bound {})\n",
        summary.render(),
        stats.packets_per_sec,
        stats.utilization,
        stats.reorder_peak,
        stats.live_peak,
        stats.window,
    )
}

const USAGE: &str = "usage:
  cloudlb run    --app <name> --cores <n> [--strategy <s>] [--iters <n>] [--seed <s>]
                 [--fail <spec>[,<spec>...]] [--telemetry-noise <spec>]
                 [--net-fault <spec>] [--membership <spec>]
                 [--fast-forward on|off|auto]
                 [--bg paper|none|twocore:<frac>] [--json]
  cloudlb run    --scenario <file.json> [--fail <spec>[,<spec>...]] [--json]
  cloudlb trace  --app <name> --cores <n> [--strategy <s>] [--iters <n>]
  cloudlb fig1 | fig3
  cloudlb fig2 | fig4 [--app <name>] [--fast] [--json] [--jobs <n>] [--stream-summary]
  cloudlb matrix --app <name> [--fast] [--json] [--jobs <n>] [--stream-summary]

--jobs <n> (or CLOUDLB_JOBS=<n>) spreads the sweep's independent runs over
n worker threads; results are bit-identical to --jobs 1. Defaults to the
machine's available parallelism.

Sweeps stream through a pipeline: cells are consumed as they finish (peak
live runs is O(jobs + reorder window), not O(cells×seeds)).
--stream-summary prints an online count/mean/min/max/quantile summary per
metric after the tables, plus the pipeline's throughput, utilization and
high-water marks (to stderr under --json).

run --json prints one JSON document: the scenario that ran, base and run
times, penalty, energy overhead, power, the run's counters and one impact
per active chaos layer; the text report goes to stderr.

--fast-forward on|off|auto controls the steady-state macro-stepper: clean
LB windows are replayed analytically instead of event by event, with
bit-identical results. 'auto' (default) disables it only while tracing,
where coalescing would blur the timeline.

--bg overrides the interference pattern: 'paper' (default: the paper's
2-core background job, sized to outlive the run), 'none' (clean machine),
or twocore:<frac> (same job with its CPU demand scaled to <frac> of the
base run, so it drains mid-run).

apps: jacobi2d wave2d mol3d stencil3d
strategies: nolb greedy greedybg refine cloudrefine commrefine
  hiercloudrefine gatedcloudrefine hysteresiscloudrefine robustcloudrefine
fail specs: kind:index@when[~restore], e.g. core:2@0.5 kills core 2 halfway
  through the estimated run; node:1@0.3~0.8 takes node 1 down over that window
telemetry noise: 'noisy_cloud', 'none', or a comma list of
  jitter:<frac> skew:<frac> drop:<frac> steal:<frac> wrap:<us>, e.g.
  --telemetry-noise jitter:0.1,drop:0.2 (pair with --strategy robustcloudrefine)
net faults: 'flaky_cloud', 'none', or a comma list of
  loss:<frac> dup:<frac> reorder:<frac> jitter:<frac> collapse:<frac>
  slowdown:<x> rack:<from>~<to> part:<a>-<b>@<from>~<to>, e.g.
  --net-fault loss:0.02,rack:0.4~0.5 (times are fractions of the estimated
  run; migrations ride a retry/abort protocol and aborted moves re-plan)
membership: 'spot_storm', 'autoscale', 'none', or a comma list of
  notice:<node>@<at>+<lead> acquire:<at> warmup:<frac> warmup_jitter:<frac>,
  e.g. --membership notice:1@0.4+0.25,acquire:0.3 — node 1 gets a spot
  preemption notice at 40 % of the estimated run and is hard-revoked 25 %
  later; a fresh 4-core node attaches at 30 %. On a notice the runtime
  proactively drains the node's chares before the revocation deadline;
  acquired nodes warm up, then take migrations";

/// Hand-rolled flag parsing (no CLI dependency).
struct Opts {
    app: String,
    cores: usize,
    strategy: String,
    iters: usize,
    seeds: Vec<u64>,
    json: bool,
    fast: bool,
    scenario_file: Option<String>,
    fail: Vec<FailSpec>,
    telemetry: Option<TelemetrySpec>,
    net_fault: Option<NetFaultSpec>,
    membership: Option<MembershipSpec>,
    jobs: Option<usize>,
    fast_forward: Option<FastForward>,
    bg: Option<BgPattern>,
    stream_summary: bool,
}

/// Parse a `--bg` value: `paper` (keep the scenario's own pattern),
/// `none`, or `twocore:<demand_frac>`.
fn parse_bg(spec: &str) -> Result<Option<BgPattern>, String> {
    match spec.to_ascii_lowercase().as_str() {
        "paper" => Ok(None),
        "none" => Ok(Some(BgPattern::None)),
        s => {
            let frac = s
                .strip_prefix("twocore:")
                .ok_or_else(|| format!("expected paper, none or twocore:<frac>, got {spec:?}"))?
                .parse::<f64>()
                .map_err(|e| format!("twocore demand fraction: {e}"))?;
            if !(frac > 0.0 && frac.is_finite()) {
                return Err("twocore demand fraction must be positive".into());
            }
            Ok(Some(BgPattern::TwoCore { demand_frac: frac }))
        }
    }
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            app: "jacobi2d".into(),
            cores: 8,
            strategy: "cloudrefine".into(),
            iters: 100,
            seeds: vec![1],
            json: false,
            fast: false,
            scenario_file: None,
            fail: Vec::new(),
            telemetry: None,
            net_fault: None,
            membership: None,
            jobs: None,
            fast_forward: None,
            bg: None,
            stream_summary: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().cloned().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--app" => o.app = value("--app")?,
                "--cores" => {
                    o.cores = value("--cores")?.parse().map_err(|e| format!("--cores: {e}"))?
                }
                "--strategy" => o.strategy = value("--strategy")?,
                "--iters" => {
                    o.iters = value("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?
                }
                "--seed" => {
                    o.seeds = vec![value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?]
                }
                "--json" => o.json = true,
                "--fast" => o.fast = true,
                "--stream-summary" => o.stream_summary = true,
                "--jobs" => {
                    let jobs: usize =
                        value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                    if jobs == 0 {
                        return Err("--jobs must be >= 1".into());
                    }
                    o.jobs = Some(jobs);
                }
                "--fast-forward" => {
                    o.fast_forward = Some(
                        FastForward::parse(&value("--fast-forward")?)
                            .map_err(|e| format!("--fast-forward: {e}"))?,
                    );
                }
                "--bg" => {
                    o.bg = parse_bg(&value("--bg")?).map_err(|e| format!("--bg: {e}"))?;
                }
                "--scenario" => o.scenario_file = Some(value("--scenario")?),
                "--fail" => {
                    for spec in value("--fail")?.split(',') {
                        o.fail.push(
                            FailSpec::parse(spec).map_err(|e| format!("--fail: {e}"))?,
                        );
                    }
                }
                "--telemetry-noise" => {
                    let spec = TelemetrySpec::parse(&value("--telemetry-noise")?)
                        .map_err(|e| format!("--telemetry-noise: {e}"))?;
                    o.telemetry = spec.is_active().then_some(spec);
                }
                "--net-fault" => {
                    let spec = NetFaultSpec::parse(&value("--net-fault")?)
                        .map_err(|e| format!("--net-fault: {e}"))?;
                    o.net_fault = spec.is_active().then_some(spec);
                }
                "--membership" => {
                    let raw = value("--membership")?;
                    if raw == "none" {
                        o.membership = None;
                    } else {
                        let spec = MembershipSpec::parse(&raw)
                            .map_err(|e| format!("--membership: {e}"))?;
                        o.membership = spec.is_active().then_some(spec);
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if o.cores == 0 || !o.cores.is_multiple_of(4) {
            return Err("--cores must be a positive multiple of 4 (4-core nodes)".into());
        }
        if o.iters == 0 {
            return Err("--iters must be positive".into());
        }
        Ok(o)
    }

    fn cores_list(&self) -> Vec<usize> {
        if self.fast {
            vec![4, 8]
        } else {
            vec![4, 8, 16, 32]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.app, "jacobi2d");
        assert_eq!(o.cores, 8);
        assert!(!o.json);
        assert_eq!(o.cores_list(), vec![4, 8, 16, 32]);
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "--app", "mol3d", "--cores", "16", "--strategy", "commrefine", "--iters", "50",
            "--seed", "9", "--json", "--fast",
        ])
        .unwrap();
        assert_eq!(o.app, "mol3d");
        assert_eq!(o.cores, 16);
        assert_eq!(o.strategy, "commrefine");
        assert_eq!(o.iters, 50);
        assert_eq!(o.seeds, vec![9]);
        assert!(o.json && o.fast);
        assert_eq!(o.cores_list(), vec![4, 8]);
    }

    #[test]
    fn rejections() {
        assert!(parse(&["--cores", "6"]).is_err());
        assert!(parse(&["--cores"]).is_err());
        assert!(parse(&["--iters", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--fail", "core:2"]).is_err());
        assert!(parse(&["--fail", "disk:0@0.5"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "four"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
    }

    #[test]
    fn jobs_flag_parses() {
        assert_eq!(parse(&[]).unwrap().jobs, None);
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, Some(4));
    }

    #[test]
    fn stream_summary_flag_parses() {
        assert!(!parse(&[]).unwrap().stream_summary);
        assert!(parse(&["--stream-summary"]).unwrap().stream_summary);
    }

    #[test]
    fn fast_forward_flag_parses() {
        assert_eq!(parse(&[]).unwrap().fast_forward, None);
        assert_eq!(parse(&["--fast-forward", "on"]).unwrap().fast_forward, Some(FastForward::On));
        assert_eq!(
            parse(&["--fast-forward", "off"]).unwrap().fast_forward,
            Some(FastForward::Off)
        );
        assert_eq!(
            parse(&["--fast-forward", "auto"]).unwrap().fast_forward,
            Some(FastForward::Auto)
        );
        assert!(parse(&["--fast-forward", "warp"]).is_err());
        assert!(parse(&["--fast-forward"]).is_err());
    }

    #[test]
    fn bg_flag_parses() {
        assert_eq!(parse(&[]).unwrap().bg, None);
        assert_eq!(parse(&["--bg", "paper"]).unwrap().bg, None);
        assert_eq!(parse(&["--bg", "none"]).unwrap().bg, Some(BgPattern::None));
        assert_eq!(
            parse(&["--bg", "twocore:0.25"]).unwrap().bg,
            Some(BgPattern::TwoCore { demand_frac: 0.25 })
        );
        assert!(parse(&["--bg", "threecore"]).is_err());
        assert!(parse(&["--bg", "twocore:-1"]).is_err());
        assert!(parse(&["--bg"]).is_err());
    }

    #[test]
    fn telemetry_noise_flag_parses_presets_and_custom_specs() {
        let o = parse(&["--telemetry-noise", "noisy_cloud"]).unwrap();
        let spec = o.telemetry.expect("preset is active");
        assert!(spec.is_active());
        assert!(spec.drop > 0.0 && spec.steal > 0.0);

        let o = parse(&["--telemetry-noise", "jitter:0.1,drop:0.2"]).unwrap();
        let spec = o.telemetry.unwrap();
        assert!((spec.jitter - 0.1).abs() < 1e-12);
        assert!((spec.drop - 0.2).abs() < 1e-12);

        // An inactive spec is treated as "no telemetry corruption".
        assert!(parse(&["--telemetry-noise", "none"]).unwrap().telemetry.is_none());
        assert!(parse(&["--telemetry-noise", "bogus:1"]).is_err());
        assert!(parse(&["--telemetry-noise"]).is_err());
    }

    #[test]
    fn net_fault_flag_parses_presets_and_custom_specs() {
        let o = parse(&["--net-fault", "flaky_cloud"]).unwrap();
        let spec = o.net_fault.expect("preset is active");
        assert!(spec.is_active());
        assert!(spec.loss > 0.0 && !spec.partitions.is_empty());

        let o = parse(&["--net-fault", "loss:0.05,rack:0.4~0.5"]).unwrap();
        let spec = o.net_fault.unwrap();
        assert!((spec.loss - 0.05).abs() < 1e-12);
        assert_eq!(spec.partitions.len(), 1);

        // An inactive spec is treated as "no network chaos".
        assert!(parse(&["--net-fault", "none"]).unwrap().net_fault.is_none());
        assert!(parse(&["--net-fault", "bogus:1"]).is_err());
        assert!(parse(&["--net-fault"]).is_err());
    }

    #[test]
    fn membership_flag_parses_presets_and_custom_specs() {
        let o = parse(&["--membership", "spot_storm"]).unwrap();
        let spec = o.membership.expect("preset is active");
        assert!(spec.is_active());
        assert_eq!(spec.notices.len(), 2);
        assert_eq!(spec.acquisitions.len(), 1);

        let o = parse(&["--membership", "notice:1@0.4+0.25,acquire:0.3"]).unwrap();
        let spec = o.membership.unwrap();
        assert_eq!(spec.notices.len(), 1);
        assert_eq!(spec.notices[0].node, 1);
        assert_eq!(spec.acquisitions.len(), 1);

        // An inactive spec is treated as "static membership".
        assert!(parse(&["--membership", "none"]).unwrap().membership.is_none());
        assert!(parse(&["--membership", "warmup:0.05"]).unwrap().membership.is_none());
        assert!(parse(&["--membership", "bogus:1"]).is_err());
        assert!(parse(&["--membership", "notice:1@0.4"]).is_err());
        assert!(parse(&["--membership"]).is_err());
    }

    #[test]
    fn fail_specs_parse_as_a_comma_list() {
        let o = parse(&["--fail", "core:2@0.5,node:1@0.3~0.8"]).unwrap();
        assert_eq!(o.fail.len(), 2);
        assert!(!o.fail[0].node);
        assert_eq!(o.fail[0].index, 2);
        assert!(o.fail[1].node);
        assert_eq!(o.fail[1].restore_frac, Some(0.8));
    }
}
