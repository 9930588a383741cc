//! `cloudlb-vopr` command-line interface.
//!
//! ```text
//! cloudlb-vopr --seed S            [--out DIR] [--inject-break faults] [--json]
//! cloudlb-vopr --swarm N [--seed-base S] [--jobs J] [--out DIR] [--inject-break faults]
//! cloudlb-vopr --repro FILE        [--inject-break faults] [--json]
//! ```
//!
//! `--seed` fuzzes one seed: generate the scenario, run the oracle
//! battery, and on failure shrink to a minimal repro and write a JSON
//! bundle with the exact replay line. `--swarm` fans a contiguous seed
//! range across the deterministic parallel pool and prints a summary
//! table (bit-identical across reruns and worker counts). `--repro`
//! replays a previously written bundle.

use cloudlb_vopr::oracle::{check, InjectBreak, OracleOpts, Outcome};
use cloudlb_vopr::repro::{cli_line, ReproBundle};
use cloudlb_vopr::swarm::{kind_name, run_swarm_stream};
use cloudlb_vopr::{generate, shrink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  cloudlb-vopr --seed S            [--out DIR] [--inject-break faults] [--json]
  cloudlb-vopr --swarm N [--seed-base S] [--jobs J] [--out DIR] [--inject-break faults]
  cloudlb-vopr --repro FILE        [--inject-break faults] [--json]";

struct Opts {
    seed: Option<u64>,
    swarm: Option<u64>,
    seed_base: u64,
    jobs: Option<usize>,
    out: PathBuf,
    repro: Option<PathBuf>,
    inject: Option<InjectBreak>,
    json: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            seed: None,
            swarm: None,
            seed_base: 1,
            jobs: None,
            out: PathBuf::from("."),
            repro: None,
            inject: None,
            json: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--seed" => o.seed = Some(parse_num(&value()?, flag)?),
                "--swarm" => o.swarm = Some(parse_num(&value()?, flag)?),
                "--seed-base" => o.seed_base = parse_num(&value()?, flag)?,
                "--jobs" => o.jobs = Some(parse_num::<usize>(&value()?, flag)?),
                "--out" => o.out = PathBuf::from(value()?),
                "--repro" => o.repro = Some(PathBuf::from(value()?)),
                "--inject-break" => o.inject = Some(InjectBreak::parse(&value()?)?),
                "--json" => o.json = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let modes =
            o.seed.is_some() as u8 + o.swarm.is_some() as u8 + o.repro.is_some() as u8;
        if modes != 1 {
            return Err("pick exactly one of --seed, --swarm, --repro".to_string());
        }
        if let Some(n) = o.swarm {
            if n == 0 {
                return Err("--swarm needs at least one seed".to_string());
            }
        }
        Ok(o)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad number {s:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(jobs) = opts.jobs {
        // The sweep engine resolves its worker count from CLOUDLB_JOBS
        // (see cloudlb_core::pipeline::default_jobs).
        std::env::set_var("CLOUDLB_JOBS", jobs.to_string());
    }
    let oracle_opts = OracleOpts { inject: opts.inject };
    if let Some(n) = opts.swarm {
        cmd_swarm(&opts, n, &oracle_opts)
    } else if let Some(seed) = opts.seed {
        cmd_seed(&opts, seed, &oracle_opts)
    } else {
        cmd_repro(&opts, opts.repro.as_ref().expect("mode checked"), &oracle_opts)
    }
}

/// Shrink a failing seed's scenario and write its repro bundle.
fn emit_repro(
    opts: &Opts,
    seed: u64,
    kind: cloudlb_vopr::FailureKind,
    oracle_opts: &OracleOpts,
) -> Result<(ReproBundle, PathBuf), String> {
    let shrunk = shrink(&generate(seed), kind, oracle_opts);
    let path = opts.out.join(cloudlb_vopr::repro::file_name(seed));
    let mut bundle = ReproBundle {
        seed,
        scenario: shrunk.scenario,
        failure: shrunk.failure,
        shrink_steps: shrunk.steps,
        inject: opts.inject,
        cli: cli_line(&path, opts.inject),
    };
    let written = bundle
        .write_to(&opts.out)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    bundle.cli = cli_line(&written, opts.inject);
    Ok((bundle, written))
}

fn cmd_swarm(opts: &Opts, n: u64, oracle_opts: &OracleOpts) -> ExitCode {
    let jobs = opts.jobs.unwrap_or_else(cloudlb_core::default_jobs);
    // Seeds stream through the pipeline and fold as they finish — only
    // failing rows stay resident. Progress goes to stderr (stdout is
    // diffed across worker counts in CI and must stay bit-identical).
    let (report, stats) = run_swarm_stream(opts.seed_base, n, jobs, oracle_opts, true);
    eprintln!(
        "swarm pipeline: {:.1} seeds/s, utilization {:.2}, live peak {} (bound {})",
        stats.packets_per_sec, stats.utilization, stats.live_peak, stats.window,
    );
    print!("{}", report.summary_table());
    let mut code = ExitCode::SUCCESS;
    for row in report.failures() {
        code = ExitCode::FAILURE;
        match emit_repro(opts, row.seed, row.verdict.as_ref().unwrap_err().kind, oracle_opts)
        {
            Ok((bundle, path)) => {
                println!("  repro: {} → replay: {}", path.display(), bundle.cli);
            }
            Err(e) => eprintln!("  seed {}: {e}", row.seed),
        }
    }
    code
}

fn cmd_seed(opts: &Opts, seed: u64, oracle_opts: &OracleOpts) -> ExitCode {
    let scn = generate(seed);
    match check(&scn, oracle_opts) {
        Ok(outcome) => {
            print_outcome(seed, &scn, &outcome, opts.json);
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!(
                "seed {seed}: ORACLE FAILURE [{}] {}",
                kind_name(failure.kind),
                failure.detail
            );
            match emit_repro(opts, seed, failure.kind, oracle_opts) {
                Ok((bundle, path)) => {
                    println!(
                        "  shrunk in {} steps to {} fault entr{}; repro: {}",
                        bundle.shrink_steps,
                        bundle.scenario.fail.len(),
                        if bundle.scenario.fail.len() == 1 { "y" } else { "ies" },
                        path.display()
                    );
                    println!("  replay: {}", bundle.cli);
                }
                Err(e) => eprintln!("  {e}"),
            }
            ExitCode::FAILURE
        }
    }
}

fn cmd_repro(opts: &Opts, path: &Path, oracle_opts: &OracleOpts) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let bundle = match ReproBundle::from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The CLI hook wins; otherwise replay with the hook the bundle recorded.
    let effective = OracleOpts { inject: oracle_opts.inject.or(bundle.inject) };
    match check(&bundle.scenario, &effective) {
        Err(failure) => {
            let same = failure.kind == bundle.failure.kind;
            println!(
                "seed {}: reproduced [{}] {}{}",
                bundle.seed,
                kind_name(failure.kind),
                failure.detail,
                if same { "" } else { " (kind differs from the bundle!)" }
            );
            ExitCode::FAILURE
        }
        Ok(outcome) => {
            println!(
                "seed {}: bundle no longer fails (recorded [{}])",
                bundle.seed,
                kind_name(bundle.failure.kind)
            );
            print_outcome(bundle.seed, &bundle.scenario, &outcome, opts.json);
            ExitCode::SUCCESS
        }
    }
}

fn print_outcome(seed: u64, scn: &cloudlb_core::Scenario, outcome: &Outcome, json: bool) {
    if json {
        println!(
            "{{\"seed\":{seed},\"outcome\":{}}}",
            serde_json::to_string(outcome).expect("outcomes serialize")
        );
        return;
    }
    match outcome {
        Outcome::Completed { app_time_s, clean_ratio, migrations, failures } => println!(
            "seed {seed}: ok — {} on {} cores, {}, {} iters: {:.3}s ({:.2}x clean), \
             {} migrations, {} failures",
            scn.app, scn.cores, scn.strategy, scn.iterations, app_time_s, clean_ratio,
            migrations, failures
        ),
        Outcome::TypedError(e) => {
            println!("seed {seed}: ok — typed error termination: {e}")
        }
    }
}
