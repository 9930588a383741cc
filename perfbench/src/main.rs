//! The cloudlb benchmark (see README.md).
//!
//! ```text
//! cloudlb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cloudlb-perfbench --record <name>     # expected outputs for digests.txt
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.

mod calib;
mod layers;
mod trace;
mod workloads;

use layers::{layer_metrics, percentile, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workloads::{Job, Workload, POOL};

/// Expected outputs per workload and pool entry: `<workload> <pool> <values…>`.
const RECORDED: &str = include_str!("../digests.txt");

/// A run sets up at least `SETUP_MIN_REPS` times and for at least
/// `SETUP_MIN_S` host seconds; `setup_s` is the median calibrated pass.
const SETUP_MIN_REPS: usize = 15;
const SETUP_MIN_S: f64 = 1.0;

const USAGE: &str =
    "usage: cloudlb-perfbench --workload <paper_matrix|wide_chaos|scale_ff|vopr_swarm> \
--seed <n> --seconds <s> --trace <0|1>\n       cloudlb-perfbench --record <workload>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Record(Workload),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--record" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = |s: &str| Workload::parse(s).ok_or_else(|| format!("unknown workload {s:?}"));
    if let Some(w) = flags.get("--record") {
        return Ok(Mode::Record(workload(w)?));
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Mode::Run(Args {
        workload: workload(get("--workload")?)?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    }))
}

/// The recorded line for `(w, pool)`, if `digests.txt` has one.
fn recorded(w: Workload, pool: u64) -> Option<Vec<u64>> {
    RECORDED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()? != w.name() || fields.next()?.parse::<u64>().ok()? != pool {
            return None;
        }
        fields.map(|f| f.parse().ok()).collect()
    })
}

/// Units of `job` that failed: its own errors, or a fingerprint that
/// differs from the recorded one. With nothing recorded, every unit fails.
fn failed_units(w: Workload, job: &Job, want: Option<&[u64]>) -> usize {
    let mismatched = match want {
        None => job.units,
        Some(want) if w == Workload::VoprSwarm => {
            // A seed that moved from one verdict class to another changes
            // two counts.
            let diff: u64 = job
                .fingerprint
                .iter()
                .zip(want)
                .map(|(a, b)| a.abs_diff(*b))
                .sum();
            // The traced job's probe runs also re-count the events that
            // `sim_events_per_s` reports from the recorded line.
            let events_differ = job.verdicts.is_some() && want.get(3) != Some(&job.sim_events);
            (diff.div_ceil(2) as usize).max(usize::from(events_differ))
        }
        Some(want) => {
            job.fingerprint
                .iter()
                .zip(want)
                .filter(|(a, b)| a != b)
                .count()
                + job.fingerprint.len().abs_diff(want.len())
        }
    };
    mismatched.max(job.errors.len()).min(job.units)
}

/// Units where the traced job's outputs differ from the plain job's.
fn traced_mismatches(traced: &Job, plain: &Job) -> usize {
    if !plain.points.is_empty() {
        // Whole cells, fast-forward counters included.
        return traced
            .points
            .iter()
            .zip(&plain.points)
            .filter(|(a, b)| a != b)
            .count()
            + traced.points.len().abs_diff(plain.points.len());
    }
    let diff = traced
        .fingerprint
        .iter()
        .zip(&plain.fingerprint)
        .filter(|(a, b)| a != b)
        .count();
    diff + traced.fingerprint.len().abs_diff(plain.fingerprint.len())
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // `+ 0.0` turns -0.0 into 0.0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
}

/// Whether one more job of the median length so far ends within `seconds`.
fn fits_another(start: Instant, lengths: &[f64], seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + percentile(lengths, 0.5) <= seconds
}

fn report_errors(job: &Job) {
    for e in &job.errors {
        eprintln!("error: {e}");
    }
}

/// End-to-end pass: set up repeatedly, then repeat the plain job
/// while another one fits in `seconds`, and report calibrated times.
fn run_end_to_end(a: &Args, pool: u64, want: Option<&[u64]>) {
    let w = a.workload;
    // Host speed drifts (see calib.rs), so times are scaled by calibration
    // kernel passes timed next to them. Set-up passes are short: each is
    // scaled by the short kernel passes on either side of it.
    let short = calib::EVENTS / 10;
    let mut before = calib::kernel_secs(1, short);
    let mut setup = Vec::new();
    let setup_start = Instant::now();
    while setup.len() < SETUP_MIN_REPS || setup_start.elapsed().as_secs_f64() < SETUP_MIN_S {
        let secs = w.setup_secs(pool);
        let after = calib::kernel_secs(1, short);
        setup.push(secs * calib::REFERENCE_S / ((before + after) / 2.0));
        before = after;
    }
    let setup_s = percentile(&setup, 0.5);

    // Each part of a job is scaled by the mean of the kernel passes on
    // either side of it; the run reports the mean scaled job.
    let threads = w.threads();
    let gap = || {
        (calib::kernel_secs(threads, calib::EVENTS) + calib::kernel_secs(threads, calib::EVENTS))
            / 2.0
    };
    let mut before = gap();
    let start = Instant::now();
    let (mut raw, mut walls, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0, 0);
    let mut last = Job::default();
    while raw.is_empty() || fits_another(start, &raw, a.seconds) {
        let (mut parts, mut scaled) = (Vec::new(), 0.0);
        for k in 0..w.parts() {
            let part = w.untraced_part(pool, k);
            let after = gap();
            scaled += part.wall_s * calib::REFERENCE_S / ((before + after) / 2.0);
            before = after;
            parts.push(part);
        }
        let job = parts
            .into_iter()
            .reduce(Job::merge)
            .expect("a job has at least one part");
        report_errors(&job);
        attempted += job.units;
        failed += failed_units(w, &job, want);
        raw.push(job.wall_s);
        walls.push(scaled);
        last = job;
    }
    // The mean, not the median: jobs are few and long, and the residual
    // drift is symmetric, so the mean varies less from run to run.
    let wall_s = walls.iter().sum::<f64>() / walls.len() as f64;
    // The swarm does not report its events; its primary runs' count is
    // recorded with its outputs.
    let events = match w {
        Workload::VoprSwarm => want.and_then(|v| v.get(3)).copied().unwrap_or(0),
        _ => last.sim_events,
    };
    let rss = peak_rss_mib();
    let fail_frac = failed as f64 / attempted as f64;
    eprintln!(
        "{} pool {pool}: {} jobs, host seconds {raw:?}, calibrated {walls:?}",
        w.name(),
        raw.len()
    );
    eprintln!("  wall_s            {wall_s:.4} s");
    eprintln!("  setup_s           {setup_s:.6} s");
    eprintln!("  sim_events_per_s  {:.0} events/s", events as f64 / wall_s);
    eprintln!("  peak_rss_mb       {rss:.1} MiB");
    eprintln!("  fail_frac         {fail_frac} share ({failed}/{attempted})");
    if let Some((penalty, energy)) = last.quality {
        eprintln!("  penalty_reduction_pct {penalty} %");
        eprintln!("  energy_reduction_pct  {energy} %");
    }
    print_result(
        failed == 0,
        attempted,
        failed,
        &[
            ("wall_s", wall_s, "s"),
            ("setup_s", setup_s, "s"),
            ("sim_events_per_s", events as f64 / wall_s, "events/s"),
            ("peak_rss_mb", rss, "MiB"),
        ],
    );
}

/// Traced pass: alternate plain and traced jobs until `seconds` have
/// passed. Per-layer values are medians over the traced jobs; the spans
/// of the first traced job are written next to the executable.
fn run_traced(a: &Args, pool: u64, want: Option<&[u64]>) {
    let w = a.workload;
    let tracer = Arc::new(Tracer::new());
    let start = Instant::now();
    let (mut attempted, mut failed) = (0, 0);
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut pairs = Vec::new();
    while pairs.is_empty() || fits_another(start, &pairs, a.seconds) {
        let pair_start = Instant::now();
        let plain = w.untraced(pool);
        report_errors(&plain);
        attempted += plain.units;
        failed += failed_units(w, &plain, want);

        let job = tracer.span(0, "bench", "workload", |root| w.traced(pool, &tracer, root));
        let spans = tracer.take();
        report_errors(&job);
        let unfaithful = traced_mismatches(&job, &plain);
        if unfaithful > 0 {
            eprintln!("error: {unfaithful} traced units differ from the untraced run");
        }
        attempted += job.units;
        failed += failed_units(w, &job, want).max(unfaithful).min(job.units);

        if samples.is_empty() {
            let path = std::env::current_exe()
                .map(|exe| exe.with_file_name(format!("spans-{}-seed{}.jsonl", w.name(), a.seed)));
            match path.and_then(|p| trace::write_spans(&p, &spans).map(|_| p)) {
                Ok(p) => eprintln!("spans: {}", p.display()),
                Err(e) => eprintln!("could not write spans: {e}"),
            }
        }
        for (name, v) in layer_metrics(&job, &spans, plain.wall_s) {
            samples.entry(name).or_default().push(v);
        }
        pairs.push(pair_start.elapsed().as_secs_f64());
    }
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, percentile(&samples[name], 0.5), unit))
        .collect();
    eprintln!("{} pool {pool}: {} traced jobs", w.name(), pairs.len());
    for (name, v, unit) in &metrics {
        if *v != 0.0 {
            eprintln!("  {name:40} {v:.6} {unit}");
        }
    }
    print_result(failed == 0, attempted, failed, &metrics);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Record(w) => {
            for pool in 0..POOL {
                let line: Vec<String> = w.record(pool).iter().map(u64::to_string).collect();
                println!("{} {pool} {}", w.name(), line.join(" "));
            }
        }
        Mode::Run(a) => {
            let pool = a.seed % POOL;
            let want = recorded(a.workload, pool);
            if want.is_none() {
                eprintln!(
                    "error: digests.txt has no line for {} pool {pool}",
                    a.workload.name()
                );
            }
            if a.trace {
                run_traced(&a, pool, want.as_deref());
            } else {
                run_end_to_end(&a, pool, want.as_deref());
            }
        }
    }
    ExitCode::SUCCESS
}
