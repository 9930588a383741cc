//! Correctness oracles.
//!
//! A scenario passes when every invariant holds:
//!
//! * **No panics** — the runtime must terminate normally or with a typed
//!   [`RuntimeError`]; any unwind is a bug.
//! * **Determinism** — a second run from the same seed must agree with
//!   the first. When the scenario may fast-forward, that second run is
//!   the fast-forward-off twin below, compared modulo the skip counters,
//!   or for a typed error on the exact error. Otherwise (fast-forward
//!   off), and on one completed seed in eight so that the skip counters
//!   stay under the check too, a same-mode rerun must be bit-identical
//!   ([`RunResult`]'s full `PartialEq`), including the exact same typed
//!   error when the run fails.
//! * **Completion** — a normally-terminating run must have executed every
//!   iteration.
//! * **Chare conservation** — every chare mapped to exactly one in-range
//!   core at the end, and never to a core lost permanently to a failure
//!   (the runtime re-validates committed plans against the live mapping,
//!   so a stranded chare here means a plan referenced a dead PE).
//! * **Fast-forward equivalence** — when the scenario allows
//!   macro-stepping, rerunning with `--fast-forward off` must produce the
//!   same result modulo the two skip counters ([`RunResult::scrub_ff`]),
//!   or the same typed error.
//!   Only a mismatch costs more runs: a same-mode rerun and a second off
//!   run must each agree with their first, or the mismatch is
//!   nondeterminism rather than a divergence.
//! * **Bounded makespan** — the run must finish within a generous factor
//!   of its clean twin (same topology and length, no chaos); the bound
//!   scales with lost capacity and interference weight so it only trips
//!   on genuine runaways (e.g. migration thrash livelock).
//!
//! When several invariants break, the first in this list is reported; a
//! panic of the off twin ranks with fast-forward equivalence.
//! A seed that fast-forwards and passes costs three simulations: the run,
//! its off twin and the clean twin; one that ends in a typed error costs
//! two, the run and its off twin.

use cloudlb_core::{try_run_scenario, Scenario};
use cloudlb_runtime::{FastForward, RunResult, RuntimeError};
use serde::{Deserialize, Serialize};

/// Test hook: deliberately break an invariant so the oracle→shrink→repro
/// pipeline can be exercised end to end (the acceptance drill).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectBreak {
    /// Report a (fake) conservation violation whenever the scenario
    /// schedules any failure — shrinks to a single fault-script entry.
    Faults,
}

impl InjectBreak {
    /// Parse the CLI value (`faults`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "faults" => Ok(InjectBreak::Faults),
            _ => Err(format!("unknown break {s:?} (expected: faults)")),
        }
    }
}

/// Oracle configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleOpts {
    /// Deliberate invariant break (test hook).
    pub inject: Option<InjectBreak>,
}

/// What kind of invariant broke (the shrinker preserves this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The runtime unwound instead of returning a typed error.
    Panic,
    /// Two runs from the same seed disagreed.
    Nondeterminism,
    /// A normally-terminating run skipped iterations.
    Incomplete,
    /// A chare was lost, duplicated or mapped out of range.
    Conservation,
    /// A chare ended on a core permanently lost to a failure.
    DeadPe,
    /// Fast-forwarded and event-by-event runs disagreed.
    FastForwardDivergence,
    /// The clean reference twin itself failed to run.
    CleanTwinError,
    /// The run blew past the generous makespan bound vs its clean twin.
    MakespanBlowup,
    /// The [`InjectBreak`] test hook fired.
    InjectedBreak,
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleFailure {
    /// Which invariant broke.
    pub kind: FailureKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl OracleFailure {
    fn new(kind: FailureKind, detail: impl Into<String>) -> Self {
        OracleFailure { kind, detail: detail.into() }
    }
}

/// How a passing scenario terminated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Ran to completion with every oracle green.
    Completed {
        /// Application wall time, seconds.
        app_time_s: f64,
        /// Makespan relative to the clean twin.
        clean_ratio: f64,
        /// Migrations committed.
        migrations: usize,
        /// Kill events applied.
        failures: usize,
    },
    /// Terminated with a typed error — acceptable (and deterministic).
    TypedError(String),
}

/// A scenario's oracle verdict.
pub type Verdict = Result<Outcome, OracleFailure>;

/// Cores permanently lost to the scenario's failure schedule (restored
/// outages do not count).
pub fn dead_cores(s: &Scenario) -> Vec<usize> {
    let mut dead = Vec::new();
    for spec in &s.fail {
        if spec.restore_frac.is_some() {
            continue;
        }
        if spec.node {
            dead.extend(4 * spec.index..4 * spec.index + 4);
        } else {
            dead.push(spec.index);
        }
    }
    dead.sort_unstable();
    dead.dedup();
    dead
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One completed seed in this many keeps the full same-mode rerun even
/// when the fast-forward-off twin already reruns its physics. The twin
/// comparison scrubs the skip counters, so this sample keeps them under a
/// determinism check.
const FULL_RERUN_EVERY: u64 = 8;

/// Run every oracle against `scn`.
pub fn check(scn: &Scenario, opts: &OracleOpts) -> Verdict {
    check_with(scn, opts, try_run_scenario)
}

/// [`check`] over any runner, so the classification can be tested with
/// scripted results.
fn check_with(
    scn: &Scenario,
    opts: &OracleOpts,
    mut run_scenario: impl FnMut(&Scenario) -> Result<RunResult, RuntimeError>,
) -> Verdict {
    if opts.inject == Some(InjectBreak::Faults) && !scn.fail.is_empty() {
        return Err(OracleFailure::new(
            FailureKind::InjectedBreak,
            format!("injected break: scenario schedules {} failure(s)", scn.fail.len()),
        ));
    }

    let mut run = |s: &Scenario| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_scenario(s)))
            .map_err(panic_detail)
    };
    let panicked = |what: &'static str| {
        move |p: String| OracleFailure::new(FailureKind::Panic, format!("{what}: {p}"))
    };
    let rerun_diverged = || {
        OracleFailure::new(
            FailureKind::Nondeterminism,
            "rerun from the same seed diverged from the first run",
        )
    };

    let first = run(scn).map_err(panicked("first run"))?;
    // A run that may fast-forward gets a fast-forward-off twin, which
    // reruns the same physics and so doubles as the determinism rerun,
    // typed errors included. The full same-mode rerun stays where there is
    // no twin and on a sample of the completed seeds.
    let twinned = scn.fast_forward != FastForward::Off;
    let reran = !twinned || (first.is_ok() && scn.seed.is_multiple_of(FULL_RERUN_EVERY));
    if reran && run(scn).map_err(panicked("rerun"))? != first {
        return Err(rerun_diverged());
    }
    let first = first.map(RunResult::scrub_ff);

    // Fast-forward differential: macro-stepping may only change the skip
    // counters, never the physics. A divergence is reported only after
    // the completion and conservation checks pass.
    let mut divergence = None;
    if twinned {
        let off = Scenario { fast_forward: FastForward::Off, ..scn.clone() };
        let twin = run(&off).map(|r| r.map(RunResult::scrub_ff));
        if twin.as_ref() != Ok(&first) {
            // Only a mismatch pays for more runs: the same-mode pair and a
            // second off pair must each agree before the twin's
            // disagreement counts as a divergence.
            if !reran && run(scn).map_err(panicked("rerun"))?.map(RunResult::scrub_ff) != first {
                return Err(rerun_diverged());
            }
            if run(&off).map(|r| r.map(RunResult::scrub_ff)) != twin {
                return Err(OracleFailure::new(
                    FailureKind::Nondeterminism,
                    "two ff-off runs from the same seed diverged",
                ));
            }
            let diverged = |detail: String| {
                OracleFailure::new(FailureKind::FastForwardDivergence, detail)
            };
            divergence = Some(match (twin, &first) {
                (Err(p), _) => panicked("ff-off twin")(p),
                (Ok(Err(e)), Ok(_)) => {
                    diverged(format!("ff-off twin errored where the original completed: {e}"))
                }
                (Ok(Ok(_)), Err(e)) => {
                    diverged(format!("ff-off twin completed where the original errored: {e}"))
                }
                (Ok(Err(e)), Err(_)) => {
                    diverged(format!("ff-off twin errored differently from the original: {e}"))
                }
                (Ok(Ok(_)), Ok(_)) => {
                    diverged("fast-forwarded run differs from the event-by-event run".into())
                }
            });
        }
    }

    let result = match first {
        Err(e) => return divergence.map_or_else(|| Ok(Outcome::TypedError(e.to_string())), Err),
        Ok(r) => r,
    };

    if result.iter_times.len() != scn.iterations {
        return Err(OracleFailure::new(
            FailureKind::Incomplete,
            format!("{} of {} iterations ran", result.iter_times.len(), scn.iterations),
        ));
    }

    let chares = scn.build_app().num_chares();
    let dead = dead_cores(scn);
    // Membership growth widens the legal core range; revoked nodes are NOT
    // in the static dead set because a late notice's revocation can fall
    // past the end of the run, where ending on the node is legitimate.
    if let Err(detail) = result.check_conservation(chares, scn.total_cores(), &dead) {
        let kind = if detail.contains("dead core") {
            FailureKind::DeadPe
        } else {
            FailureKind::Conservation
        };
        return Err(OracleFailure::new(kind, detail));
    }

    if let Some(f) = divergence {
        return Err(f);
    }

    // Makespan bound vs the clean twin (no chaos, noLB, same shape).
    let clean = run(&scn.base_of())
        .map_err(|p| OracleFailure::new(FailureKind::CleanTwinError, format!("panic: {p}")))?
        .map_err(|e| OracleFailure::new(FailureKind::CleanTwinError, e.to_string()))?;
    let clean_s = clean.app_time.as_secs_f64();
    let app_time_s = result.app_time.as_secs_f64();
    let clean_ratio = if clean_s > 0.0 { app_time_s / clean_s } else { f64::INFINITY };
    // Capacity scaling: the static lost-core ratio, or the time-integrated
    // capacity fraction when the scenario schedules membership churn or
    // restored outages — whichever is more generous, so the elastic bound
    // never tightens the static one.
    let alive = scn.cores.saturating_sub(dead.len()).max(1) as f64;
    let capacity_scale = (scn.cores as f64 / alive).max(1.0 / scn.capacity_avg_frac());
    let allowed = 25.0 * capacity_scale * (1.0 + scn.bg_weight);
    if clean_ratio > allowed {
        return Err(OracleFailure::new(
            FailureKind::MakespanBlowup,
            format!("{clean_ratio:.1}x the clean twin (bound {allowed:.1}x)"),
        ));
    }

    Ok(Outcome::Completed {
        app_time_s,
        clean_ratio,
        migrations: result.migrations,
        failures: result.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn dead_core_accounting() {
        let mut s = Scenario::paper("jacobi2d", 8, "cloudrefine");
        s.fail = vec![
            cloudlb_core::FailSpec { node: false, index: 5, at_frac: 0.3, restore_frac: None },
            cloudlb_core::FailSpec {
                node: false,
                index: 2,
                at_frac: 0.2,
                restore_frac: Some(0.5),
            },
            cloudlb_core::FailSpec { node: true, index: 0, at_frac: 0.4, restore_frac: None },
        ];
        assert_eq!(dead_cores(&s), vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn clean_generated_scenarios_pass() {
        // A few cheap seeds through the full battery.
        for seed in [0, 1, 2] {
            let mut s = generate(seed);
            s.iterations = s.iterations.min(12);
            let verdict = check(&s, &OracleOpts::default());
            assert!(verdict.is_ok(), "seed {seed}: {verdict:?}\n{s:?}");
        }
    }

    #[test]
    fn pinned_seed_25_terminates_with_a_typed_unrecoverable_error() {
        // Swarm-discovered: seed 25 composes two kills that lose a
        // chare's owner and buddy checkpoint copies at once. That must
        // stay a typed, deterministic termination — it panicked before
        // the runtime learned to report double losses as
        // RuntimeError::Unrecoverable.
        match check(&generate(25), &OracleOpts::default()) {
            Ok(Outcome::TypedError(e)) => {
                assert!(e.contains("unrecoverable PE failure"), "{e}")
            }
            other => panic!("expected TypedError, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_an_acceptable_typed_termination() {
        let s = Scenario { strategy: "wat".into(), ..Scenario::paper("jacobi2d", 4, "nolb") };
        match check(&s, &OracleOpts::default()) {
            Ok(Outcome::TypedError(e)) => assert!(e.contains("unknown LB strategy"), "{e}"),
            other => panic!("expected TypedError, got {other:?}"),
        }
    }

    #[test]
    fn injected_break_fires_only_with_failures() {
        let opts = OracleOpts { inject: Some(InjectBreak::Faults) };
        let clean = Scenario { fail: vec![], ..Scenario::paper("jacobi2d", 4, "nolb") };
        let mut with_fail = Scenario::failure_drill("jacobi2d", 4, "nolb");
        with_fail.iterations = 10;
        assert!(check(&clean, &opts).is_ok());
        let err = check(&with_fail, &opts).unwrap_err();
        assert_eq!(err.kind, FailureKind::InjectedBreak);
    }

    /// A small scenario that completes and may fast-forward; a `seed`
    /// divisible by 8 puts it in the full-rerun sample.
    fn twinned(seed: u64) -> Scenario {
        Scenario {
            iterations: 10,
            fast_forward: FastForward::On,
            seed,
            ..Scenario::paper("jacobi2d", 4, "cloudrefine")
        }
    }

    /// [`check_with`] over a runner that runs each scenario for real and
    /// then hands the result to `script`, with whether the call was a
    /// fast-forward-off run and how many calls of that kind came before
    /// it. The clean twin runs unscripted. Returns the verdict and the
    /// number of simulations run.
    fn scripted(
        scn: &Scenario,
        mut script: impl FnMut(bool, usize, RunResult) -> Result<RunResult, RuntimeError>,
    ) -> (Verdict, usize) {
        let clean = scn.base_of();
        let mut calls = [0; 2];
        let mut runs = 0;
        let verdict = check_with(scn, &OracleOpts::default(), |s| {
            runs += 1;
            let r = try_run_scenario(s)?;
            if *s == clean {
                return Ok(r);
            }
            let off = s.fast_forward != scn.fast_forward;
            let n = calls[off as usize];
            calls[off as usize] += 1;
            script(off, n, r)
        });
        (verdict, runs)
    }

    /// The same run with one physics-bearing counter moved by `by`.
    fn perturbed(mut r: RunResult, by: u64) -> RunResult {
        r.sim_events += by;
        r
    }

    fn kind(verdict: Verdict) -> FailureKind {
        verdict.expect_err("an oracle must fire").kind
    }

    #[test]
    fn a_passing_twinned_seed_runs_three_simulations() {
        let (verdict, runs) = scripted(&twinned(1), |_, _, r| Ok(r));
        assert!(matches!(verdict, Ok(Outcome::Completed { .. })), "{verdict:?}");
        assert_eq!(runs, 3, "first run, ff-off twin, clean twin");
        let (_, runs) = scripted(&twinned(8), |_, _, r| Ok(r));
        assert_eq!(runs, 4, "the sampled seed keeps its same-mode rerun");
        let off = Scenario { fast_forward: FastForward::Off, ..twinned(1) };
        let (_, runs) = scripted(&off, |_, _, r| Ok(r));
        assert_eq!(runs, 3, "first run, same-mode rerun, clean twin");
    }

    #[test]
    fn a_nondeterministic_same_mode_run_is_nondeterminism() {
        let (verdict, _) =
            scripted(&twinned(1), |off, n, r| Ok(if !off && n == 0 { perturbed(r, 1) } else { r }));
        assert_eq!(kind(verdict), FailureKind::Nondeterminism);
        // Without fast-forward the full rerun catches it directly.
        let scn = Scenario { fast_forward: FastForward::Off, ..twinned(1) };
        let (verdict, _) = scripted(&scn, |_, n, r| Ok(perturbed(r, n as u64)));
        assert_eq!(kind(verdict), FailureKind::Nondeterminism);
    }

    #[test]
    fn nondeterminism_in_the_off_run_only_is_nondeterminism() {
        let (verdict, _) =
            scripted(&twinned(1), |off, n, r| Ok(if off { perturbed(r, n as u64 + 1) } else { r }));
        let f = verdict.unwrap_err();
        assert_eq!(f.kind, FailureKind::Nondeterminism);
        assert!(f.detail.contains("ff-off runs"), "{}", f.detail);
    }

    #[test]
    fn a_deterministic_divergence_is_ff_divergence() {
        let (verdict, runs) =
            scripted(&twinned(1), |off, _, r| Ok(if off { perturbed(r, 1) } else { r }));
        assert_eq!(kind(verdict), FailureKind::FastForwardDivergence);
        assert_eq!(runs, 4, "the mismatch buys a same-mode rerun and a second off run");
    }

    #[test]
    fn a_twin_that_errors_where_the_first_run_completed_is_ff_divergence() {
        let (verdict, _) = scripted(&twinned(1), |off, _, r| {
            if off {
                Err(RuntimeError::InvalidConfig("off only".into()))
            } else {
                Ok(r)
            }
        });
        let f = verdict.unwrap_err();
        assert_eq!(f.kind, FailureKind::FastForwardDivergence);
        assert!(f.detail.contains("errored where the original completed"), "{}", f.detail);
    }

    #[test]
    fn a_twin_that_panics_reports_the_panic() {
        let (verdict, _) =
            scripted(&twinned(1), |off, _, r| if off { panic!("off only") } else { Ok(r) });
        let f = verdict.unwrap_err();
        assert_eq!(f.kind, FailureKind::Panic);
        assert_eq!(f.detail, "ff-off twin: off only");
    }

    fn refused(n: usize) -> RuntimeError {
        RuntimeError::InvalidConfig(format!("refused {n}"))
    }

    #[test]
    fn typed_errors_must_be_deterministic() {
        let (verdict, _) = scripted(&twinned(1), |_, _, _| Err(refused(0)));
        assert_eq!(verdict, Ok(Outcome::TypedError(refused(0).to_string())));
        let mut calls = 0;
        let (verdict, _) = scripted(&twinned(1), |_, _, _| {
            calls += 1;
            Err(refused(calls))
        });
        assert_eq!(kind(verdict), FailureKind::Nondeterminism);
        let off = Scenario { fast_forward: FastForward::Off, ..twinned(1) };
        let (verdict, _) = scripted(&off, |_, n, _| Err(refused(n)));
        assert_eq!(kind(verdict), FailureKind::Nondeterminism);
    }

    #[test]
    fn a_typed_error_is_rerun_by_its_off_twin() {
        // Off the sample and on it alike: the twin is the only rerun.
        for seed in [1, 8] {
            let mut modes = Vec::new();
            let (verdict, runs) = scripted(&twinned(seed), |off, _, _| {
                modes.push(off);
                Err(refused(0))
            });
            assert_eq!(verdict, Ok(Outcome::TypedError(refused(0).to_string())));
            assert_eq!((runs, modes), (2, vec![false, true]), "seed {seed}");
        }
        let off = Scenario { fast_forward: FastForward::Off, ..twinned(1) };
        let (_, runs) = scripted(&off, |_, _, _| Err(refused(0)));
        assert_eq!(runs, 2, "first run and its same-mode rerun");
    }

    #[test]
    fn a_twin_that_disagrees_with_a_typed_error_is_ff_divergence() {
        let (verdict, runs) =
            scripted(&twinned(1), |off, _, r| if off { Ok(r) } else { Err(refused(0)) });
        let f = verdict.unwrap_err();
        assert_eq!(f.kind, FailureKind::FastForwardDivergence);
        assert!(f.detail.contains("completed where the original errored"), "{f:?}");
        assert_eq!(runs, 4, "the mismatch buys a same-mode rerun and a second off run");
        let (verdict, _) = scripted(&twinned(1), |off, _, _| Err(refused(off as usize)));
        let f = verdict.unwrap_err();
        assert_eq!(f.kind, FailureKind::FastForwardDivergence);
        assert!(f.detail.contains("errored differently from the original"), "{f:?}");
        assert!(f.detail.ends_with("refused 1"), "the twin's error: {f:?}");
    }

    #[test]
    fn incomplete_outranks_a_divergence() {
        let (verdict, _) = scripted(&twinned(1), |off, _, mut r| {
            if !off {
                r.iter_times.pop();
            }
            Ok(r)
        });
        assert_eq!(kind(verdict), FailureKind::Incomplete);
    }

    #[test]
    fn the_rerun_sample_keeps_the_skip_counters_deterministic() {
        let script = |off: bool, n: usize, mut r: RunResult| {
            if !off {
                r.ff_windows = n;
            }
            Ok(r)
        };
        let (verdict, _) = scripted(&twinned(8), script);
        assert_eq!(kind(verdict), FailureKind::Nondeterminism);
        // Off the sample only the twin reruns, and it scrubs the counters.
        let (verdict, _) = scripted(&twinned(9), script);
        assert!(verdict.is_ok(), "{verdict:?}");
    }
}
