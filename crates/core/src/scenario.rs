//! Declarative run scenarios mirroring the paper's experimental setup.
//!
//! §V: "we use 8 nodes (32 cores) of a testbed … In order to create
//! interference with our parallel runs we run a 2-core job of Wave2D as
//! the background load on two of the cores allocated to the application
//! under test." The background job's CPU demand is sized from the
//! application's own cost model so that the jobs genuinely coexist (the
//! paper runs both to completion and reports both penalties).
//!
//! The Mol3D runs add the paper's observed OS preference: "we saw a
//! significant preference to the background load in the case of Mol3D" —
//! modelled as a larger scheduler weight for the interfering tasks.

use cloudlb_apps::{Jacobi2D, Mol3D, Stencil3D, Wave2D};
use cloudlb_runtime::{FastForward, IterativeApp, LbConfig, RunConfig};
use cloudlb_sim::interference::BgScript;
use cloudlb_sim::{
    Dur, FailureScript, MembershipScript, MembershipSpec, NetFaultSpec, TelemetrySpec, Time,
};
use serde::{Deserialize, Serialize};

/// Interference pattern for a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BgPattern {
    /// No interference (the normalization base runs).
    None,
    /// The paper's steady 2-core background job on cores 0 and 1, starting
    /// at t = 0, with per-core demand `demand_frac × (expected base app
    /// time)`.
    TwoCore {
        /// Background CPU demand relative to the base app duration.
        demand_frac: f64,
    },
    /// Figure 1: a 1-core job arriving on the given core partway through.
    SingleCore {
        /// Interfered core.
        core: usize,
        /// Arrival as a fraction of the expected base app time.
        start_frac: f64,
    },
    /// Figure 3: a job on core 1 that departs, then a job on core 3.
    Phased,
}

/// One scheduled PE/node failure, with instants expressed as fractions of
/// the expected interference-free app duration — so the same spec ports
/// across applications and core counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailSpec {
    /// Kill a whole node instead of a single core.
    #[serde(default)]
    pub node: bool,
    /// Core index (or node index when `node` is set).
    pub index: usize,
    /// Kill instant as a fraction of the expected base app time.
    pub at_frac: f64,
    /// Optional restore instant (same scale); `None` = permanent loss.
    #[serde(default)]
    pub restore_frac: Option<f64>,
}

impl FailSpec {
    /// Parse the CLI syntax: `core:2@0.5` kills core 2 at 50 % of the
    /// expected run; `node:1@0.3~0.8` takes node 1 down between 30 % and
    /// 80 %.
    pub fn parse(s: &str) -> Result<FailSpec, String> {
        let (kind, rest) =
            s.split_once(':').ok_or_else(|| format!("bad failure spec {s:?}: missing ':'"))?;
        let node = match kind {
            "core" => false,
            "node" => true,
            other => return Err(format!("bad failure spec {s:?}: unknown target {other:?}")),
        };
        let (idx, when) =
            rest.split_once('@').ok_or_else(|| format!("bad failure spec {s:?}: missing '@'"))?;
        let index: usize =
            idx.parse().map_err(|_| format!("bad failure spec {s:?}: index {idx:?}"))?;
        let (at, restore) = match when.split_once('~') {
            Some((a, r)) => (a, Some(r)),
            None => (when, None),
        };
        let at_frac: f64 =
            at.parse().map_err(|_| format!("bad failure spec {s:?}: time {at:?}"))?;
        let restore_frac = match restore {
            Some(r) => Some(
                r.parse::<f64>().map_err(|_| format!("bad failure spec {s:?}: time {r:?}"))?,
            ),
            None => None,
        };
        if !(at_frac >= 0.0 && at_frac.is_finite()) {
            return Err(format!("bad failure spec {s:?}: kill time must be >= 0"));
        }
        if let Some(r) = restore_frac {
            if !(r > at_frac && r.is_finite()) {
                return Err(format!("bad failure spec {s:?}: restore must come after the kill"));
            }
        }
        Ok(FailSpec { node, index, at_frac, restore_frac })
    }
}

/// One experiment configuration.
///
/// `PartialEq` compares every field: the scenario fuzzer's shrinker relies
/// on it to detect fixpoints, and the round-trip tests use it to prove
/// JSON serialization is lossless.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Application name (`jacobi2d`, `wave2d`, `mol3d`, `stencil3d`).
    pub app: String,
    /// Cores (multiple of 4; the paper uses 4–32).
    pub cores: usize,
    /// Iterations to run.
    pub iterations: usize,
    /// LB strategy registry name (`nolb`, `cloudrefine`, …).
    pub strategy: String,
    /// LB period in iterations.
    pub lb_period: usize,
    /// Interference pattern.
    pub bg: BgPattern,
    /// Scheduler weight of background tasks (1.0 = fair share; the Mol3D
    /// scenarios use [`Scenario::OS_PREFERENCE`]).
    pub bg_weight: f64,
    /// Seed (perturbs per-chare jitter; experiments average 3 seeds).
    pub seed: u64,
    /// Record a Projections-style trace.
    pub trace: bool,
    /// Scheduled PE/node failures (empty = failure-free run).
    #[serde(default)]
    pub fail: Vec<FailSpec>,
    /// Telemetry-corruption model applied to every `/proc/stat` read
    /// (`None` = clean counters).
    #[serde(default)]
    pub telemetry: Option<TelemetrySpec>,
    /// Network chaos model: seeded loss, duplication, reordering, jitter,
    /// bandwidth collapse and transient partitions applied to every
    /// cross-node message (`None` = clean interconnect).
    #[serde(default)]
    pub net_fault: Option<NetFaultSpec>,
    /// Elastic cluster membership: spot preemption notices (with lead
    /// time) and autoscale acquisitions, with instants expressed as
    /// fractions of the expected base app time (`None` = static cluster).
    #[serde(default)]
    pub membership: Option<MembershipSpec>,
    /// Steady-state fast-forward mode (bit-identical macro-stepping of
    /// undisturbed LB windows; default `auto` = on unless tracing).
    #[serde(default)]
    pub fast_forward: FastForward,
    /// Relative per-core speeds (empty = uniform). Models static
    /// heterogeneity — the paper's "VM to physical machine mapping"
    /// extraneous factor; plumbed into [`RunConfig::pe_speeds`].
    #[serde(default)]
    pub pe_speeds: Vec<f64>,
}

impl Scenario {
    /// The OS preference factor the paper observed for Mol3D's background
    /// job (chosen to reproduce the ~400 % noLB timing penalty of
    /// Fig. 2(c); see DESIGN.md substitutions).
    pub const OS_PREFERENCE: f64 = 4.0;

    /// A paper-style scenario: the 2-core background job, CloudRefine vs
    /// whatever `strategy` says, 100 iterations, LB every 10.
    ///
    /// The background job's per-core demand is `bg_weight × base app time`
    /// so that — like the paper's 2-core Wave2D run — it persists for the
    /// whole interfered noLB execution (a job holding a `w : 1` share of
    /// the core consumes `w × base` CPU while the app crawls through at
    /// `1/(1+w)` speed).
    pub fn paper(app: &str, cores: usize, strategy: &str) -> Self {
        let bg_weight =
            if app.eq_ignore_ascii_case("mol3d") { Self::OS_PREFERENCE } else { 1.0 };
        Scenario {
            app: app.to_string(),
            cores,
            iterations: 100,
            strategy: strategy.to_string(),
            lb_period: 10,
            bg: BgPattern::TwoCore { demand_frac: bg_weight },
            bg_weight,
            seed: 1,
            trace: false,
            fail: Vec::new(),
            telemetry: None,
            net_fault: None,
            membership: None,
            fast_forward: FastForward::default(),
            pe_speeds: Vec::new(),
        }
    }

    /// Noisy-cloud preset: the paper scenario with the guarded strategy
    /// stack and every `/proc/stat` read corrupted by the default
    /// [`TelemetrySpec::noisy_cloud`] model — the headline experiment rerun
    /// under dirty telemetry.
    pub fn noisy_cloud(app: &str, cores: usize, strategy: &str) -> Self {
        Scenario {
            telemetry: Some(TelemetrySpec::noisy_cloud()),
            ..Self::paper(app, cores, strategy)
        }
    }

    /// Flaky-cloud preset: the paper scenario rerun over a degraded
    /// interconnect — ~1 % message loss, duplication, reordering, latency
    /// jitter, occasional bandwidth collapse, and one transient full-rack
    /// partition mid-run (see [`NetFaultSpec::flaky_cloud`]). Migrations
    /// go through the reliable retry/abort protocol.
    pub fn flaky_cloud(app: &str, cores: usize, strategy: &str) -> Self {
        Scenario {
            net_fault: Some(NetFaultSpec::flaky_cloud()),
            ..Self::paper(app, cores, strategy)
        }
    }

    /// Failure-drill preset: the paper scenario (interference included)
    /// plus a permanent kill of the last core at 40 % of the expected run
    /// — failure and interference overlapping, the hardest recovery case.
    pub fn failure_drill(app: &str, cores: usize, strategy: &str) -> Self {
        Scenario {
            fail: vec![FailSpec {
                node: false,
                index: cores - 1,
                at_frac: 0.4,
                restore_frac: None,
            }],
            ..Self::paper(app, cores, strategy)
        }
    }

    /// Spot-storm preset: the paper scenario (interference included) plus
    /// the [`MembershipSpec::spot_storm`] membership schedule — a
    /// replacement node acquired at 30 %, then both original nodes
    /// preempted with lead time (one at 40 %, one at 80 %). The hardest
    /// elastic case that is still survivable: the runtime must drain every
    /// original node onto capacity that did not exist at t = 0.
    pub fn spot_storm(app: &str, cores: usize, strategy: &str) -> Self {
        Scenario {
            membership: Some(MembershipSpec::spot_storm()),
            ..Self::paper(app, cores, strategy)
        }
    }

    /// Scale preset: a clean, interference-free short run with the
    /// fast-forward engine pinned ON — the configuration the 32k-core /
    /// 1M-chare scale bench and tests use. The short horizon (30
    /// iterations, LB every 3) keeps the live event-by-event prefix
    /// small; every steady-state window after the first capture
    /// macro-steps analytically, so wall-clock stays within a CI budget
    /// even at paper-×1000 cluster sizes.
    pub fn scale(app: &str, cores: usize, strategy: &str) -> Self {
        Scenario {
            bg: BgPattern::None,
            iterations: 30,
            lb_period: 3,
            fast_forward: FastForward::On,
            ..Self::paper(app, cores, strategy)
        }
    }

    /// Autoscale preset: the paper scenario plus the
    /// [`MembershipSpec::autoscale`] schedule — two nodes acquired as the
    /// cluster scales up, one original node preempted later as it scales
    /// back down.
    pub fn autoscale(app: &str, cores: usize, strategy: &str) -> Self {
        Scenario {
            membership: Some(MembershipSpec::autoscale()),
            ..Self::paper(app, cores, strategy)
        }
    }

    /// Same scenario without interference (the normalization base). Also
    /// strips failures, telemetry corruption and membership churn: the
    /// base is the clean, static machine.
    pub fn base_of(&self) -> Scenario {
        Scenario {
            bg: BgPattern::None,
            strategy: "nolb".to_string(),
            trace: false,
            fail: Vec::new(),
            telemetry: None,
            net_fault: None,
            membership: None,
            ..self.clone()
        }
    }

    /// Application names [`Scenario::build_app`] understands.
    pub const KNOWN_APPS: [&'static str; 4] = ["jacobi2d", "wave2d", "mol3d", "stencil3d"];

    /// Check the scenario for configuration errors a JSON file (or a
    /// fuzzer) can smuggle past the CLI parsers: unknown app or strategy,
    /// broken cluster shape, out-of-range fault targets, malformed speed
    /// vectors and non-finite knobs. Every failure here must surface as
    /// `RuntimeError::InvalidConfig` from `try_run_scenario`, never a
    /// panic.
    pub fn validate(&self) -> Result<(), String> {
        let app = self.app.to_ascii_lowercase();
        if !Self::KNOWN_APPS.contains(&app.as_str()) {
            return Err(format!(
                "unknown application {:?} (expected one of {:?})",
                self.app,
                Self::KNOWN_APPS
            ));
        }
        if self.cores == 0 || !self.cores.is_multiple_of(4) {
            return Err(format!("cores must be a positive multiple of 4, got {}", self.cores));
        }
        if self.iterations == 0 {
            return Err("iterations must be >= 1".to_string());
        }
        if self.lb_period == 0 {
            return Err("lb_period must be >= 1".to_string());
        }
        if cloudlb_balance::strategy::by_name(&self.strategy).is_none() {
            return Err(format!("unknown LB strategy {:?}", self.strategy));
        }
        if !(self.bg_weight > 0.0 && self.bg_weight.is_finite()) {
            return Err(format!("bg_weight must be positive and finite, got {}", self.bg_weight));
        }
        match self.bg {
            BgPattern::None | BgPattern::Phased => {}
            BgPattern::TwoCore { demand_frac } => {
                if !(demand_frac >= 0.0 && demand_frac.is_finite()) {
                    return Err(format!("bg demand_frac must be >= 0, got {demand_frac}"));
                }
            }
            BgPattern::SingleCore { core, start_frac } => {
                if core >= self.cores {
                    return Err(format!(
                        "bg core {core} out of range for {} cores",
                        self.cores
                    ));
                }
                if !(start_frac >= 0.0 && start_frac.is_finite()) {
                    return Err(format!("bg start_frac must be >= 0, got {start_frac}"));
                }
            }
        }
        let nodes = self.cores / 4;
        for spec in &self.fail {
            let limit = if spec.node { nodes } else { self.cores };
            let what = if spec.node { "node" } else { "core" };
            if spec.index >= limit {
                return Err(format!(
                    "failure spec targets {what} {} beyond the {limit}-{what} cluster",
                    spec.index
                ));
            }
            if !(spec.at_frac >= 0.0 && spec.at_frac.is_finite()) {
                return Err(format!("failure kill time must be >= 0, got {}", spec.at_frac));
            }
            if let Some(r) = spec.restore_frac {
                if !(r > spec.at_frac && r.is_finite()) {
                    return Err(format!(
                        "failure restore ({r}) must come after the kill ({})",
                        spec.at_frac
                    ));
                }
            }
        }
        if let Some(net) = &self.net_fault {
            net.validate(nodes)?;
        }
        if let Some(m) = &self.membership {
            m.validate(nodes)?;
        }
        if !self.pe_speeds.is_empty() {
            if self.pe_speeds.len() != self.cores {
                return Err(format!(
                    "pe_speeds length {} != core count {}",
                    self.pe_speeds.len(),
                    self.cores
                ));
            }
            if !self.pe_speeds.iter().all(|s| *s > 0.0 && s.is_finite()) {
                return Err(format!("pe_speeds must be positive: {:?}", self.pe_speeds));
            }
        }
        Ok(())
    }

    /// Instantiate the application with this scenario's seed folded into
    /// its jitter stream.
    pub fn build_app(&self) -> Box<dyn IterativeApp> {
        let pes = self.cores;
        match self.app.to_ascii_lowercase().as_str() {
            "jacobi2d" => {
                let mut a = Jacobi2D::for_pes(pes);
                a.seed ^= self.seed;
                Box::new(a)
            }
            "wave2d" => {
                let mut a = Wave2D::for_pes(pes);
                a.seed ^= self.seed;
                Box::new(a)
            }
            "mol3d" => {
                let mut a = Mol3D::for_pes(pes);
                a.seed ^= self.seed;
                Box::new(a)
            }
            "stencil3d" => {
                let mut a = Stencil3D::for_pes(pes);
                a.seed ^= self.seed;
                Box::new(a)
            }
            other => panic!("unknown application {other:?}"),
        }
    }

    /// Expected interference-free app duration from the cost model:
    /// `iterations × (Σ task costs) / cores`. Used to size background
    /// demand and arrival times.
    pub fn base_time_estimate(&self, app: &dyn IterativeApp) -> f64 {
        let total: f64 = (0..app.num_chares()).map(|i| app.task_cost(i, 0)).sum();
        self.iterations as f64 * total / self.cores as f64
    }

    /// Total cores in the grown cluster: the initial `cores` plus one
    /// 4-core node for every membership acquisition. Acquired nodes start
    /// latent (dead until their acquire instant), so the *initial* cluster
    /// still has exactly `cores` active cores; this is the bound chare
    /// placements must respect once the cluster has fully expanded.
    pub fn total_cores(&self) -> usize {
        let acquired = self.membership.as_ref().map_or(0, |m| m.acquisitions.len());
        self.cores + 4 * acquired
    }

    /// Time-averaged active capacity as a fraction of the initial `cores`,
    /// integrating scheduled failures and membership churn over the run.
    ///
    /// The accounting is deliberately conservative: a noticed node stops
    /// counting at its *notice* instant (the runtime starts draining it
    /// immediately, so its cores are lame ducks from then on), and an
    /// acquired node starts counting only after its worst-case warm-up
    /// (`at + warmup + jitter`). The horizon is the later of the nominal
    /// run end and the last scheduled event, and instantaneous capacity is
    /// floored at one core. The fuzzer's bounded-makespan oracle divides
    /// by this to price elastic capacity loss.
    pub fn capacity_avg_frac(&self) -> f64 {
        let (steps, last) = self.capacity_steps();
        if steps.is_empty() {
            return 1.0;
        }
        let horizon = last.max(1.0);
        let mut cap = self.cores as f64;
        let mut t = 0.0f64;
        let mut integral = 0.0f64;
        for (at, d) in steps {
            let at = at.clamp(0.0, horizon);
            integral += cap.max(1.0) * (at - t);
            cap += d;
            t = at;
        }
        integral += cap.max(1.0) * (horizon - t);
        (integral / (self.cores as f64 * horizon)).max(1.0 / self.cores as f64)
    }

    /// The scheduled capacity trajectory shared by
    /// [`Scenario::capacity_avg_frac`] and
    /// [`Scenario::capacity_tracking_makespan`]: `(instant, ±cores)` steps
    /// in fractions of the base app time, sorted by instant, plus the last
    /// scheduled instant (a notice counts until its revocation). A failed
    /// core/node drops at its kill and returns at its restore, a noticed
    /// node drops at its notice, and an acquired node joins after its
    /// worst-case warm-up (`at + warmup + jitter`).
    fn capacity_steps(&self) -> (Vec<(f64, f64)>, f64) {
        let mut steps: Vec<(f64, f64)> = Vec::new();
        let mut last = 0.0f64;
        for spec in &self.fail {
            let n = if spec.node { 4.0 } else { 1.0 };
            steps.push((spec.at_frac, -n));
            last = last.max(spec.at_frac);
            if let Some(r) = spec.restore_frac {
                steps.push((r, n));
                last = last.max(r);
            }
        }
        if let Some(m) = &self.membership {
            for nt in &m.notices {
                steps.push((nt.at_frac, -4.0));
                last = last.max(nt.at_frac + nt.lead_frac);
            }
            for acq in &m.acquisitions {
                let ready = acq.at_frac + m.warmup_frac + m.warmup_jitter_frac;
                steps.push((ready, 4.0));
                last = last.max(ready);
            }
        }
        steps.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        (steps, last)
    }

    /// Makespan of the *capacity-tracking clean twin*: a hypothetical run
    /// that does the measured clean twin's work (`cores × clean_s`
    /// core-seconds) at a throughput following this scenario's capacity
    /// trajectory — noticed nodes become lame ducks at their NOTICE
    /// instant, acquired nodes contribute after worst-case warm-up, and
    /// failed nodes drop at their kill instant. Event times are absolute
    /// (`frac × base_s`, matching how the scripts are scheduled), and the
    /// integration runs until the work completes, so a tail executed on a
    /// shrunken cluster is priced at the shrunken rate. Throughput is
    /// floored at one core, so this always terminates.
    pub fn capacity_tracking_makespan(&self, clean_s: f64, base_s: f64) -> f64 {
        let work = self.cores as f64 * clean_s.max(0.0);
        let mut cap = self.cores as f64;
        let mut t = 0.0f64;
        let mut done = 0.0f64;
        for (at, d) in self.capacity_steps().0 {
            let at = (at * base_s).max(t);
            let rate = cap.max(1.0);
            if done + rate * (at - t) >= work {
                return t + (work - done) / rate;
            }
            done += rate * (at - t);
            cap += d;
            t = at;
        }
        t + (work - done) / cap.max(1.0)
    }

    /// The runtime configuration for this scenario. With an active
    /// membership spec the cluster is built at its fully-expanded size
    /// ([`Scenario::total_cores`]); the executor parks acquired nodes as
    /// latent until their scheduled acquire instant.
    pub fn run_config(&self) -> RunConfig {
        let mut cfg = RunConfig::paper(self.total_cores(), self.iterations);
        cfg.lb = LbConfig {
            strategy: self.strategy.clone(),
            period: self.lb_period,
            ..LbConfig::default()
        };
        cfg.seed = self.seed;
        cfg.cluster.trace = self.trace;
        cfg.fast_forward = self.fast_forward;
        cfg.pe_speeds = self.pe_speeds.clone();
        // Speeds are specified for the initial cores; acquired cores run
        // at nominal speed.
        if !cfg.pe_speeds.is_empty() {
            cfg.pe_speeds.resize(self.total_cores(), 1.0);
        }
        cfg
    }

    /// The interference script for this scenario (needs the app for demand
    /// sizing).
    pub fn bg_script(&self, app: &dyn IterativeApp) -> BgScript {
        let base = self.base_time_estimate(app);
        match self.bg {
            BgPattern::None => BgScript::none(),
            BgPattern::TwoCore { demand_frac } => BgScript::steady(
                0,
                &[0, 1],
                Time::ZERO,
                Some(Dur::from_secs_f64(base * demand_frac)),
                self.bg_weight,
            ),
            BgPattern::SingleCore { core, start_frac } => BgScript::steady(
                0,
                &[core],
                Time::ZERO + Dur::from_secs_f64(base * start_frac),
                None,
                self.bg_weight,
            ),
            BgPattern::Phased => {
                // Fig. 3: interference on core 1 for the first ~40 % of the
                // run, a gap, then on core 3 until past the end.
                let a = BgScript::pulse(
                    0,
                    1,
                    Time::ZERO + Dur::from_secs_f64(base * 0.05),
                    Time::ZERO + Dur::from_secs_f64(base * 0.45),
                    self.bg_weight,
                );
                let b = BgScript::pulse(
                    1,
                    3,
                    Time::ZERO + Dur::from_secs_f64(base * 0.65),
                    Time::ZERO + Dur::from_secs_f64(base * 3.0),
                    self.bg_weight,
                );
                a.merge(b)
            }
        }
    }

    /// The failure schedule for this scenario, with fractional times
    /// scaled by the expected base duration (needs the app for sizing,
    /// like [`Scenario::bg_script`]).
    pub fn fail_script(&self, app: &dyn IterativeApp) -> FailureScript {
        let base = self.base_time_estimate(app);
        let at = |frac: f64| Time::ZERO + Dur::from_secs_f64(base * frac);
        let mut script = FailureScript::none();
        for spec in &self.fail {
            let part = match (spec.node, spec.restore_frac) {
                (false, None) => FailureScript::kill_core(spec.index, at(spec.at_frac)),
                (false, Some(r)) => {
                    FailureScript::core_outage(spec.index, at(spec.at_frac), at(r))
                }
                (true, None) => FailureScript::kill_node(spec.index, at(spec.at_frac)),
                (true, Some(r)) => {
                    FailureScript::node_outage(spec.index, at(spec.at_frac), at(r))
                }
            };
            script = script.merge(part);
        }
        script
    }

    /// The membership schedule for this scenario: notice/revoke/acquire/
    /// warmup instants scaled by the expected base duration, acquisition
    /// node ids assigned past the initial cluster, warm-up jitter drawn
    /// from the seeded membership stream. Empty when the scenario has no
    /// active membership spec.
    pub fn membership_script(&self, app: &dyn IterativeApp) -> MembershipScript {
        match &self.membership {
            Some(spec) if spec.is_active() => {
                spec.to_script(self.base_time_estimate(app), self.cores / 4, self.seed)
            }
            _ => MembershipScript::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_defaults() {
        let s = Scenario::paper("jacobi2d", 8, "cloudrefine");
        assert_eq!(s.cores, 8);
        assert_eq!(s.bg_weight, 1.0);
        let m = Scenario::paper("mol3d", 8, "cloudrefine");
        assert_eq!(m.bg_weight, Scenario::OS_PREFERENCE);
    }

    #[test]
    fn fast_forward_defaults_to_auto_and_plumbs_through() {
        let mut s = Scenario::paper("jacobi2d", 4, "cloudrefine");
        assert_eq!(s.fast_forward, FastForward::Auto);
        assert_eq!(s.run_config().fast_forward, FastForward::Auto);
        s.fast_forward = FastForward::Off;
        assert_eq!(s.run_config().fast_forward, FastForward::Off);
        // The normalization base keeps the caller's choice.
        assert_eq!(s.base_of().fast_forward, FastForward::Off);
    }

    #[test]
    fn scale_preset_is_clean_short_and_macro_stepped() {
        let s = Scenario::scale("jacobi2d", 32768, "hiercloudrefine");
        assert_eq!(s.bg, BgPattern::None, "scale runs are interference-free");
        assert_eq!(s.iterations, 30);
        assert_eq!(s.lb_period, 3);
        assert_eq!(s.fast_forward, FastForward::On);
        assert!(s.validate().is_ok());
        assert_eq!(s.run_config().fast_forward, FastForward::On);
    }

    #[test]
    fn base_scenario_strips_interference() {
        let s = Scenario::paper("wave2d", 4, "cloudrefine");
        let b = s.base_of();
        assert_eq!(b.bg, BgPattern::None);
        assert_eq!(b.strategy, "nolb");
        assert_eq!(b.cores, s.cores);
    }

    #[test]
    fn noisy_cloud_preset_sets_and_base_strips_telemetry() {
        let s = Scenario::noisy_cloud("jacobi2d", 4, "robustcloudrefine");
        let spec = s.telemetry.expect("preset must corrupt telemetry");
        assert!(spec.is_active());
        assert!(matches!(s.bg, BgPattern::TwoCore { .. }), "interference stays on");
        assert!(s.base_of().telemetry.is_none(), "the base run reads clean counters");
    }

    #[test]
    fn flaky_cloud_preset_sets_and_base_strips_net_faults() {
        let s = Scenario::flaky_cloud("jacobi2d", 8, "cloudrefine");
        let spec = s.net_fault.as_ref().expect("preset must degrade the network");
        assert!(spec.is_active());
        assert!(!spec.partitions.is_empty(), "flaky_cloud schedules a partition");
        assert!(matches!(s.bg, BgPattern::TwoCore { .. }), "interference stays on");
        assert!(s.base_of().net_fault.is_none(), "the base run uses a clean network");
    }

    #[test]
    fn build_app_respects_seed() {
        let mut s = Scenario::paper("jacobi2d", 4, "nolb");
        let a = s.build_app();
        s.seed = 99;
        let b = s.build_app();
        // Different seeds → different jitter → different costs somewhere.
        let differs = (0..a.num_chares()).any(|i| a.task_cost(i, 0) != b.task_cost(i, 0));
        assert!(differs);
    }

    #[test]
    fn base_time_estimate_is_positive_and_scales() {
        let s4 = Scenario::paper("jacobi2d", 4, "nolb");
        let a4 = s4.build_app();
        let t4 = s4.base_time_estimate(a4.as_ref());
        assert!(t4 > 0.0);
        let s8 = Scenario::paper("jacobi2d", 8, "nolb");
        let a8 = s8.build_app();
        let t8 = s8.base_time_estimate(a8.as_ref());
        // Twice the cores and twice the work → similar per-run time.
        assert!((t8 / t4 - 1.0).abs() < 0.25, "t4 {t4} t8 {t8}");
    }

    #[test]
    fn two_core_script_targets_cores_0_and_1() {
        let s = Scenario::paper("wave2d", 4, "nolb");
        let app = s.build_app();
        let script = s.bg_script(app.as_ref());
        assert_eq!(script.actions.len(), 2);
        assert_eq!(script.max_core(), Some(1));
    }

    #[test]
    fn fail_spec_parsing() {
        assert_eq!(
            FailSpec::parse("core:2@0.5"),
            Ok(FailSpec { node: false, index: 2, at_frac: 0.5, restore_frac: None })
        );
        assert_eq!(
            FailSpec::parse("node:1@0.3~0.8"),
            Ok(FailSpec { node: true, index: 1, at_frac: 0.3, restore_frac: Some(0.8) })
        );
        assert!(FailSpec::parse("cpu:1@0.5").is_err());
        assert!(FailSpec::parse("core:x@0.5").is_err());
        assert!(FailSpec::parse("core:1").is_err());
        assert!(FailSpec::parse("core:1@0.8~0.2").is_err(), "restore before kill");
        assert!(FailSpec::parse("core:1@-0.5").is_err());
    }

    #[test]
    fn fail_script_scales_by_base_time() {
        let mut s = Scenario::paper("wave2d", 4, "cloudrefine");
        s.fail = vec![
            FailSpec { node: false, index: 3, at_frac: 0.5, restore_frac: None },
            FailSpec { node: true, index: 0, at_frac: 0.2, restore_frac: Some(0.4) },
        ];
        let app = s.build_app();
        let script = s.fail_script(app.as_ref());
        assert_eq!(script.actions.len(), 3); // kill + (kill, restore)
        assert!(script.has_kills());
        let base = s.base_time_estimate(app.as_ref());
        let times: Vec<f64> =
            script.actions.iter().map(|(t, _)| t.since(Time::ZERO).as_secs_f64()).collect();
        // Times quantize to whole microseconds, so compare at that resolution.
        assert!((times[0] - 0.2 * base).abs() < 2e-6, "{} vs {}", times[0], 0.2 * base);
        assert!((times[1] - 0.4 * base).abs() < 2e-6, "{} vs {}", times[1], 0.4 * base);
        assert!((times[2] - 0.5 * base).abs() < 2e-6, "{} vs {}", times[2], 0.5 * base);
    }

    #[test]
    fn failure_drill_preset_and_base_strip() {
        let s = Scenario::failure_drill("jacobi2d", 8, "cloudrefine");
        assert_eq!(s.fail.len(), 1);
        assert_eq!(s.fail[0].index, 7);
        assert!(matches!(s.bg, BgPattern::TwoCore { .. }), "interference stays on");
        // The normalization base must be failure-free as well.
        assert!(s.base_of().fail.is_empty());
    }

    #[test]
    fn validate_accepts_presets_and_rejects_garbage() {
        for s in [
            Scenario::paper("jacobi2d", 8, "cloudrefine"),
            Scenario::noisy_cloud("mol3d", 4, "robustcloudrefine"),
            Scenario::flaky_cloud("wave2d", 8, "gatedcloudrefine"),
            Scenario::failure_drill("stencil3d", 4, "hysteresiscloudrefine"),
            Scenario::spot_storm("jacobi2d", 8, "cloudrefine"),
            Scenario::autoscale("wave2d", 8, "cloudrefine"),
        ] {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.app));
        }
        let ok = Scenario::paper("jacobi2d", 8, "cloudrefine");
        let cases: Vec<(Scenario, &str)> = vec![
            (Scenario { app: "linpack".into(), ..ok.clone() }, "unknown application"),
            (Scenario { cores: 6, ..ok.clone() }, "multiple of 4"),
            (Scenario { iterations: 0, ..ok.clone() }, "iterations"),
            (Scenario { lb_period: 0, ..ok.clone() }, "lb_period"),
            (Scenario { strategy: "wat".into(), ..ok.clone() }, "unknown LB strategy"),
            (Scenario { bg_weight: 0.0, ..ok.clone() }, "bg_weight"),
            (
                Scenario {
                    bg: BgPattern::SingleCore { core: 8, start_frac: 0.5 },
                    ..ok.clone()
                },
                "bg core 8 out of range",
            ),
            (
                Scenario {
                    fail: vec![FailSpec {
                        node: false,
                        index: 8,
                        at_frac: 0.5,
                        restore_frac: None,
                    }],
                    ..ok.clone()
                },
                "targets core 8",
            ),
            (
                Scenario {
                    fail: vec![FailSpec {
                        node: true,
                        index: 2,
                        at_frac: 0.5,
                        restore_frac: None,
                    }],
                    ..ok.clone()
                },
                "targets node 2",
            ),
            (
                Scenario {
                    fail: vec![FailSpec {
                        node: false,
                        index: 0,
                        at_frac: 0.8,
                        restore_frac: Some(0.2),
                    }],
                    ..ok.clone()
                },
                "after the kill",
            ),
            (Scenario { pe_speeds: vec![1.0; 3], ..ok.clone() }, "pe_speeds length"),
            (Scenario { pe_speeds: vec![0.0; 8], ..ok.clone() }, "must be positive"),
            (
                Scenario {
                    membership: Some(MembershipSpec {
                        notices: vec![cloudlb_sim::NoticeSpec {
                            node: 5,
                            at_frac: 0.3,
                            lead_frac: 0.2,
                        }],
                        ..MembershipSpec::default()
                    }),
                    ..ok.clone()
                },
                "membership notice targets node 5",
            ),
            (
                // Presets notice node 1; a 4-core cluster only has node 0.
                Scenario::spot_storm("jacobi2d", 4, "cloudrefine"),
                "membership notice targets node 1",
            ),
        ];
        for (bad, want) in cases {
            let err = bad.validate().expect_err(want);
            assert!(err.contains(want), "error {err:?} should mention {want:?}");
        }
    }

    #[test]
    fn pe_speeds_plumb_into_run_config() {
        let mut s = Scenario::paper("jacobi2d", 8, "cloudrefine");
        s.pe_speeds = vec![1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5];
        assert_eq!(s.run_config().pe_speeds, s.pe_speeds);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn scenario_json_round_trips_losslessly() {
        // Exercise every optional field at once: if the vendored derive
        // drops or defaults anything, PartialEq catches it.
        let mut s = Scenario::flaky_cloud("mol3d", 8, "robustcloudrefine");
        s.telemetry = Some(cloudlb_sim::TelemetrySpec::noisy_cloud());
        s.fail = vec![
            FailSpec { node: false, index: 7, at_frac: 0.4, restore_frac: None },
            FailSpec { node: true, index: 1, at_frac: 0.2, restore_frac: Some(0.6) },
        ];
        s.bg = BgPattern::SingleCore { core: 3, start_frac: 0.25 };
        s.membership = Some(MembershipSpec::spot_storm());
        s.fast_forward = FastForward::Off;
        s.pe_speeds = vec![1.0, 1.0, 0.5, 1.0, 1.0, 0.75, 1.0, 1.0];
        s.trace = true;
        s.seed = 0xDEAD_BEEF;
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // And the defaulted fields really default when absent.
        let minimal: Scenario = serde_json::from_str(
            r#"{"app":"jacobi2d","cores":8,"iterations":10,"strategy":"nolb",
                "lb_period":5,"bg":"None","bg_weight":1.0,"seed":7,"trace":false}"#,
        )
        .unwrap();
        assert!(minimal.fail.is_empty());
        assert!(minimal.telemetry.is_none());
        assert!(minimal.net_fault.is_none());
        assert!(minimal.membership.is_none());
        assert_eq!(minimal.fast_forward, FastForward::Auto);
        assert!(minimal.pe_speeds.is_empty());
    }

    #[test]
    fn spot_storm_preset_and_base_strip() {
        let s = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        let spec = s.membership.as_ref().expect("preset must schedule churn");
        assert!(spec.is_active());
        assert_eq!(spec.notices.len(), 2);
        assert!(matches!(s.bg, BgPattern::TwoCore { .. }), "interference stays on");
        assert!(s.base_of().membership.is_none(), "the base run is a static cluster");
        let a = Scenario::autoscale("wave2d", 8, "cloudrefine");
        assert_eq!(a.membership.as_ref().unwrap().acquisitions.len(), 2);
    }

    #[test]
    fn total_cores_counts_acquired_nodes() {
        let s = Scenario::paper("jacobi2d", 8, "cloudrefine");
        assert_eq!(s.total_cores(), 8);
        let storm = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        assert_eq!(storm.total_cores(), 12); // one acquisition = one 4-core node
        let auto = Scenario::autoscale("jacobi2d", 8, "cloudrefine");
        assert_eq!(auto.total_cores(), 16);
    }

    #[test]
    fn run_config_builds_the_expanded_cluster_and_pads_speeds() {
        let mut s = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        let cfg = s.run_config();
        assert_eq!(cfg.cluster.nodes * cfg.cluster.cores_per_node, 12);
        // Speeds given for the initial 8 cores pad to nominal for the rest.
        s.pe_speeds = vec![0.5; 8];
        let cfg = s.run_config();
        assert_eq!(cfg.pe_speeds.len(), 12);
        assert_eq!(&cfg.pe_speeds[..8], &[0.5; 8][..]);
        assert_eq!(&cfg.pe_speeds[8..], &[1.0; 4][..]);
        assert!(s.validate().is_ok(), "speeds are validated against the initial cores");
    }

    #[test]
    fn membership_script_scales_by_base_time_and_numbers_past_the_cluster() {
        let s = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        let app = s.build_app();
        let script = s.membership_script(app.as_ref());
        assert_eq!(script.actions.len(), 6); // 2×(notice+revoke) + acquire + warmup
        assert_eq!(script.num_acquired_nodes(), 1);
        assert_eq!(script.max_node(), Some(2), "acquired node numbered after nodes 0..2");
        assert!(script.has_revocations());
        let base = s.base_time_estimate(app.as_ref());
        let first = script.actions[0].0.since(Time::ZERO).as_secs_f64();
        assert!((first - 0.30 * base).abs() < 2e-6, "{first} vs {}", 0.30 * base);
        // The clean twin schedules nothing.
        assert!(s.base_of().membership_script(app.as_ref()).is_empty());
    }

    #[test]
    fn capacity_avg_frac_integrates_churn() {
        let s = Scenario::paper("jacobi2d", 8, "cloudrefine");
        assert_eq!(s.capacity_avg_frac(), 1.0, "static cluster is full capacity");
        // spot_storm on 8 cores: +4 cores ready at 0.32, −4 at the 0.40
        // notice, −4 at the 0.80 notice; horizon = last revoke at 1.10.
        // ∫ = 8(.32) + 12(.08) + 8(.40) + 4(.30) = 7.92 over 8 × 1.10.
        let storm = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        assert!((storm.capacity_avg_frac() - 0.9).abs() < 1e-9);
        // A permanent single-core kill at 50 %: 8 cores for half the run,
        // 7 after → 7.5/8.
        let mut failed = Scenario::paper("jacobi2d", 8, "cloudrefine");
        failed.fail =
            vec![FailSpec { node: false, index: 7, at_frac: 0.5, restore_frac: None }];
        assert!((failed.capacity_avg_frac() - 7.5 / 8.0).abs() < 1e-9);
        // Capacity never integrates below one core.
        let mut doomed = Scenario::paper("jacobi2d", 8, "cloudrefine");
        doomed.fail = (0..8)
            .map(|i| FailSpec { node: false, index: i, at_frac: 0.1, restore_frac: None })
            .collect();
        assert!(doomed.capacity_avg_frac() >= 1.0 / 8.0);
    }

    #[test]
    fn capacity_tracking_makespan_integrates_until_the_work_is_done() {
        // No churn: 8 cores the whole way, so the tracking twin IS the
        // clean twin.
        let s = Scenario::paper("jacobi2d", 8, "cloudrefine");
        assert!((s.capacity_tracking_makespan(2.0, 1.0) - 2.0).abs() < 1e-9);
        // spot_storm on 8 cores with base 1 s and clean makespan 1 s
        // (work = 8 core·s): 8 cores to 0.32, 12 to the 0.40 notice, 8 to
        // the 0.80 notice, 4 after. ∫ to 0.80 = 2.56 + 0.96 + 3.20 = 6.72;
        // the remaining 1.28 runs at 4 cores → 0.80 + 0.32 = 1.12 s.
        let storm = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        assert!((storm.capacity_tracking_makespan(1.0, 1.0) - 1.12).abs() < 1e-9);
        // Work finishing before the first event never pays for later churn.
        assert!((storm.capacity_tracking_makespan(0.25, 1.0) - 0.25).abs() < 1e-9);
        // Losing every core still terminates (throughput floored at one).
        let mut doomed = Scenario::paper("jacobi2d", 8, "cloudrefine");
        doomed.fail = (0..8)
            .map(|i| FailSpec { node: false, index: i, at_frac: 0.1, restore_frac: None })
            .collect();
        let t = doomed.capacity_tracking_makespan(1.0, 1.0);
        assert!(t.is_finite() && t > 1.0, "{t}");
    }

    #[test]
    fn phased_script_has_two_pulses_in_order() {
        let s = Scenario {
            bg: BgPattern::Phased,
            ..Scenario::paper("wave2d", 4, "cloudrefine")
        };
        let app = s.build_app();
        let script = s.bg_script(app.as_ref());
        assert_eq!(script.actions.len(), 4);
        let times: Vec<_> = script.actions.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
