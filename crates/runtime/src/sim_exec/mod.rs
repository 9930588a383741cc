//! The deterministic simulated executor.
//!
//! Drives an `IterativeApp` (see [`crate::program`]) over the
//! `cloudlb-sim` cluster in virtual time. Execution is message-driven, as
//! in Charm++: a chare runs iteration `k` once it has received all of its
//! neighbors' ghost messages for `k`, computes (consuming CPU on its core,
//! shared with any interfering background tasks), then sends ghosts for
//! `k+1`. Every `period` iterations the chares park at an AtSync barrier,
//! the runtime builds the LB database (task measurements + Eq. 2
//! background loads), runs the configured strategy, commits migrations
//! (charging network transfer time), and resumes.
//!
//! The executor is one `Sim` state with its `impl` split by concern.
//! This module holds the API, the state, the run loop and the hot-path
//! handlers (task start and completion, ghost delivery, interference);
//! `lb` the AtSync load-balancing step; `fault` failures and
//! global-rollback recovery; `membership` spot notices, revocations,
//! acquisitions and proactive evacuation; and `fastforward` the capture
//! and replay of steady-state windows. Everything — scheduling,
//! interference, failures, measurement, migration — is bit-for-bit
//! reproducible from the configuration.

mod fastforward;
mod fault;
mod lb;
mod membership;

use crate::atsync::AtSync;
use crate::comm::CommCsr;
use crate::config::RunConfig;
use crate::error::RuntimeError;
use crate::lbdb::{LbWindow, TaskSample, WindowQuality};
use crate::program::{validate_app, IterativeApp};
use crate::reduction::IterationTracker;
use crate::result::{ElasticStats, RunResult};
use cloudlb_balance::{LbStats, LbStrategy, TaskId};
use cloudlb_sim::core_sched::CoreEvent;
use cloudlb_sim::interference::{BgAction, BgLedger, BgScript};
use cloudlb_sim::{
    Cluster, Dur, EventQueue, FailureAction, FailureScript, FaultyNetwork, FgLabel,
    MembershipAction, MembershipScript, NetFaultSpec, Popped, ProcStat, TelemetryChannel,
    TelemetrySpec, Time,
};
use fastforward::FfState;
use membership::{acquired_nodes, validate_membership};
use std::collections::{HashMap, HashSet, VecDeque};

/// Events driving the simulation. Besides these, each core has a wake
/// timer in the queue (keyed by core index) set to its next completion
/// instant.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A ghost message for `iter` arrives at `chare`. Stale epochs (sent
    /// before a rollback) are dropped on delivery. `dup` marks a duplicate
    /// copy fabricated by the faulty network: the receiver's sequence
    /// numbering suppresses it on arrival (it was already counted in
    /// [`cloudlb_sim::NetStats::duplicates_dropped`] when generated).
    Msg { chare: usize, iter: usize, epoch: u32, dup: bool },
    /// Apply an interference action.
    Bg(BgAction),
    /// The LB step (strategy + migrations) finished.
    LbDone { epoch: u32 },
    /// Apply a failure action (kill/restore a core or node).
    Fail(FailureAction),
    /// The recovery pause (detection + restore + re-balance) finished.
    Recovered { epoch: u32 },
    /// Apply an elastic-membership action (notice/revoke/acquire/warm-up).
    Membership(MembershipAction),
    /// A proactively evacuated chare's state transfer lands on core `to`.
    /// Scheduled at notice time; stale epochs (a rollback intervened) are
    /// dropped.
    Evac { chare: usize, to: usize, epoch: u32 },
}

/// Per-chare lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    /// Waiting for ghost messages for `next_iter`.
    Waiting,
    /// In its PE's ready queue.
    Queued,
    /// Executing on its PE.
    Running,
    /// Parked at the AtSync barrier.
    Parked,
    /// Completed all iterations.
    Finished,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    chare: usize,
    iter: usize,
    start: Time,
    cpu: Dur,
}

/// Simulated-run executor. Construct, then [`SimExecutor::run`].
pub struct SimExecutor<'a> {
    app: &'a dyn IterativeApp,
    cfg: RunConfig,
    bg: BgScript,
    fail: FailureScript,
    telemetry: TelemetrySpec,
    net_fault: NetFaultSpec,
    membership: MembershipScript,
}

impl<'a> SimExecutor<'a> {
    /// Prepare a run of `app` under `cfg` with interference `bg`.
    pub fn new(app: &'a dyn IterativeApp, cfg: RunConfig, bg: BgScript) -> Self {
        validate_app(app);
        if let Some(c) = bg.max_core() {
            assert!(c < cfg.cluster.total_cores(), "bg script targets core {c} beyond cluster");
        }
        assert!(cfg.iterations > 0, "need at least one iteration");
        SimExecutor {
            app,
            cfg,
            bg,
            fail: FailureScript::none(),
            telemetry: TelemetrySpec::none(),
            net_fault: NetFaultSpec::none(),
            membership: MembershipScript::none(),
        }
    }

    /// Corrupt every `/proc/stat` read (and its paired clock) through the
    /// seeded telemetry channel described by `spec`. The ground-truth
    /// simulation is untouched — only what the runtime *measures* lies.
    pub fn with_telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = spec;
        self
    }

    /// Inject the failure schedule `fail` into the run. A script targeting
    /// a core beyond the cluster surfaces as
    /// [`RuntimeError::InvalidConfig`] from [`SimExecutor::try_run`] — user
    /// input (`--fail`) reaches this path, so it must not panic.
    pub fn with_failures(mut self, fail: FailureScript) -> Self {
        self.fail = fail;
        self
    }

    /// Degrade the interconnect through the seeded chaos layer described
    /// by `spec`: ghost messages suffer loss (masked by retransmission
    /// delay), duplication, reordering, jitter and bandwidth collapse, and
    /// migrations run through the reliable ARQ protocol in
    /// [`crate::netproto`] instead of the analytic clean-network costing.
    /// An inactive spec leaves the run byte-identical to the clean path.
    /// Invalid specs (partition endpoints beyond the cluster) surface as
    /// [`RuntimeError::InvalidConfig`] from [`SimExecutor::try_run`].
    pub fn with_net_faults(mut self, spec: NetFaultSpec) -> Self {
        self.net_fault = spec;
        self
    }

    /// Inject the elastic-membership schedule `script`: spot preemption
    /// notices (followed by hard revocations) against initial nodes, and
    /// acquisitions of the cluster's *trailing* nodes, which start dead
    /// (latent capacity) and attach when their `Acquire` action fires. An
    /// inconsistent script — out-of-range nodes, acquisitions that are not
    /// the trailing nodes, notices against acquired nodes — surfaces as
    /// [`RuntimeError::InvalidConfig`] from [`SimExecutor::try_run`].
    pub fn with_membership(mut self, script: MembershipScript) -> Self {
        self.membership = script;
        self
    }

    /// Execute the run to completion and return its metrics. Panics if a
    /// failure turns out unrecoverable; use [`SimExecutor::try_run`] when
    /// injecting failures.
    pub fn run(self) -> RunResult {
        self.try_run().unwrap_or_else(|e| panic!("simulated run failed: {e}"))
    }

    /// Execute the run to completion, reporting unrecoverable failures
    /// (checkpointing disabled, both checkpoint copies lost, all PEs dead)
    /// as typed errors instead of panicking.
    pub fn try_run(self) -> Result<RunResult, RuntimeError> {
        let strategy =
            self.cfg.lb.try_strategy().map_err(RuntimeError::InvalidConfig)?;
        self.try_run_with_strategy(strategy)
    }

    /// Execute with an explicit strategy object (bypasses the registry;
    /// used for the gain-gated wrapper and custom strategies).
    pub fn run_with_strategy(self, strategy: Box<dyn LbStrategy>) -> RunResult {
        self.try_run_with_strategy(strategy)
            .unwrap_or_else(|e| panic!("simulated run failed: {e}"))
    }

    /// Fallible variant of [`SimExecutor::run_with_strategy`].
    pub fn try_run_with_strategy(
        self,
        strategy: Box<dyn LbStrategy>,
    ) -> Result<RunResult, RuntimeError> {
        use RuntimeError::InvalidConfig;
        let (total, nodes) = (self.cfg.cluster.total_cores(), self.cfg.cluster.nodes);
        self.cfg.try_resolved_speeds().map_err(InvalidConfig)?;
        let max_core = self.fail.max_core(self.cfg.cluster.cores_per_node);
        if let Some(c) = max_core.filter(|&c| c >= total) {
            return Err(InvalidConfig(format!(
                "failure script targets core {c} beyond the {total}-core cluster"
            )));
        }
        let bad_net = |e: String| InvalidConfig(format!("network fault spec: {e}"));
        self.net_fault.validate(nodes).map_err(bad_net)?;
        validate_membership(&self.membership, nodes).map_err(InvalidConfig)?;
        Sim::new(self, strategy).run()
    }
}

struct Sim<'a> {
    app: &'a dyn IterativeApp,
    cfg: RunConfig,
    strategy: Box<dyn LbStrategy>,

    queue: EventQueue<Ev>,
    cluster: Cluster,
    ledger: BgLedger,
    /// Background jobs seen starting (for penalty reporting).
    seen_bg: Vec<u32>,

    /// chare → core.
    mapping: Vec<usize>,
    /// Per-core FIFO of ready chares.
    ready: Vec<VecDeque<usize>>,
    /// Per-core running task record.
    running: Vec<Option<Running>>,
    /// Scratch for the cores due at the popped instant.
    due: Vec<usize>,
    /// Scratch for the cores the cluster advanced or mutated this event.
    touched: Vec<usize>,
    /// Ghost counters, structure-of-arrays: two slots per chare at
    /// `chare * 2 + (iter & 1)`. At most two in-flight iterations' worth
    /// of ghosts exist per chare at any instant, so the parity bit
    /// disambiguates them; `inbox_iter` tags which iteration a slot's
    /// count belongs to (a stale tag reads as zero). Replaces a
    /// `HashMap<(chare, iter), count>` whose rehashing dominated the
    /// delivery hot path at 1M chares.
    inbox_count: Vec<u32>,
    /// Iteration tag per inbox slot (see `inbox_count`).
    inbox_iter: Vec<usize>,
    /// chare → next iteration to execute.
    next_iter: Vec<usize>,
    /// chare → expected ghosts per iteration (= neighbor count).
    expected: Vec<usize>,
    state: Vec<CState>,

    tracker: IterationTracker,
    atsync: AtSync,
    window: LbWindow,
    /// Scratch buffer for core completions, reused across every event-loop
    /// iteration (the hottest allocation in the repo before it was hoisted).
    completions: Vec<(Time, CoreEvent)>,
    /// The per-window communication graph, identical every window (the
    /// topology and LB period are fixed), built once and memcpy'd in.
    comm_template: Vec<cloudlb_balance::CommEdge>,
    /// Corrupts every `/proc/stat` read when telemetry noise is enabled.
    telemetry: Option<TelemetryChannel>,
    /// Degrades every cross-node message when network chaos is enabled;
    /// `None` keeps the clean path byte-identical to earlier builds.
    netfault: Option<FaultyNetwork>,
    /// Chares whose migration aborted since the last LB step; reported to
    /// the strategy through `LbStats::failed_tasks` so it re-plans around
    /// (or re-attempts) them.
    pending_failed: Vec<TaskId>,
    /// Validation anomalies accumulated over all closed windows.
    window_quality: WindowQuality,
    /// Relative speed per core (occupancy = work / speed).
    speeds: Vec<f64>,

    /// Flat CSR adjacency shared by the ghost-send hot loop, the expected
    /// ghost counts and the per-window comm graph.
    comm: CommCsr,
    /// The fast-forward engine: its capture, template and counters.
    ff: FfState,
    /// The LB-database snapshot, owned across windows so a boundary at 1M
    /// chares rebuilds it in place instead of reallocating every vector.
    stats_scratch: LbStats,

    /// Current rollback epoch; messages and LbDone/Recovered events from
    /// older epochs are stale and dropped.
    epoch: u32,
    /// Last application checkpoint: `(iteration, mapping)`. `None` when
    /// checkpointing is disabled.
    ckpt: Option<(usize, Vec<usize>)>,
    /// Iteration of the LB boundary currently in progress.
    lb_boundary: usize,

    finished: usize,
    app_end: Option<Time>,
    energy: Option<cloudlb_sim::power::EnergyReport>,
    pending_bg: usize,
    lb_steps: usize,
    migrations: usize,
    migration_bytes: u64,
    local_msgs: u64,
    remote_msgs: u64,
    failures: usize,
    recoveries: usize,
    replayed_iters: usize,
    recovery_time: Dur,

    /// Per-core spot-notice flag: a doomed core is a zero-capacity source
    /// that must fully empty before its node's revocation deadline.
    doomed: Vec<bool>,
    /// Per-core "acquired but still warming up" flag: the core is alive but
    /// not yet a migration target.
    warming: Vec<bool>,
    /// Per-core "just warmed up" flag: strategies should eagerly refill
    /// these empty cores. One-shot — cleared after the next planning pass.
    fresh: Vec<bool>,
    /// Proactively evacuated chares with a state transfer in flight:
    /// chare → planned destination core. Lookups only (never iterated), so
    /// the hashing order cannot leak into the simulation.
    pending_evac: HashMap<usize, usize>,
    /// Evacuated chares that were Running/Queued when their core was
    /// revoked mid-transfer: they must re-enter a ready queue on landing
    /// (their boundary ghosts were already consumed, so `maybe_ready`
    /// would never fire for them again).
    rescue_runnable: HashSet<usize>,
    /// Per-node: a proactive evacuation was started for this node's notice.
    evac_attempted: Vec<bool>,
    /// Elastic-membership counters reported in the result.
    elastic: ElasticStats,
}

impl<'a> Sim<'a> {
    /// Set up the run `exec` describes (validated by
    /// [`SimExecutor::try_run_with_strategy`]) under `strategy`.
    fn new(exec: SimExecutor<'a>, strategy: Box<dyn LbStrategy>) -> Self {
        let SimExecutor { app, cfg, bg, fail, telemetry, net_fault, membership } = exec;
        let pes = cfg.cluster.total_cores();
        let n = app.num_chares();
        let mut cluster = Cluster::new(cfg.cluster.clone());
        // Nodes the membership script acquires mid-run are latent capacity:
        // they exist in the cluster's address space (always the trailing
        // nodes — validated up front) but start dead and only attach when
        // their `Acquire` action fires. The initial placement therefore
        // covers exactly the leading, active cores.
        let mut active_pes = pes;
        for node in acquired_nodes(&membership) {
            for core in cluster.cores_of_node(node) {
                cluster.kill_core(core);
                active_pes -= 1;
            }
        }
        let mapping = cfg.initial_map.place(n, active_pes);
        let mut telemetry =
            telemetry.is_active().then(|| TelemetryChannel::new(telemetry, cfg.seed));
        // Fractional partition windows resolve against the same idealized
        // run-length estimate `Scenario` uses, so `rack:0.45~0.5` means
        // "around 45–50% through the run" regardless of cluster size.
        let netfault = net_fault.is_active().then(|| {
            let work: f64 = (0..n).map(|i| app.task_cost(i, 0)).sum();
            let horizon = Dur::from_secs_f64(cfg.iterations as f64 * work / pes as f64);
            FaultyNetwork::new(net_fault, cfg.network, cfg.seed, horizon)
        });
        let truth = ProcStat::snapshot(&cluster);
        let (start_stat, start_clock) = match &mut telemetry {
            Some(ch) => truth.observe_through(ch, Time::ZERO),
            None => (truth, Time::ZERO),
        };
        let window = LbWindow::open(pes, n, start_clock, start_stat, cfg.lb.instrument);

        let mut queue = EventQueue::new();
        let mut pending_bg = 0;
        for (t, action) in &bg.actions {
            if let BgAction::Start { demand: Some(_), .. } = action {
                pending_bg += 1;
            }
            queue.schedule(*t, Ev::Bg(*action));
        }
        for (t, action) in &fail.actions {
            queue.schedule(*t, Ev::Fail(*action));
        }
        for (t, action) in &membership.actions {
            queue.schedule(*t, Ev::Membership(*action));
        }

        // Flatten the topology once: the executor walks this CSR on every
        // task completion instead of re-allocating neighbor vectors.
        let comm = CommCsr::build(app);
        let expected = (0..n).map(|i| comm.degree(i)).collect();
        let tracker = IterationTracker::new(n, cfg.iterations);
        let atsync = AtSync::new(cfg.lb.period);
        let speeds = cfg.resolved_speeds();
        // Instrument the communication graph for comm-aware strategies:
        // each neighbor pair exchanges one message per direction per
        // iteration, `period` iterations per window. The graph never
        // changes between windows, so it is built exactly once.
        let period = cfg.lb.period as u64;
        let mut comm_template = Vec::new();
        for chare in 0..n {
            for (nb, fwd) in comm.neighbors_of(chare) {
                if nb > chare {
                    let back =
                        comm.bytes_between(nb, chare).expect("validate_app guarantees symmetry");
                    comm_template.push(cloudlb_balance::CommEdge {
                        a: TaskId(chare as u64),
                        b: TaskId(nb as u64),
                        bytes: (fwd + back) as u64 * period,
                    });
                }
            }
        }
        // The initial placement is itself a checkpoint: a failure before
        // the first boundary rolls back to iteration 0.
        let ckpt = (!matches!(cfg.checkpoints, crate::checkpoint::CheckpointPolicy::Disabled))
            .then(|| (0, mapping.clone()));

        Sim {
            app,
            strategy,
            queue,
            cluster,
            ledger: BgLedger::new(),
            seen_bg: Vec::new(),
            mapping,
            // Each PE's ready queue holds at most its share of the chares;
            // sizing them up front keeps the steady state reallocation-free.
            ready: (0..pes).map(|_| VecDeque::with_capacity(n.div_ceil(pes) + 1)).collect(),
            running: vec![None; pes],
            due: Vec::new(),
            touched: Vec::with_capacity(pes),
            inbox_count: vec![0; 2 * n],
            inbox_iter: vec![0; 2 * n],
            next_iter: vec![0; n],
            expected,
            state: vec![CState::Queued; n],
            tracker,
            atsync,
            window,
            completions: Vec::with_capacity(pes + 1),
            comm_template,
            telemetry,
            netfault,
            pending_failed: Vec::new(),
            window_quality: WindowQuality::default(),
            speeds,
            comm,
            ff: FfState::new(&cfg),
            stats_scratch: LbStats::new(0),
            epoch: 0,
            ckpt,
            lb_boundary: 0,
            finished: 0,
            app_end: None,
            energy: None,
            pending_bg,
            lb_steps: 0,
            migrations: 0,
            migration_bytes: 0,
            local_msgs: 0,
            remote_msgs: 0,
            failures: 0,
            recoveries: 0,
            replayed_iters: 0,
            recovery_time: Dur::ZERO,
            doomed: vec![false; pes],
            warming: vec![false; pes],
            fresh: vec![false; pes],
            pending_evac: HashMap::new(),
            rescue_runnable: HashSet::new(),
            evac_attempted: vec![false; cfg.cluster.nodes],
            elastic: ElasticStats::default(),
            cfg,
        }
    }

    fn num_pes(&self) -> usize {
        self.ready.len()
    }

    fn run(mut self) -> Result<RunResult, RuntimeError> {
        // Iteration 0 needs no messages: everyone starts queued.
        for chare in 0..self.app.num_chares() {
            let pe = self.mapping[chare];
            self.ready[pe].push_back(chare);
        }
        for pe in 0..self.num_pes() {
            self.try_start(pe, Time::ZERO);
            self.queue.set_timer(pe, self.cluster.next_completion(pe));
        }
        self.cluster.drain_touched(&mut self.touched);

        while !(self.app_end.is_some() && self.pending_bg == 0) {
            let Some((t, popped)) = self.queue.pop() else {
                return Err(RuntimeError::Deadlock {
                    app_done: self.app_end.is_some(),
                    pending_bg: self.pending_bg,
                });
            };
            // Advance the cores due at `t` (plus those the cluster keeps
            // eager); completions land exactly at `t` because wake timers
            // are kept in sync with composition changes.
            self.ff.record_pop(t);
            self.queue.timers_due(t, &mut self.due);
            let mut completions = std::mem::take(&mut self.completions);
            self.cluster.advance_due_into(t, &self.due, &mut completions);
            for &(ct, ce) in &completions {
                debug_assert_eq!(ct, t, "late completion discovered: {ce:?} at {ct:?} vs {t:?}");
                match ce {
                    CoreEvent::FgDone { core } => self.on_task_done(core, ct),
                    CoreEvent::BgDone { core: _, job } => {
                        self.ledger.on_task_done(job, ct);
                        self.pending_bg -= 1;
                    }
                }
            }
            self.completions = completions;
            // A wake timer's completions were handled above.
            if let Popped::Event(ev) = popped {
                match ev {
                    Ev::Msg { dup: true, .. } => {} // duplicate copy: seq-suppressed
                    Ev::Msg { chare, iter, epoch, dup: false } if epoch == self.epoch => {
                        self.on_msg(chare, iter, t)
                    }
                    Ev::Msg { .. } => {} // stale: sent before a rollback
                    Ev::Bg(action) => self.on_bg(action, t),
                    Ev::LbDone { epoch } if epoch == self.epoch => self.on_lb_done(t),
                    Ev::LbDone { .. } => {} // LB step interrupted by a failure
                    Ev::Fail(action) => self.on_fail(action, t)?,
                    Ev::Recovered { epoch } if epoch == self.epoch => self.on_recovered(t),
                    Ev::Recovered { .. } => {} // superseded by a later failure
                    Ev::Membership(action) => self.on_membership(action, t)?,
                    Ev::Evac { chare, to, epoch } if epoch == self.epoch => {
                        self.on_evac(chare, to, t)?
                    }
                    Ev::Evac { .. } => {} // cancelled by a rollback
                }
            }
            // Move the wakes of the cores whose next completion may have
            // changed, in ascending order. Every other core's wake is
            // already at its next completion.
            let mut touched = std::mem::take(&mut self.touched);
            self.cluster.drain_touched(&mut touched);
            for &core in &touched {
                self.queue.set_timer(core, self.cluster.next_completion(core));
            }
            self.touched = touched;
            #[cfg(debug_assertions)]
            self.check_wakes();
            // A window that ended at `t` closes its capture only now, so a
            // boundary ghost that popped at the same instant as the final
            // park has reached the inbox and the template sees it.
            self.ff_close_due(t);
        }

        let end = self.app_end.expect("loop exited before app completion");
        let penalty = |&job: &u32| Some((job, self.ledger.timing_penalty(job)?));
        let bg_penalties = self.seen_bg.iter().filter_map(penalty).collect();
        Ok(RunResult {
            app_time: end.since(Time::ZERO),
            iter_times: self.tracker.iteration_times(),
            energy: self.energy.expect("energy metered at app completion"),
            bg_penalties,
            lb_steps: self.lb_steps,
            migrations: self.migrations,
            migration_bytes: self.migration_bytes,
            final_mapping: self.mapping.clone(),
            local_msgs: self.local_msgs,
            remote_msgs: self.remote_msgs,
            trace: self.cluster.take_trace(),
            end_time: end,
            failures: self.failures,
            recoveries: self.recoveries,
            replayed_iters: self.replayed_iters,
            recovery_time: self.recovery_time,
            telemetry: self.window_quality,
            decisions: self.strategy.decision_quality(),
            net: self.netfault.as_ref().map(|c| c.stats).unwrap_or_default(),
            sim_events: self.queue.total_popped() + self.ff.events_skipped,
            peak_queue_depth: self.queue.peak_depth(),
            ff_windows: self.ff.windows,
            events_skipped: self.ff.events_skipped,
            elastic: self.elastic,
        })
    }

    /// Shadow check after every event (debug builds): each core's cached
    /// next completion equals a fresh recompute, and its wake timer is set
    /// to it — pending, unless the wake fired at that very instant and
    /// nothing about the core changed since (such a core stays due).
    #[cfg(debug_assertions)]
    fn check_wakes(&self) {
        for core in 0..self.num_pes() {
            assert!(self.cluster.completion_cache_is_fresh(core), "core {core}: stale cache");
            let next = self.cluster.next_completion(core);
            assert_eq!(self.queue.timer(core), next, "core {core}: wake off its completion");
        }
    }

    /// Chare-state shadow check at AtSync releases and after replays
    /// (debug builds): a chare is `Queued` exactly when it sits, once, in
    /// its PE's ready queue, and `Running` exactly when its PE's running
    /// record names it; after a replay every chare is `Parked`.
    #[cfg(debug_assertions)]
    fn check_chares(&self, all_parked: bool) {
        let mut queued = vec![0usize; self.state.len()];
        for (pe, ready) in self.ready.iter().enumerate() {
            for &chare in ready {
                assert_eq!(self.mapping[chare], pe, "chare {chare} queued off its PE");
                queued[chare] += 1;
            }
        }
        let mut running = vec![false; self.state.len()];
        for run in self.running.iter().flatten() {
            assert!(!running[run.chare], "chare {} runs twice", run.chare);
            running[run.chare] = true;
        }
        for (chare, &state) in self.state.iter().enumerate() {
            let queued_once = usize::from(state == CState::Queued);
            assert_eq!(queued[chare], queued_once, "chare {chare}: {state:?}");
            assert_eq!(running[chare], state == CState::Running, "chare {chare}: {state:?}");
            assert!(!all_parked || state == CState::Parked, "chare {chare} replayed: {state:?}");
        }
    }

    /// Start the next ready task on `pe` if the core is alive and free and
    /// no LB step is in progress.
    fn try_start(&mut self, pe: usize, now: Time) {
        if !self.cluster.is_alive(pe) || self.atsync.lb_in_progress() || self.cluster.fg_busy(pe)
        {
            return;
        }
        let Some(chare) = self.ready[pe].pop_front() else {
            return;
        };
        debug_assert_eq!(self.state[chare], CState::Queued);
        let iter = self.next_iter[chare];
        // Occupancy on this core: work, perturbed by noise, divided by the
        // core's delivered speed.
        let cpu = Dur::from_secs_f64(
            self.app.task_cost(chare, iter) * self.cost_noise(chare, iter) / self.speeds[pe],
        );
        self.cluster.start_fg(pe, FgLabel { chare: chare as u64 }, cpu, 1.0);
        self.ff.record_start(pe, cpu);
        self.running[pe] = Some(Running { chare, iter, start: now, cpu });
        self.state[chare] = CState::Running;
    }

    fn on_task_done(&mut self, core: usize, now: Time) {
        let run = self.running[core].take().expect("FgDone without a running record");
        let Running { chare, iter, start, cpu } = run;
        self.state[chare] = CState::Waiting;
        self.window.record(TaskSample {
            task: TaskId(chare as u64),
            pe: core,
            cpu,
            wall: now.since(start),
        });
        self.ff.record_completion(now, run, self.queue.next_seq());

        // Send ghosts for the next iteration (indexed CSR walk: the range
        // is computed up front so no borrow outlives the mutations below).
        let next = iter + 1;
        if next < self.cfg.iterations {
            for e in self.comm.row(chare) {
                let nb = self.comm.neighbor(e);
                let bytes = self.comm.edge_bytes(e);
                let (from_pe, to_pe) = (self.mapping[chare], self.mapping[nb]);
                let same = self.cluster.same_node(from_pe, to_pe);
                if same {
                    self.local_msgs += 1;
                } else {
                    self.remote_msgs += 1;
                }
                let epoch = self.epoch;
                match self.netfault.as_mut() {
                    None => {
                        let delay = self.cfg.network.delay(bytes, same);
                        self.queue
                            .schedule(now + delay, Ev::Msg { chare: nb, iter: next, epoch, dup: false });
                    }
                    Some(ch) => {
                        // Ghosts ride the reliable transport: losses show
                        // up as retransmission delay, duplicates as extra
                        // (suppressed) deliveries, partitions as stalls
                        // until the heal.
                        let d = ch.deliver(
                            now,
                            bytes,
                            same,
                            self.cluster.node_of(from_pe),
                            self.cluster.node_of(to_pe),
                        );
                        self.queue
                            .schedule(d.arrival, Ev::Msg { chare: nb, iter: next, epoch, dup: false });
                        if let Some(td) = d.dup {
                            self.queue
                                .schedule(td, Ev::Msg { chare: nb, iter: next, epoch, dup: true });
                        }
                    }
                }
            }
        }

        // Contribute to the iteration reduction.
        self.tracker.contribute(iter, now);

        // Decide this chare's continuation.
        if next >= self.cfg.iterations {
            self.state[chare] = CState::Finished;
            self.finished += 1;
            if self.finished == self.app.num_chares() {
                self.app_end = Some(now);
                self.energy = Some(self.cfg.power.meter(&self.cluster, now));
            }
        } else if self.atsync.is_boundary(next) {
            self.state[chare] = CState::Parked;
            self.next_iter[chare] = next;
            if self.atsync.park(chare, self.app.num_chares()) {
                self.lb_boundary = next;
                self.start_lb(now);
            }
        } else {
            self.next_iter[chare] = next;
            self.maybe_ready(chare, now);
        }

        self.try_start(core, now);
    }

    /// Inbox slot of `(chare, iter)` — the iteration's parity bit picks
    /// between the chare's two slots.
    fn inbox_slot(chare: usize, iter: usize) -> usize {
        chare * 2 + (iter & 1)
    }

    /// Ghosts received so far for `(chare, iter)`; a slot tagged with a
    /// different iteration holds no ghosts for this one.
    fn inbox_get(&self, chare: usize, iter: usize) -> usize {
        let s = Self::inbox_slot(chare, iter);
        if self.inbox_iter[s] == iter {
            self.inbox_count[s] as usize
        } else {
            0
        }
    }

    fn on_msg(&mut self, chare: usize, iter: usize, now: Time) {
        let s = Self::inbox_slot(chare, iter);
        if self.inbox_iter[s] != iter {
            // The two-slot invariant guarantees the slot's previous
            // iteration was fully consumed before this one reuses it.
            debug_assert_eq!(self.inbox_count[s], 0, "unconsumed ghosts overwritten");
            self.inbox_iter[s] = iter;
            self.inbox_count[s] = 0;
        }
        self.inbox_count[s] += 1;
        if self.state[chare] == CState::Waiting && self.next_iter[chare] == iter {
            self.maybe_ready(chare, now);
        }
    }

    /// Queue `chare` if all ghosts for its next iteration have arrived.
    fn maybe_ready(&mut self, chare: usize, now: Time) {
        debug_assert_eq!(self.state[chare], CState::Waiting);
        let iter = self.next_iter[chare];
        let have = self.inbox_get(chare, iter);
        if have >= self.expected[chare] {
            self.inbox_count[Self::inbox_slot(chare, iter)] = 0;
            self.enqueue(chare, self.mapping[chare], now);
        }
    }

    /// Put `chare` in `pe`'s ready queue and start it if the core is free.
    fn enqueue(&mut self, chare: usize, pe: usize, now: Time) {
        self.ready[pe].push_back(chare);
        self.state[chare] = CState::Queued;
        self.try_start(pe, now);
    }

    fn on_bg(&mut self, action: BgAction, now: Time) {
        // Defensive: a window touched by interference is not steady-state
        // (the begin-of-window queue scan already declines such captures,
        // since every bg action is scheduled up front).
        self.ff.void();
        match action {
            BgAction::Start { job, core, demand, weight } => {
                if !self.cluster.is_alive(core) {
                    // The interfering tenant's VM shared the failed
                    // hardware: the job never starts.
                    if demand.is_some() {
                        self.pending_bg -= 1;
                    }
                    if let Some(t) = self.cluster.trace_mut() {
                        t.marker(
                            now.as_us(),
                            format!("bg job {job} not started: core {core} is down"),
                        );
                    }
                    return;
                }
                self.cluster.add_bg(core, job, demand, weight);
                self.ledger.on_start(job, now, demand);
                if !self.seen_bg.contains(&job) {
                    self.seen_bg.push(job);
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("bg job {job} starts on core {core}"));
                }
            }
            BgAction::Stop { job, core } => {
                self.cluster.remove_bg(core, job);
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("bg job {job} leaves core {core}"));
                }
            }
        }
    }

    /// Deterministic per-execution cost perturbation (see
    /// [`RunConfig::cost_noise_frac`]).
    fn cost_noise(&self, chare: usize, iter: usize) -> f64 {
        let f = self.cfg.cost_noise_frac;
        if f == 0.0 {
            return 1.0;
        }
        let key = self
            .cfg
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((chare as u64) << 32 | iter as u64);
        let u = cloudlb_sim::SimRng::new(key).f64();
        (1.0 + f * (2.0 * u - 1.0)).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LbConfig;
    use crate::program::SyntheticApp;
    use cloudlb_sim::ClusterConfig;
    use cloudlb_trace::Activity;

    /// A one-node, four-core run with an LB step every 5 iterations.
    pub(super) fn small_cfg(iters: usize, strategy: &str) -> RunConfig {
        RunConfig {
            cluster: ClusterConfig { nodes: 1, cores_per_node: 4, trace: false },
            lb: LbConfig { strategy: strategy.into(), period: 5, ..Default::default() },
            iterations: iters,
            ..RunConfig::paper(4, iters)
        }
    }

    #[test]
    fn interference_free_run_completes_with_uniform_iterations() {
        let app = SyntheticApp::ring(16, 0.001);
        let r = SimExecutor::new(&app, small_cfg(10, "nolb"), BgScript::none()).run();
        assert_eq!(r.iter_times.len(), 10);
        assert_eq!(r.lb_steps, 1); // boundary before iteration 5
        assert_eq!(r.migrations, 0);
        assert_eq!(r.failures, 0);
        assert_eq!(r.recoveries, 0);
        // 4 chares per core × 1 ms each ≈ 4 ms per iteration (+ latency).
        let mean = r.mean_iter_s();
        assert!((0.004..0.006).contains(&mean), "mean iter {mean}");
    }

    #[test]
    fn interference_doubles_nolb_iterations() {
        let app = SyntheticApp::ring(16, 0.001);
        let base = SimExecutor::new(&app, small_cfg(10, "nolb"), BgScript::none()).run();
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let run = SimExecutor::new(&app, small_cfg(10, "nolb"), bg).run();
        let penalty = run.timing_penalty_vs(&base);
        assert!(penalty > 0.7, "expected ~100% penalty, got {penalty}");
    }

    #[test]
    fn deterministic_runs() {
        let app = SyntheticApp::ring(16, 0.0005);
        let bg = BgScript::steady(3, &[1], Time::from_us(500), Some(Dur::from_ms(30)), 1.0);
        let a = SimExecutor::new(&app, small_cfg(12, "cloudrefine"), bg.clone()).run();
        let b = SimExecutor::new(&app, small_cfg(12, "cloudrefine"), bg).run();
        assert_eq!(a.app_time, b.app_time);
        assert_eq!(a.iter_times, b.iter_times);
        assert_eq!(a.final_mapping, b.final_mapping);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn finite_bg_job_reports_penalty() {
        let app = SyntheticApp::ring(16, 0.001);
        // BG job with 20 ms of work per core on 2 cores, fair sharing.
        let bg = BgScript::steady(7, &[0, 1], Time::ZERO, Some(Dur::from_ms(20)), 1.0);
        let r = SimExecutor::new(&app, small_cfg(30, "nolb"), bg).run();
        let p = r.bg_penalties.get(&7).copied().expect("bg job finished");
        assert!(p > 0.3, "bg competed with the app, penalty {p}");
    }

    #[test]
    fn bg_job_mostly_alone_has_small_penalty() {
        // A short app (2 iterations) next to a long bg job: almost all of
        // the bg's work runs after the app ends, at full speed.
        let app = SyntheticApp::ring(16, 0.001);
        let bg = BgScript::steady(1, &[0, 1], Time::ZERO, Some(Dur::from_ms(200)), 1.0);
        let r = SimExecutor::new(&app, small_cfg(2, "nolb"), bg).run();
        let p = r.bg_penalties.get(&1).copied().expect("finished");
        assert!(p < 0.1, "bg barely impeded, penalty {p}");
        // Contrast: a bg job that competes for its whole life.
        let bg = BgScript::steady(2, &[0, 1], Time::ZERO, Some(Dur::from_ms(10)), 1.0);
        let r2 = SimExecutor::new(&app, small_cfg(30, "nolb"), bg).run();
        let p2 = r2.bg_penalties.get(&2).copied().expect("finished");
        assert!(p2 > p, "competing bg {p2} vs mostly-alone {p}");
    }

    #[test]
    fn trace_records_tasks_and_markers() {
        let app = SyntheticApp::ring(8, 0.001);
        let cfg = small_cfg(6, "cloudrefine").with_trace();
        let bg = BgScript::pulse(0, 2, Time::from_us(100), Time::from_us(20_000), 1.0);
        let r = SimExecutor::new(&app, cfg, bg).run();
        let trace = r.trace.expect("tracing enabled");
        assert!(trace.markers().iter().any(|(_, l)| l.contains("bg job 0 starts")));
        let tasks = trace.time_where(0, 0, u64::MAX, |a| matches!(a, Activity::Task { .. }));
        assert!(tasks > 0);
    }

    #[test]
    #[should_panic(expected = "beyond cluster")]
    fn bg_script_outside_cluster_rejected() {
        let app = SyntheticApp::ring(8, 0.001);
        let bg = BgScript::steady(0, &[99], Time::ZERO, None, 1.0);
        SimExecutor::new(&app, small_cfg(5, "nolb"), bg);
    }


    #[test]
    fn flaky_network_is_deterministic_and_reports_damage() {
        let app = SyntheticApp::ring(32, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let mut cfg = RunConfig::paper(8, 30);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        let run = || {
            SimExecutor::new(&app, cfg.clone(), bg.clone())
                .with_net_faults(cloudlb_sim::NetFaultSpec::flaky_cloud())
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.app_time, b.app_time);
        assert_eq!(a.final_mapping, b.final_mapping);
        assert_eq!(a.net, b.net);
        // The app still completes every iteration — chaos delays work but
        // never loses it.
        assert_eq!(a.iter_times.len(), 30);
        assert!(
            a.net.lost_copies + a.net.retransmits + a.net.duplicates_dropped > 0,
            "flaky_cloud must damage some traffic: {:?}",
            a.net
        );
        assert!(a.net.partition_us > 0, "flaky_cloud schedules a partition");
        // Conservation: every chare exists exactly once, on a real core.
        assert_eq!(a.final_mapping.len(), 32);
        assert!(a.final_mapping.iter().all(|&p| p < 8));
    }

    #[test]
    fn clean_network_reports_zero_net_stats() {
        let app = SyntheticApp::ring(16, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let r = SimExecutor::new(&app, small_cfg(20, "cloudrefine"), bg).run();
        assert_eq!(r.net, cloudlb_sim::NetStats::default());
    }

    #[test]
    fn bad_partition_spec_is_invalid_config() {
        use cloudlb_sim::{PartitionScope, PartitionWindow};
        let app = SyntheticApp::ring(8, 0.001);
        let mut spec = cloudlb_sim::NetFaultSpec::none();
        spec.partitions.push(PartitionWindow {
            scope: PartitionScope::NodePair { a: 0, b: 9 },
            from_frac: 0.1,
            to_frac: 0.2,
        });
        let err = SimExecutor::new(&app, small_cfg(5, "nolb"), BgScript::none())
            .with_net_faults(spec)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn failure_script_outside_cluster_is_invalid_config() {
        let app = SyntheticApp::ring(8, 0.001);
        let err = SimExecutor::new(&app, small_cfg(5, "nolb"), BgScript::none())
            .with_failures(FailureScript::kill_core(64, Time::ZERO))
            .try_run()
            .expect_err("core 64 does not exist");
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "got {err}");
    }

    #[test]
    fn empty_queue_before_the_end_is_a_typed_deadlock() {
        // A finite background task that is owed a completion but was never
        // scheduled: the queue drains after the app ends.
        let app = SyntheticApp::ring(8, 0.001);
        let cfg = small_cfg(5, "nolb");
        let strategy = cfg.lb.try_strategy().unwrap();
        let mut sim = Sim::new(SimExecutor::new(&app, cfg, BgScript::none()), strategy);
        sim.pending_bg = 1;
        let err = sim.run().unwrap_err();
        assert_eq!(err, RuntimeError::Deadlock { app_done: true, pending_bg: 1 });
        assert!(err.to_string().contains("app done and 1 bg tasks pending"), "{err}");
    }
}
