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
//! # Fault tolerance
//!
//! A [`FailureScript`] kills and restores cores (or whole nodes) at
//! scheduled instants. The executor keeps an application checkpoint —
//! `(boundary iteration, mapping)`, taken after the migration commit at
//! AtSync boundaries selected by [`crate::checkpoint::CheckpointPolicy`] —
//! and recovers from a kill with the classic global-rollback protocol:
//!
//! 1. every surviving core abandons its in-flight task; all undelivered
//!    messages are invalidated (an epoch counter tags every message, so
//!    stale deliveries are dropped rather than chased down);
//! 2. the checkpointed mapping is restored; chares owned by a dead core
//!    come back from the replica on their *buddy* core
//!    ([`Cluster::buddy_of`] — the same slot on the next node, so a node
//!    failure never takes both copies);
//! 3. the LB strategy re-runs over the *surviving* cores (the database is
//!    compacted so a dead core's zero load cannot attract work), with
//!    [`cloudlb_balance::sanitize_plan`] as a safety net against any plan
//!    still referencing a dead target;
//! 4. after a pause pricing failure detection, the strategy step and the
//!    post-restore state transfers, every chare replays from the
//!    checkpointed iteration.
//!
//! Restored cores re-join empty and receive work again at the next regular
//! LB boundary. Everything — scheduling, interference, failures,
//! measurement, migration — is bit-for-bit reproducible from the
//! configuration.

use crate::atsync::AtSync;
use crate::comm::CommCsr;
use crate::config::{FastForward, RunConfig};
use crate::error::RuntimeError;
use crate::fastforward::{
    Capture, FfMsg, FfSample, FfStart, HostCapture, HostTemplate, WindowStart, WindowTemplate,
};
use crate::lbdb::{LbWindow, TaskSample, WindowQuality};
use crate::migration;
use crate::netproto;
use crate::program::{validate_app, IterativeApp};
use crate::reduction::IterationTracker;
use crate::result::{ElasticStats, RunResult};
use cloudlb_balance::{LbStats, LbStrategy, Migration, TaskId, TaskInfo};
use cloudlb_sim::core_sched::{Core, CoreEvent};
use cloudlb_sim::interference::{BgAction, BgLedger, BgScript};
use cloudlb_sim::{
    Cluster, Dur, EventHandle, EventQueue, FailureAction, FailureScript, FaultyNetwork, FgLabel,
    MembershipAction, MembershipScript, NetFaultSpec, Popped, ProcStat, TelemetryChannel,
    TelemetrySpec, Time,
};
use cloudlb_trace::Activity;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

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
        let total = self.cfg.cluster.total_cores();
        if let Err(e) = self.cfg.try_resolved_speeds() {
            return Err(RuntimeError::InvalidConfig(e));
        }
        if let Some(c) = self.fail.max_core(self.cfg.cluster.cores_per_node) {
            if c >= total {
                return Err(RuntimeError::InvalidConfig(format!(
                    "failure script targets core {c} beyond the {total}-core cluster"
                )));
            }
        }
        if let Err(e) = self.net_fault.validate(self.cfg.cluster.nodes) {
            return Err(RuntimeError::InvalidConfig(format!("network fault spec: {e}")));
        }
        if let Err(e) = validate_membership(&self.membership, self.cfg.cluster.nodes) {
            return Err(RuntimeError::InvalidConfig(e));
        }
        Sim::new(
            self.app,
            self.cfg,
            &self.bg,
            &self.fail,
            self.telemetry,
            self.net_fault,
            &self.membership,
            strategy,
        )
        .run()
    }
}

/// Distinct nodes acquired by `script`, ascending.
fn acquired_nodes(script: &MembershipScript) -> Vec<usize> {
    let mut nodes: Vec<usize> = script
        .actions
        .iter()
        .filter_map(|(_, a)| match a {
            MembershipAction::Acquire { node } => Some(*node),
            _ => None,
        })
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Check a membership script against a cluster of `nodes` nodes: every
/// referenced node in range, acquisitions exactly the trailing nodes (the
/// latent capacity appended after the initial cluster), at least one
/// initial node left, and no notice/revocation against an acquired node.
fn validate_membership(script: &MembershipScript, nodes: usize) -> Result<(), String> {
    if script.is_empty() {
        return Ok(());
    }
    if let Some(max) = script.max_node() {
        if max >= nodes {
            return Err(format!(
                "membership script targets node {max} but the cluster has {nodes} nodes"
            ));
        }
    }
    let acquired = acquired_nodes(script);
    if acquired.len() >= nodes {
        return Err("membership script acquires every node; the initial cluster would be empty"
            .to_string());
    }
    for (i, &node) in acquired.iter().enumerate() {
        let want = nodes - acquired.len() + i;
        if node != want {
            return Err(format!(
                "membership acquisitions must target the cluster's trailing nodes \
                 (expected node {want}, got {node})"
            ));
        }
    }
    for (_, a) in &script.actions {
        match a {
            MembershipAction::Notice { node, .. } | MembershipAction::Revoke { node }
                if acquired.binary_search(node).is_ok() =>
            {
                return Err(format!(
                    "membership script notices/revokes node {node}, which is acquired mid-run"
                ));
            }
            MembershipAction::WarmupDone { node } if acquired.binary_search(node).is_err() => {
                return Err(format!(
                    "membership warm-up for node {node}, which is never acquired"
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Project a full-core-space LB database onto the alive cores. Returns the
/// compacted stats plus `alive_idx`, mapping compact → global core indices.
fn compact_stats(stats: &LbStats, alive: &[bool]) -> (LbStats, Vec<usize>) {
    let alive_idx: Vec<usize> = (0..stats.num_pes).filter(|&p| alive[p]).collect();
    let mut inv = vec![usize::MAX; stats.num_pes];
    for (c, &p) in alive_idx.iter().enumerate() {
        inv[p] = c;
    }
    let mut compact = LbStats::new(alive_idx.len());
    compact.bg_load = alive_idx.iter().map(|&p| stats.bg_load[p]).collect();
    compact.tasks = stats
        .tasks
        .iter()
        .map(|t| {
            assert!(alive[t.pe], "task {:?} mapped to dead core {}", t.id, t.pe);
            TaskInfo { pe: inv[t.pe], ..*t }
        })
        .collect();
    compact.comm = stats.comm.clone();
    if !stats.confidence.is_empty() {
        compact.confidence = alive_idx.iter().map(|&p| stats.confidence[p]).collect();
    }
    if !stats.doomed.is_empty() {
        compact.doomed = alive_idx.iter().map(|&p| stats.doomed[p]).collect();
    }
    if !stats.fresh.is_empty() {
        compact.fresh = alive_idx.iter().map(|&p| stats.fresh[p]).collect();
    }
    compact.failed_tasks = stats.failed_tasks.clone();
    (compact, alive_idx)
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
    /// Resolved once from the config: whether the fast-forward engine may
    /// consider macro-stepping at all (mode allows it, costs are
    /// noise-free). Individual windows are additionally vetted.
    ff_enabled: bool,
    /// Capture in progress for the window currently running live.
    ff_capture: Option<Capture>,
    /// Set by [`Sim::start_lb`] when a capture reaches its window's end;
    /// the run loop closes it *after* the event popped at that instant has
    /// been fully handled. Closing inline from the completion-settling
    /// phase would scan the queue while a same-instant boundary ghost sits
    /// in the pop buffer — already out of the queue, not yet in the inbox —
    /// and bake a template that silently drops that ghost (deadlocking
    /// every replay of it).
    ff_close_pending: bool,
    /// Last successfully captured steady-state window.
    ff_template: Option<WindowTemplate>,
    /// Windows replayed analytically.
    ff_windows: usize,
    /// Event pops those replays skipped (folded back into `sim_events`).
    events_skipped: u64,
    /// Scratch for sequence-ordering live queue entries during the
    /// steady-state replay check (reused every boundary).
    ff_seq_scratch: Vec<(u64, FfMsg)>,
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
    #[allow(clippy::too_many_arguments)]
    fn new(
        app: &'a dyn IterativeApp,
        cfg: RunConfig,
        bg: &BgScript,
        fail: &FailureScript,
        telemetry: TelemetrySpec,
        net_fault: NetFaultSpec,
        membership: &MembershipScript,
        strategy: Box<dyn LbStrategy>,
    ) -> Self {
        let pes = cfg.cluster.total_cores();
        let n = app.num_chares();
        let mut cluster = Cluster::new(cfg.cluster.clone());
        // Nodes the membership script acquires mid-run are latent capacity:
        // they exist in the cluster's address space (always the trailing
        // nodes — validated up front) but start dead and only attach when
        // their `Acquire` action fires. The initial placement therefore
        // covers exactly the leading, active cores.
        let mut active_pes = pes;
        for node in acquired_nodes(membership) {
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
            FaultyNetwork::new(net_fault.clone(), cfg.network, cfg.seed, horizon)
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
        // Fast-forward is only sound when task costs are deterministic;
        // `Auto` additionally preserves exact Projections timelines.
        let ff_enabled = cfg.cost_noise_frac == 0.0
            && match cfg.fast_forward {
                FastForward::Off => false,
                FastForward::On => true,
                FastForward::Auto => !cfg.cluster.trace,
            };
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
            ff_enabled,
            ff_capture: None,
            ff_close_pending: false,
            ff_template: None,
            ff_windows: 0,
            events_skipped: 0,
            ff_seq_scratch: Vec::new(),
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

    /// Read the per-core counters and the wall clock the way the runtime
    /// would: through the telemetry channel when noise is enabled (jitter,
    /// skew, drops, …), straight from the simulator otherwise.
    fn observe(&mut self, now: Time) -> (ProcStat, Time) {
        let truth = ProcStat::snapshot(&self.cluster);
        match &mut self.telemetry {
            Some(ch) => truth.observe_through(ch, now),
            None => (truth, now),
        }
    }

    /// Reopen the measurement window at `now` over the current cluster
    /// shape, reading its baseline counters through the telemetry channel.
    /// Reuses the window's buffers (see [`LbWindow::reopen`]).
    fn reopen_window(&mut self, now: Time) {
        let (stat, clock) = self.observe(now);
        self.window.reopen(clock, stat);
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
            if self.ff_capture.as_ref().is_some_and(|c| c.hosts.is_some()) {
                self.ff_record_pop(t);
            }
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
            // park has reached the inbox and the template sees it. The
            // barrier's LbDone is still pending, so `t` is the boundary
            // instant the template expects.
            if self.ff_close_pending {
                self.ff_close_pending = false;
                self.ff_finish_capture(t);
            }
        }

        let end = self.app_end.expect("loop exited before app completion");
        let mut bg_penalties = BTreeMap::new();
        for job in &self.seen_bg {
            if let Some(p) = self.ledger.timing_penalty(*job) {
                bg_penalties.insert(*job, p);
            }
        }
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
            sim_events: self.queue.total_popped() + self.events_skipped,
            peak_queue_depth: self.queue.peak_depth(),
            ff_windows: self.ff_windows,
            events_skipped: self.events_skipped,
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
        if let Some(h) = self.ff_capture.as_mut().and_then(|c| c.hosts.as_deref_mut()) {
            if h.is_host(pe) {
                h.starts.push(FfStart { rel: h.at(), core: pe, demand: cpu });
            }
        }
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
        if let Some(cap) = self.ff_capture.as_mut() {
            cap.samples.push(FfSample {
                rel: now.since(cap.started_at),
                chare,
                iter_off: iter - cap.boundary,
                cpu,
                wall: now.since(start),
            });
            if let Some(h) = cap.hosts.as_deref_mut() {
                if !h.first_at_instant {
                    // A zero-demand task: a wake set earlier at this
                    // instant orders before the ghosts it sends.
                    self.ff_capture = None;
                } else if iter + 1 == cap.boundary + self.cfg.lb.period {
                    h.sends.push((self.queue.next_seq(), h.at()));
                }
            }
        }

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
            let pe = self.mapping[chare];
            self.ready[pe].push_back(chare);
            self.state[chare] = CState::Queued;
            self.try_start(pe, now);
        }
    }

    fn on_bg(&mut self, action: BgAction, now: Time) {
        // Defensive: a window touched by interference is not steady-state
        // (the begin-of-window queue scan already declines such captures,
        // since every bg action is scheduled up front).
        self.ff_capture = None;
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

    fn on_fail(&mut self, action: FailureAction, now: Time) -> Result<(), RuntimeError> {
        // Defensive, as in `on_bg`: failures void any in-flight capture.
        self.ff_capture = None;
        let targets: Vec<usize> = match action {
            FailureAction::KillCore { core } => vec![core],
            FailureAction::KillNode { node } => self.cluster.cores_of_node(node).collect(),
            FailureAction::RestoreCore { core } => {
                self.cluster.restore_core(core);
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("core {core} restored"));
                }
                return Ok(());
            }
            FailureAction::RestoreNode { node } => {
                for core in self.cluster.cores_of_node(node) {
                    self.cluster.restore_core(core);
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("node {node} restored"));
                }
                return Ok(());
            }
        };
        let killed: Vec<usize> =
            targets.into_iter().filter(|&c| self.cluster.is_alive(c)).collect();
        if killed.is_empty() {
            return Ok(()); // already dead: idempotent
        }
        for &core in &killed {
            let evicted = self.cluster.kill_core(core);
            for (job, finite) in &evicted.evicted_bg {
                if *finite {
                    // The job will never complete; it must not hold the
                    // simulation loop open.
                    self.pending_bg -= 1;
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("bg job {job} lost with core {core}"));
                }
            }
            self.failures += 1;
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(now.as_us(), format!("core {core} fails"));
            }
        }
        if self.app_end.is_some() {
            // The application already finished; the kill only tears down
            // leftover background work.
            return Ok(());
        }
        if self.cluster.num_alive() == 0 {
            return Err(RuntimeError::AllPesDead);
        }
        self.recover(now)
    }

    /// Global rollback to the last checkpoint: abandon all in-flight work,
    /// restore the checkpointed mapping (dead cores' chares from their
    /// buddies), re-balance over the survivors, and schedule the end of
    /// the recovery pause.
    fn recover(&mut self, now: Time) -> Result<(), RuntimeError> {
        let Some((k, ckpt_map)) = self.ckpt.clone() else {
            return Err(RuntimeError::Unrecoverable {
                reason: "a PE died but checkpointing is disabled (no snapshot to roll back to)"
                    .into(),
            });
        };
        // Invalidate every in-flight message and any pending LbDone or
        // earlier Recovered event.
        self.epoch += 1;

        // Abandon in-flight work everywhere (global rollback).
        for pe in 0..self.num_pes() {
            if self.running[pe].take().is_some() {
                self.cluster.abort_fg(pe);
            }
            self.ready[pe].clear();
        }
        self.inbox_count.fill(0);
        self.atsync.reset();
        // Cancel every in-flight proactive evacuation: the epoch bump
        // already drops their landing events.
        self.pending_evac.clear();
        self.rescue_runnable.clear();

        // Count the re-executed work, then rewind the reduction.
        for chare in 0..self.app.num_chares() {
            self.replayed_iters += self.next_iter[chare].saturating_sub(k);
            self.state[chare] = CState::Waiting;
        }
        self.tracker.rollback(k);
        self.finished = 0;

        // Restore the checkpointed placement; chares owned by a dead core
        // come back from the replica on their buddy. A warming core holds
        // no replica (it attached after the snapshot), so for restore
        // purposes it counts as unavailable.
        let alive: Vec<bool> = self
            .cluster
            .alive_mask()
            .into_iter()
            .zip(&self.warming)
            .map(|(a, &w)| a && !w)
            .collect();
        self.mapping = ckpt_map;
        let mut from_buddy = 0usize;
        for chare in 0..self.app.num_chares() {
            let owner = self.mapping[chare];
            if alive[owner] {
                continue;
            }
            let buddy = self.cluster.buddy_of(owner);
            if !alive[buddy] {
                return Err(RuntimeError::Unrecoverable {
                    reason: format!(
                        "chare {chare}: owner core {owner} and buddy core {buddy} both failed"
                    ),
                });
            }
            self.mapping[chare] = buddy;
            from_buddy += 1;
        }

        // Re-balance over the survivors using predicted next-iteration
        // costs (there is no fresh measurement window mid-rollback).
        let app = self.app;
        let mut stats = LbStats::new(self.num_pes());
        stats.tasks = (0..app.num_chares())
            .map(|i| TaskInfo {
                id: TaskId(i as u64),
                pe: self.mapping[i],
                load: app.task_cost(i, k) / self.speeds[self.mapping[i]],
                bytes: app.state_bytes(i) as u64,
            })
            .collect();
        stats.failed_tasks = std::mem::take(&mut self.pending_failed);
        if self.doomed.iter().any(|&d| d) {
            stats.doomed = self.doomed.clone();
        }
        if self.fresh.iter().any(|&f| f) {
            stats.fresh = self.fresh.clone();
        }
        let plan = self.plan_over_survivors(&stats);
        self.lb_steps += 1;
        // Price the pause: failure detection, the strategy step, and the
        // post-restore migrations. A buddy restore itself is free (the
        // replica is local to the buddy); onward moves are charged like
        // any migration — through the reliable protocol under chaos.
        let (plan, transfers_done) = self.resolve_transfers(plan, &stats, now);
        self.migration_bytes +=
            plan.iter().map(|m| app.state_bytes(m.task.0 as usize) as u64).sum::<u64>();
        let out = migration::commit(&mut self.mapping, &plan);
        self.migrations += out.applied;
        let cost = Dur::from_secs_f64(self.cfg.fail_detect_s + self.cfg.lb.step_cost_s)
            + transfers_done.since(now);
        self.recovery_time += cost;
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!(
                    "recovery: roll back to iteration {k}, {from_buddy} chare(s) from buddies, \
                     {} re-balancing migration(s)",
                    plan.len()
                ),
            );
        }
        self.queue.schedule(now + cost, Ev::Recovered { epoch: self.epoch });
        Ok(())
    }

    /// The recovery pause is over: every chare resumes from the checkpoint
    /// iteration. Snapshots include the ghosts buffered at the boundary
    /// (see [`crate::checkpoint::ChareCheckpoint::pending`]), so all
    /// chares are immediately runnable, exactly as at startup.
    fn on_recovered(&mut self, now: Time) {
        self.recoveries += 1;
        let k = self.ckpt.as_ref().map(|c| c.0).expect("recovered without a checkpoint");
        self.reopen_window(now);
        for chare in 0..self.app.num_chares() {
            self.next_iter[chare] = k;
            self.state[chare] = CState::Queued;
            self.ready[self.mapping[chare]].push_back(chare);
        }
        for pe in 0..self.num_pes() {
            self.try_start(pe, now);
        }
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(now.as_us(), format!("recovery complete; replaying from iteration {k}"));
        }
    }

    /// Apply an elastic-membership action. Like failures and interference,
    /// membership changes void any in-flight fast-forward capture (the
    /// pre-scheduled events already keep such windows from being replayed).
    fn on_membership(&mut self, action: MembershipAction, now: Time) -> Result<(), RuntimeError> {
        self.ff_capture = None;
        match action {
            MembershipAction::Notice { node, revoke_at } => self.on_notice(node, revoke_at, now),
            MembershipAction::Revoke { node } => self.on_revoke(node, now),
            MembershipAction::Acquire { node } => {
                let mut any = false;
                for core in self.cluster.cores_of_node(node) {
                    if !self.cluster.is_alive(core) {
                        self.cluster.restore_core(core);
                        any = true;
                    }
                    self.warming[core] = true;
                }
                if any {
                    self.elastic.acquisitions += 1;
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("node {node} acquired; warming up"));
                }
                Ok(())
            }
            MembershipAction::WarmupDone { node } => {
                let mut any = false;
                for core in self.cluster.cores_of_node(node) {
                    if self.warming[core] {
                        self.warming[core] = false;
                        if self.cluster.is_alive(core) {
                            self.fresh[core] = true;
                        }
                        any = true;
                    }
                }
                if any {
                    self.elastic.warmups += 1;
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("node {node} warmed up; accepting work"));
                }
                Ok(())
            }
        }
    }

    /// A spot preemption notice: node `node` will be hard-revoked at
    /// `revoke_at`. Mark its cores doomed (zero-capacity sources for the
    /// balancer) and immediately start draining every chare it hosts,
    /// spread over the least-loaded eligible cores. Transfers whose
    /// arrival overruns the deadline are still sent: a chare whose state
    /// is in flight when the node dies is *rescued* when the transfer
    /// lands, instead of forcing a global rollback.
    fn on_notice(&mut self, node: usize, revoke_at: Time, now: Time) -> Result<(), RuntimeError> {
        self.elastic.notices += 1;
        let cores: Vec<usize> = self.cluster.cores_of_node(node).collect();
        let mut any_alive = false;
        for &core in &cores {
            if self.cluster.is_alive(core) {
                self.doomed[core] = true;
                any_alive = true;
            }
        }
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("spot notice: node {node} revoked at {} us", revoke_at.as_us()),
            );
        }
        if !any_alive || self.app_end.is_some() {
            return Ok(());
        }
        // Evacuation targets: alive, not doomed themselves, warmed up.
        let eligible: Vec<usize> = (0..self.num_pes())
            .filter(|&p| self.cluster.is_alive(p) && !self.doomed[p] && !self.warming[p])
            .collect();
        if eligible.is_empty() {
            return Ok(()); // nowhere to drain to; the revocation rolls back
        }
        self.elastic.evacuations_attempted += 1;
        self.evac_attempted[node] = true;
        let evacuees: Vec<usize> =
            (0..self.app.num_chares()).filter(|&c| cores.contains(&self.mapping[c])).collect();
        // Projected chare counts so evacuees spread over the targets.
        let mut count = vec![0usize; self.num_pes()];
        for &pe in &self.mapping {
            count[pe] += 1;
        }
        // Per-source NIC serialization: one outbound state transfer at a
        // time per core, exactly like the migration paths.
        let mut nic_free = vec![now; self.num_pes()];
        let app = self.app;
        let num_pes = self.num_pes();
        let epoch = self.epoch;
        for &chare in &evacuees {
            let src = self.mapping[chare];
            let dest =
                *eligible.iter().min_by_key(|&&p| (count[p], p)).expect("eligible nonempty");
            let start = nic_free[src];
            let arrival = match self.netfault.as_mut() {
                None => {
                    let bytes = app.state_bytes(chare);
                    start
                        + self
                            .cfg
                            .network
                            .migration_delay(bytes, self.cluster.same_node(src, dest))
                }
                Some(ch) => {
                    // Under chaos the drain rides the reliable ARQ
                    // protocol, one transfer per chare.
                    let plan =
                        [Migration { task: TaskId(chare as u64), from: src, to: dest }];
                    let out = netproto::run_transfers(
                        &plan,
                        ch,
                        &self.cluster,
                        &self.cfg.migration_proto,
                        start,
                        |i| app.state_bytes(i),
                        num_pes,
                    );
                    nic_free[src] = out.done_at;
                    if out.committed.is_empty() {
                        continue; // aborted: the revocation will roll back
                    }
                    out.done_at
                }
            };
            nic_free[src] = arrival;
            self.queue.schedule(arrival, Ev::Evac { chare, to: dest, epoch });
            self.pending_evac.insert(chare, dest);
            count[dest] += 1;
            count[src] -= 1;
        }
        let launched = self.pending_evac.len();
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("evacuating {launched} chare(s) off node {node} before revocation"),
            );
        }
        Ok(())
    }

    /// The notice deadline fires: node `node` is revoked. Chares already
    /// drained are unaffected; chares whose state transfer is still in
    /// flight are rescued when it lands; chares with no transfer under way
    /// are lost with the node and force a global checkpoint rollback.
    fn on_revoke(&mut self, node: usize, now: Time) -> Result<(), RuntimeError> {
        let killed: Vec<usize> =
            self.cluster.cores_of_node(node).filter(|&c| self.cluster.is_alive(c)).collect();
        if killed.is_empty() {
            return Ok(()); // already down (a failure script beat the notice)
        }
        for &core in &killed {
            let evicted = self.cluster.kill_core(core);
            for (job, finite) in &evicted.evicted_bg {
                if *finite {
                    self.pending_bg -= 1;
                }
                if let Some(t) = self.cluster.trace_mut() {
                    t.marker(now.as_us(), format!("bg job {job} lost with core {core}"));
                }
            }
            self.doomed[core] = false;
            // A chare caught mid-iteration or queued loses its slot; if its
            // state is in flight it must re-enter a ready queue on landing.
            if let Some(run) = self.running[core].take() {
                self.rescue_runnable.insert(run.chare);
                self.state[run.chare] = CState::Waiting;
            }
            while let Some(chare) = self.ready[core].pop_front() {
                self.rescue_runnable.insert(chare);
                self.state[chare] = CState::Waiting;
            }
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(now.as_us(), format!("core {core} revoked"));
            }
        }
        self.elastic.nodes_revoked += 1;
        if self.app_end.is_some() {
            return Ok(());
        }
        if self.cluster.num_alive() == 0 {
            return Err(RuntimeError::AllPesDead);
        }
        let stranded: Vec<usize> =
            (0..self.app.num_chares()).filter(|&c| killed.contains(&self.mapping[c])).collect();
        if stranded.is_empty() {
            if self.evac_attempted[node] {
                self.elastic.evacuations_completed += 1;
            }
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(now.as_us(), format!("node {node} empty at revocation: clean drain"));
            }
            return Ok(());
        }
        let lost =
            stranded.iter().filter(|&&c| !self.pending_evac.contains_key(&c)).count();
        if lost == 0 {
            // Every stranded chare's state is already in flight: commit at
            // landing, no rollback.
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(
                    now.as_us(),
                    format!("{} chare(s) in flight at revocation: rescue pending", stranded.len()),
                );
            }
            return Ok(());
        }
        // The reactive path proactive evacuation exists to avoid: state
        // died with the node, roll everyone back to the checkpoint.
        self.elastic.chares_rolled_back += stranded.len();
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("{lost} chare(s) lost with node {node}: rolling back"),
            );
        }
        self.recover(now)
    }

    /// A proactively evacuated chare's state transfer lands on `to`.
    /// Commits the move if the chare still needs one: its source is doomed
    /// (pre-deadline drain) or already revoked (rescue).
    fn on_evac(&mut self, chare: usize, to: usize, now: Time) -> Result<(), RuntimeError> {
        self.ff_capture = None;
        self.pending_evac.remove(&chare);
        let was_runnable = self.rescue_runnable.remove(&chare);
        let src = self.mapping[chare];
        let src_alive = self.cluster.is_alive(src);
        if src_alive && !self.doomed[src] {
            return Ok(()); // an LB step already moved it off the doomed core
        }
        let mut dest = to;
        if !self.cluster.is_alive(dest) || self.doomed[dest] || self.warming[dest] {
            // The planned target was lost or doomed in the meantime:
            // re-pick the emptiest eligible core.
            let mut count = vec![0usize; self.num_pes()];
            for &pe in &self.mapping {
                count[pe] += 1;
            }
            let best = (0..self.num_pes())
                .filter(|&p| self.cluster.is_alive(p) && !self.doomed[p] && !self.warming[p])
                .min_by_key(|&p| (count[p], p));
            match best {
                Some(p) => dest = p,
                None if src_alive => return Ok(()), // stay; revocation handles it
                None => {
                    // Rescued state with nowhere to land: fall back to the
                    // global rollback.
                    self.elastic.chares_rolled_back += 1;
                    return self.recover(now);
                }
            }
        }
        self.mapping[chare] = dest;
        self.migrations += 1;
        self.migration_bytes += self.app.state_bytes(chare) as u64;
        if src_alive {
            self.elastic.chares_drained += 1;
        } else {
            self.elastic.chares_rescued += 1;
        }
        if let Some(t) = self.cluster.trace_mut() {
            let verb = if src_alive { "drained" } else { "rescued" };
            t.marker(now.as_us(), format!("chare {chare} {verb} to core {dest}"));
        }
        match self.state[chare] {
            CState::Running => {
                // Mid-iteration on the doomed core: abandon the partial
                // work; the iteration re-runs at the destination.
                debug_assert!(src_alive, "a chare cannot be Running on a revoked core");
                if self.running[src].is_some_and(|r| r.chare == chare) {
                    self.running[src] = None;
                    self.cluster.abort_fg(src);
                }
                self.state[chare] = CState::Queued;
                self.ready[dest].push_back(chare);
                self.try_start(dest, now);
                self.try_start(src, now);
            }
            CState::Queued => {
                self.ready[src].retain(|&c| c != chare);
                self.ready[dest].push_back(chare);
                self.try_start(dest, now);
            }
            CState::Waiting => {
                if was_runnable {
                    // Its boundary ghosts were consumed before the
                    // revocation; requeue it directly.
                    self.state[chare] = CState::Queued;
                    self.ready[dest].push_back(chare);
                    self.try_start(dest, now);
                } else {
                    self.maybe_ready(chare, now);
                }
            }
            CState::Parked | CState::Finished => {} // pure remap
        }
        Ok(())
    }

    /// Run the strategy over the *eligible* cores only. With every core
    /// alive, none warming and none doomed, this is the plain full-space
    /// path. Otherwise the database is compacted onto the eligible cores
    /// first (a dead core's zero load would otherwise attract every task;
    /// a warming core is not yet a target), the resulting plan is
    /// sanitized as a safety net (which also keeps doomed cores
    /// source-only), and indices are translated back to global core space.
    fn plan_over_survivors(&mut self, stats: &LbStats) -> Vec<Migration> {
        let mut alive = self.cluster.alive_mask();
        for (pe, w) in self.warming.iter().enumerate() {
            if *w {
                alive[pe] = false;
            }
        }
        let plan = if alive.iter().all(|a| *a) && stats.doomed.is_empty() {
            let plan = self.strategy.plan(stats);
            cloudlb_balance::strategy::validate_plan(stats, &plan);
            plan
        } else {
            let (compact, alive_idx) = compact_stats(stats, &alive);
            let plan = self.strategy.plan(&compact);
            let all_alive = vec![true; alive_idx.len()];
            let san = cloudlb_balance::sanitize_plan(&compact, &plan, &all_alive);
            san.plan
                .into_iter()
                .map(|m| Migration { task: m.task, from: alive_idx[m.from], to: alive_idx[m.to] })
                .collect()
        };
        // Eager refill is one-shot: after one planning pass over the fresh
        // flags, warmed-up cores compete normally.
        for f in &mut self.fresh {
            *f = false;
        }
        plan
    }

    /// Resolve a plan's state transfers. On the clean path this is the
    /// analytic [`migration::transfer_time`] costing and every entry
    /// commits. Under network chaos each transfer runs through the ARQ
    /// protocol instead: aborted migrations are dropped from the plan
    /// (their chares stay home), recorded in `pending_failed` for the next
    /// LB step, and the surviving partial plan is re-sanitized as a safety
    /// net. Returns the committable plan and the instant transfers end.
    fn resolve_transfers(
        &mut self,
        plan: Vec<Migration>,
        stats: &LbStats,
        now: Time,
    ) -> (Vec<Migration>, Time) {
        let app = self.app;
        let num_pes = self.ready.len();
        let Some(ch) = self.netfault.as_mut() else {
            let cluster = &self.cluster;
            let transfer = migration::transfer_time(
                &plan,
                &self.cfg.network,
                |i| app.state_bytes(i),
                |a, b| cluster.same_node(a, b),
                num_pes,
            );
            return (plan, now + transfer);
        };
        let out = netproto::run_transfers(
            &plan,
            ch,
            &self.cluster,
            &self.cfg.migration_proto,
            now,
            |i| app.state_bytes(i),
            num_pes,
        );
        if out.aborted.is_empty() {
            return (out.committed, out.done_at);
        }
        // Graceful degradation: aborted chares stay on their source core,
        // the partial plan is re-sanitized, and the failed moves feed the
        // next LB step through `LbStats::failed_tasks`. Warming cores are
        // masked so a repair never targets a core that is not yet open.
        let mut alive = self.cluster.alive_mask();
        for (pe, w) in self.warming.iter().enumerate() {
            if *w {
                alive[pe] = false;
            }
        }
        let committed = cloudlb_balance::sanitize_plan(stats, &out.committed, &alive).plan;
        self.pending_failed.extend(out.aborted.iter().map(|m| m.task));
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("{} migration(s) aborted on network timeout", out.aborted.len()),
            );
        }
        (committed, out.done_at)
    }

    fn start_lb(&mut self, now: Time) {
        self.atsync.begin_lb();
        let (now_stat, obs_now) = self.observe(now);
        let app = self.app;
        // The snapshot lives in a Sim-owned scratch so every window after
        // the first rebuilds it allocation-free.
        let mut stats = std::mem::replace(&mut self.stats_scratch, LbStats::new(0));
        let quality = self
            .window
            .build_stats_into(obs_now, &now_stat, &self.mapping, |i| app.state_bytes(i) as u64, &mut stats);
        self.window_quality.merge(&quality);
        // Attach the (constant) per-window communication graph in one
        // exactly-sized copy.
        stats.comm.clone_from(&self.comm_template);
        // Tell the strategy which moves the network refused last time.
        stats.failed_tasks = std::mem::take(&mut self.pending_failed);
        // Chares stranded on a revoked core with a rescue transfer still in
        // flight are presented at their landing destination: the strategy
        // may plan over them, but a move it makes is skipped as stale at
        // commit (`mapping` still says the dead core) — the landing commits
        // the real move.
        if !self.pending_evac.is_empty() {
            let alive = self.cluster.alive_mask();
            for t in &mut stats.tasks {
                if !alive[t.pe] {
                    if let Some(&dest) = self.pending_evac.get(&(t.id.0 as usize)) {
                        t.pe = dest;
                    }
                }
            }
        }
        // And which cores are under a spot notice (source-only) or were
        // just acquired (eagerly refill).
        if self.doomed.iter().any(|&d| d) {
            stats.doomed.clone_from(&self.doomed);
        }
        if self.fresh.iter().any(|&f| f) {
            stats.fresh.clone_from(&self.fresh);
        }
        let plan = self.plan_over_survivors(&stats);
        let (plan, transfers_done) = self.resolve_transfers(plan, &stats, now);
        self.stats_scratch = stats;
        let end = transfers_done + Dur::from_secs_f64(self.cfg.lb.step_cost_s);

        // Executor task ids are chare indices and their state bytes come
        // straight from the app, so the per-migration `stats.task` scan
        // (O(plan × tasks)) is unnecessary.
        self.migration_bytes +=
            plan.iter().map(|m| app.state_bytes(m.task.0 as usize) as u64).sum::<u64>();
        self.lb_steps += 1;
        let out = migration::commit(&mut self.mapping, &plan);
        self.migrations += out.applied;

        // Record the LB pause on every core's timeline.
        let num_pes = self.ready.len();
        if let Some(t) = self.cluster.trace_mut() {
            for e in &out.skipped {
                t.marker(now.as_us(), format!("migration skipped: {e}"));
            }
        }
        if let Some(t) = self.cluster.trace_mut() {
            t.marker(
                now.as_us(),
                format!("LB step {} ({} migrations)", self.lb_steps, plan.len()),
            );
            for pe in 0..num_pes {
                t.record(pe, now.as_us(), end.as_us(), Activity::LoadBalance);
            }
        }
        self.queue.schedule(end, Ev::LbDone { epoch: self.epoch });
        // Ask the run loop to close any open capture once the event popped
        // at this instant has been delivered (see `ff_close_pending`).
        self.ff_close_pending = true;
    }

    fn on_lb_done(&mut self, now: Time) {
        let released = self.atsync.release();
        // The boundary's post-migration state is the new checkpoint when
        // the policy says so.
        if self.cfg.checkpoints.due(self.lb_boundary) {
            self.ckpt = Some((self.lb_boundary, self.mapping.clone()));
            if let Some(t) = self.cluster.trace_mut() {
                t.marker(now.as_us(), format!("checkpoint at iteration {}", self.lb_boundary));
            }
        }
        // Open a fresh measurement window at the resume instant.
        self.reopen_window(now);
        // Steady state reached? Replay the captured window template in one
        // macro-step (the barrier re-parks immediately), or start capturing
        // this window so the next one can be replayed.
        if self.ff_enabled {
            if self.ff_try_replay(now) {
                return;
            }
            self.ff_begin_capture(now);
        }
        for chare in released {
            self.state[chare] = CState::Waiting;
            self.maybe_ready(chare, now);
        }
        for pe in 0..self.ready.len() {
            self.try_start(pe, now);
        }
        #[cfg(debug_assertions)]
        self.check_chares(false);
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

    /// `true` when the chaos layer cannot disturb any send in `[from, to]`.
    /// `to` is compared strictly because the window's last ghosts go out
    /// exactly at `to` (a partition opening then would already cut them).
    fn netfault_quiet_until(&self, from: Time, to: Time) -> bool {
        let Some(ch) = &self.netfault else { return true };
        match ch.next_disturbance_at(from) {
            None => true,
            Some(d) => d > to,
        }
    }

    /// Bit-exact fingerprint of the task costs the window starting at
    /// `boundary` will execute. Replay validity requires equality, so
    /// iteration-dependent applications decline safely.
    fn ff_cost_bits(&self, boundary: usize) -> Vec<u64> {
        let n = self.app.num_chares();
        let period = self.cfg.lb.period;
        let mut bits = Vec::with_capacity(n * period);
        for chare in 0..n {
            for off in 0..period {
                bits.push(self.app.task_cost(chare, boundary + off).to_bits());
            }
        }
        bits
    }

    /// `true` if a wake timer is pending on a core without background
    /// load. A window's edges allow wakes only on background hosts, whose
    /// foreground is idle there (every chare is parked), so they wait on
    /// the background task's completion.
    fn ff_foreign_timer(&self) -> bool {
        self.queue.pending_timers().any(|(core, _)| {
            debug_assert!(!self.cluster.fg_busy(core), "core {core} busy at a window edge");
            !self.cluster.core(core).has_bg()
        })
    }

    /// Scan the live event queue at a window's release instant. A
    /// steady-state window may only have current-epoch, non-duplicate
    /// ghost messages for the `boundary` iteration in flight, besides the
    /// background hosts' wakes; anything else — pending interference or
    /// failure actions, stale-epoch leftovers, other wakes — disqualifies
    /// it. Returns the in-flight ghosts in sequence order (so FIFO
    /// tie-breaks can be compared and replayed) plus the boundary-iteration
    /// inbox fingerprint, or `None`.
    fn ff_window_start(&self, now: Time, boundary: usize) -> Option<WindowStart> {
        if self.ff_foreign_timer() {
            return None;
        }
        let mut msgs: Vec<(u64, FfMsg)> = Vec::with_capacity(self.queue.len());
        for (_h, at, seq, ev) in self.queue.iter_live() {
            match *ev {
                Ev::Msg { chare, iter, epoch, dup: false }
                    if iter == boundary && epoch == self.epoch =>
                {
                    msgs.push((seq, FfMsg { rel: at.since(now), chare }));
                }
                _ => return None,
            }
        }
        msgs.sort_unstable_by_key(|&(seq, _)| seq);
        let mut inbox: Vec<(usize, usize)> = Vec::new();
        for chare in 0..self.app.num_chares() {
            for s in [Self::inbox_slot(chare, 0), Self::inbox_slot(chare, 1)] {
                let count = self.inbox_count[s] as usize;
                if count == 0 {
                    continue;
                }
                if self.inbox_iter[s] != boundary {
                    return None; // foreign-iteration ghosts buffered
                }
                inbox.push((chare, count));
            }
        }
        // The chare-major slot scan yields the counts already sorted.
        Some((msgs.into_iter().map(|(_, m)| m).collect(), inbox))
    }

    /// Open a capture of the window starting at `now` (all chares just
    /// released at `self.lb_boundary`) if it is provably steady-state so
    /// far. Conditions that only resolve at the window's end are
    /// re-checked by [`Sim::ff_finish_capture`].
    fn ff_begin_capture(&mut self, now: Time) {
        let b0 = self.lb_boundary;
        if b0 + self.cfg.lb.period >= self.cfg.iterations {
            return; // window would end the app
        }
        if !self.netfault_quiet_until(now, now) {
            return; // stochastic chaos, or a partition is already open
        }
        let Some((start_inflight, start_inbox)) = self.ff_window_start(now, b0) else {
            return;
        };
        self.queue.mark_window();
        self.ff_capture = Some(Capture {
            started_at: now,
            boundary: b0,
            start_stat: self.cluster.stats(),
            start_popped: self.queue.total_popped(),
            live_at_start: self.queue.len(),
            start_local: self.local_msgs,
            start_remote: self.remote_msgs,
            mapping: self.mapping.clone(),
            alive: self.cluster.alive_mask(),
            cost_bits: self.ff_cost_bits(b0),
            start_inflight,
            start_inbox,
            samples: Vec::with_capacity(self.app.num_chares() * self.cfg.lb.period),
            hosts: self
                .cluster
                .any_bg()
                .then(|| Box::new(HostCapture::new(self.cluster.bg_shares()))),
        });
    }

    /// Record the pop at `t` into a capture with background hosts; a
    /// window too long for its µs offsets to fit in `u32` is dropped.
    fn ff_record_pop(&mut self, t: Time) {
        let Some(cap) = self.ff_capture.as_mut() else { return };
        match (u32::try_from(t.since(cap.started_at).as_us()), cap.hosts.as_deref_mut()) {
            (Ok(rel), Some(h)) => h.on_pop(rel),
            _ => self.ff_capture = None,
        }
    }

    /// Close the capture opened at this window's release and turn it into
    /// a reusable template — or discard it if the window turned out not to
    /// be steady-state after all. Runs from the event loop's epilogue (not
    /// inline from [`Sim::start_lb`]) so a boundary ghost popped at the
    /// same instant as the final park has been delivered to the inbox
    /// before the scan; the deferral is requested via `ff_close_pending`.
    fn ff_finish_capture(&mut self, now: Time) {
        let Some(cap) = self.ff_capture.take() else { return };
        let b1 = cap.boundary + self.cfg.lb.period;
        debug_assert_eq!(b1, self.lb_boundary, "capture spans exactly one LB window");
        if !self.netfault_quiet_until(cap.started_at, now) {
            return; // a partition window opened while the capture ran
        }
        if cap.samples.len() != self.app.num_chares() * self.cfg.lb.period {
            return; // some task ran outside the window's iteration block
        }
        // Classify what is pending at the barrier: next-boundary ghosts in
        // flight (replayed as fresh events), the LbDone just scheduled,
        // and the background hosts' wakes (every core's foreground idles
        // once all chares park). Anything else disqualifies the window, and
        // so does a background composition that changed: a completion
        // inside the window removed a task (starts and stops void the
        // capture as they happen).
        if self.ff_foreign_timer() {
            return;
        }
        if cap.hosts.as_ref().is_some_and(|h| h.bg != self.cluster.bg_shares()) {
            return;
        }
        let mut lb_done = 0usize;
        let mut msgs: Vec<(u64, FfMsg)> = Vec::new();
        for (_h, at, seq, ev) in self.queue.iter_live() {
            match *ev {
                Ev::Msg { chare, iter, epoch, dup: false }
                    if iter == b1 && epoch == self.epoch =>
                {
                    msgs.push((seq, FfMsg { rel: at.since(cap.started_at), chare }));
                }
                Ev::LbDone { epoch } if epoch == self.epoch => lb_done += 1,
                _ => return,
            }
        }
        if lb_done != 1 {
            return;
        }
        msgs.sort_unstable_by_key(|&(seq, _)| seq);
        let mut end_inbox: Vec<(usize, usize)> = Vec::new();
        for chare in 0..self.app.num_chares() {
            for s in [Self::inbox_slot(chare, 0), Self::inbox_slot(chare, 1)] {
                let count = self.inbox_count[s] as usize;
                if count == 0 {
                    continue;
                }
                if self.inbox_iter[s] != b1 {
                    return;
                }
                end_inbox.push((chare, count));
            }
        }
        let stat_delta = ProcStat { cores: self.cluster.stats() }
            .delta_since(&ProcStat { cores: cap.start_stat });
        let hosts = cap.hosts.map(|h| {
            let end_sent = msgs.iter().map(|&(seq, _)| h.sent_at(seq)).collect();
            Box::new(HostTemplate { bg: h.bg, cuts: h.cuts, starts: h.starts, end_sent })
        });
        self.ff_template = Some(WindowTemplate {
            dur: now.since(cap.started_at),
            mapping: cap.mapping,
            alive: cap.alive,
            cost_bits: cap.cost_bits,
            start_inflight: cap.start_inflight,
            start_inbox: cap.start_inbox,
            end_inflight: msgs.into_iter().map(|(_, m)| m).collect(),
            end_inbox,
            samples: cap.samples,
            stat_delta,
            local_msgs: self.local_msgs - cap.start_local,
            remote_msgs: self.remote_msgs - cap.start_remote,
            events_popped: self.queue.total_popped() - cap.start_popped,
            peak_delta: self.queue.window_peak() - cap.live_at_start,
            hosts,
        });
    }

    /// Replay the stored template over the window starting at `now` if
    /// every validity condition holds: same boundary-relative costs, same
    /// mapping, alive mask and background composition, identical
    /// in-flight/buffered ghosts, quiet network through the window's end,
    /// the window cannot finish the app, and every background host re-cuts
    /// onto the template's completions ([`Sim::ff_recut`]). On success the
    /// executor jumps straight to the next AtSync park (with
    /// [`Sim::start_lb`] already invoked) and the caller must return
    /// without releasing the barrier. On mismatch the stale template is
    /// dropped so the next live window re-captures fresh state.
    fn ff_try_replay(&mut self, now: Time) -> bool {
        let Some(t) = self.ff_template.take() else { return false };
        let b0 = self.lb_boundary;
        let same_bg = match &t.hosts {
            None => !self.cluster.any_bg(),
            Some(h) => h.bg == self.cluster.bg_shares(),
        };
        let valid = b0 + self.cfg.lb.period < self.cfg.iterations
            && same_bg
            && t.mapping == self.mapping
            && t.alive == self.cluster.alive_mask()
            && self.netfault_quiet_until(now, now + t.dur)
            && self.ff_window_start_matches(now, b0, &t)
            && self.ff_cost_bits_match(b0, &t.cost_bits);
        if !valid {
            return false;
        }
        let hosts = match &t.hosts {
            None => Vec::new(),
            Some(h) => match self.ff_recut(now, &t, h) {
                Some(hosts) => hosts,
                None => return false,
            },
        };
        self.ff_replay(now, &t, hosts);
        self.ff_template = Some(t);
        true
    }

    /// Re-cut a copy of every background host through the template's
    /// window starting at `now`: advance it with [`Core::advance`] to each
    /// pop instant and start each recorded foreground task, as the live
    /// loop would. The foreground's accounting is translation-invariant
    /// under the same cuts; what differs from the template window is the
    /// f64 residue (`dust_us`, the background task's remaining and consumed
    /// demand), which the re-cut carries exactly. Returns each host with
    /// the instant its wake timer was last set at (µs after `now`; `None`:
    /// not set in the window, by `set_timer`'s no-op rule), or `None`
    /// unless every host completes its tasks at the template's instants
    /// and its background task does not complete.
    fn ff_recut(
        &self,
        now: Time,
        t: &WindowTemplate,
        h: &HostTemplate,
    ) -> Option<Vec<(Core, Option<u32>)>> {
        let mut cores: Vec<usize> = h.bg.iter().map(|&(core, ..)| core).collect();
        cores.dedup();
        let mut out = Vec::with_capacity(cores.len());
        let mut events = Vec::new();
        for core in cores {
            let mut c = self.cluster.core(core).clone();
            let mut done =
                t.samples.iter().filter(|s| t.mapping[s.chare] == core).map(|s| now + s.rel);
            let mut starts = h.starts.iter().filter(|s| s.core == core).peekable();
            let (mut timer, mut set_at) = (self.queue.timer(core), None);
            // The release instant (the host is already there), then each cut.
            for rel in std::iter::once(0).chain(h.cuts.iter().copied()) {
                c.advance(now + Dur::from_us(rel.into()), &mut events, None);
                for (at, e) in events.drain(..) {
                    if matches!(e, CoreEvent::BgDone { .. }) || done.next() != Some(at) {
                        return None;
                    }
                }
                while let Some(s) = starts.next_if(|s| s.rel == rel) {
                    if c.fg_busy() || s.demand == Dur::ZERO {
                        return None; // a zero-demand task completes at its own cut
                    }
                    c.start_fg(FgLabel { chare: 0 }, s.demand, 1.0);
                }
                if c.next_completion() != timer {
                    (timer, set_at) = (c.next_completion(), Some(rel));
                }
            }
            let finished = done.next().is_none() && starts.next().is_none();
            if !finished || c.fg_busy() || c.accounted_until() != now + t.dur {
                return None;
            }
            out.push((c, set_at));
        }
        Some(out)
    }

    /// Streaming equivalent of comparing [`Sim::ff_window_start`] against
    /// the template's fingerprint: `true` iff the live queue holds exactly
    /// the template's in-flight boundary ghosts (in sequence order) and
    /// the inbox holds exactly its boundary counts. Runs every steady
    /// boundary, so it reuses one scratch vector instead of materializing
    /// a fresh `WindowStart`.
    fn ff_window_start_matches(&mut self, now: Time, boundary: usize, t: &WindowTemplate) -> bool {
        let mut seqs = std::mem::take(&mut self.ff_seq_scratch);
        seqs.clear();
        let ok = 'scan: {
            if self.ff_foreign_timer() {
                break 'scan false;
            }
            for (_h, at, seq, ev) in self.queue.iter_live() {
                match *ev {
                    Ev::Msg { chare, iter, epoch, dup: false }
                        if iter == boundary && epoch == self.epoch =>
                    {
                        seqs.push((seq, FfMsg { rel: at.since(now), chare }));
                    }
                    _ => break 'scan false,
                }
            }
            seqs.sort_unstable_by_key(|&(seq, _)| seq);
            if !seqs.iter().map(|&(_, m)| m).eq(t.start_inflight.iter().copied()) {
                break 'scan false;
            }
            let mut want = t.start_inbox.iter().copied();
            for chare in 0..self.app.num_chares() {
                for s in [Self::inbox_slot(chare, 0), Self::inbox_slot(chare, 1)] {
                    let count = self.inbox_count[s] as usize;
                    if count == 0 {
                        continue;
                    }
                    if self.inbox_iter[s] != boundary || want.next() != Some((chare, count)) {
                        break 'scan false;
                    }
                }
            }
            want.next().is_none()
        };
        self.ff_seq_scratch = seqs;
        ok
    }

    /// `true` iff the window starting at `boundary` has exactly the cost
    /// fingerprint `bits` (as produced by [`Sim::ff_cost_bits`]). Streams
    /// the comparison so the per-boundary replay check allocates nothing —
    /// the eager `ff_cost_bits` rebuild it replaces was an O(chares ×
    /// period) allocation on every boundary at 1M chares.
    fn ff_cost_bits_match(&self, boundary: usize, bits: &[u64]) -> bool {
        let n = self.app.num_chares();
        let period = self.cfg.lb.period;
        bits.len() == n * period
            && (0..n).all(|chare| {
                (0..period).all(|off| {
                    bits[chare * period + off]
                        == self.app.task_cost(chare, boundary + off).to_bits()
                })
            })
    }

    /// Apply template `t` to the window starting at `now`: one analytic
    /// macro-step replacing the event-by-event simulation of `period`
    /// iterations, bit-identical in every observable (see `DESIGN.md` for
    /// the equivalence argument).
    ///
    /// `hosts` are the background hosts [`Sim::ff_recut`] advanced through
    /// the window, with the instant each one's wake timer was last set at.
    fn ff_replay(&mut self, now: Time, t: &WindowTemplate, hosts: Vec<(Core, Option<u32>)>) {
        let n = self.app.num_chares();
        let b0 = self.lb_boundary;
        let b1 = b0 + self.cfg.lb.period;
        let end = now + t.dur;
        // The in-flight boundary ghosts were verified against the
        // template; their delivery and consumption are baked into it, so
        // they are cancelled un-popped and credited via `events_skipped`.
        // The only wakes pending are the background hosts'
        // (`ff_window_start_matches`); they stay.
        let live_before = self.queue.len();
        let stale: Vec<EventHandle> = self.queue.iter_live().map(|(h, ..)| h).collect();
        for h in stale {
            self.queue.cancel(h);
        }
        // The wakes the window re-set, as `(set at, core, instant)` in the
        // order the live loop set them: by instant, then by ascending core.
        let mut wakes: VecDeque<(u32, usize, Option<Time>)> = hosts
            .iter()
            .filter_map(|(c, set_at)| set_at.map(|rel| (rel, c.index(), c.next_completion())))
            .collect();
        wakes.make_contiguous().sort_unstable_by_key(|&(rel, core, _)| (rel, core));
        // Jump the cluster's accounting across the window in one step
        // (asserts per-core time conservation in debug builds).
        let recut = hosts.into_iter().map(|(c, _)| c).collect();
        self.cluster.bulk_advance(end, &t.stat_delta, recut);
        // Re-enact the externally visible effects of every task
        // completion, in the original order.
        for s in &t.samples {
            self.tracker.contribute(b0 + s.iter_off, now + s.rel);
            self.window.record(TaskSample {
                task: TaskId(s.chare as u64),
                pe: t.mapping[s.chare],
                cpu: s.cpu,
                wall: s.wall,
            });
        }
        self.inbox_count.fill(0);
        for &(chare, count) in &t.end_inbox {
            let s = Self::inbox_slot(chare, b1);
            self.inbox_iter[s] = b1;
            self.inbox_count[s] = count as u32;
        }
        // Re-scheduling in template sequence order preserves FIFO
        // tie-breaks among same-instant arrivals. A host's wake goes where
        // the live loop set it: after the ghosts sent up to its instant (a
        // pop's handlers run before its wakes are set), before later ones.
        let end_sent = t.hosts.as_ref().map_or(&[][..], |h| &h.end_sent[..]);
        for (i, m) in t.end_inflight.iter().enumerate() {
            self.ff_set_wakes_before(&mut wakes, end_sent.get(i).copied().unwrap_or(0));
            self.queue
                .schedule(now + m.rel, Ev::Msg { chare: m.chare, iter: b1, epoch: self.epoch, dup: false });
        }
        self.ff_set_wakes_before(&mut wakes, t.dur.as_us() as u32);
        self.local_msgs += t.local_msgs;
        self.remote_msgs += t.remote_msgs;
        self.events_skipped += t.events_popped;
        self.ff_windows += 1;
        // Every chare ran its `period` iterations and is parked again.
        for chare in 0..n {
            debug_assert_eq!(self.state[chare], CState::Parked);
            self.next_iter[chare] = b1;
            self.atsync.park(chare, n);
        }
        let num_pes = self.num_pes();
        if let Some(tr) = self.cluster.trace_mut() {
            tr.marker(now.as_us(), format!("fast-forward: iterations {b0}..{b1} coalesced"));
            for pe in 0..num_pes {
                tr.record(pe, now.as_us(), end.as_us(), Activity::FastForward);
            }
        }
        self.lb_boundary = b1;
        // The last pop scheduled the LbDone, then set the wakes at its
        // instant.
        self.start_lb(end);
        self.ff_set_wakes_before(&mut wakes, u32::MAX);
        // Account for the queue depth the skipped events would have
        // reached, so `peak_queue_depth` stays bit-identical.
        self.queue.raise_peak(live_before + t.peak_delta);
        #[cfg(debug_assertions)]
        self.check_chares(true);
    }

    /// Set the re-cut hosts' wakes that the live loop set before `rel` µs
    /// after the release, as it did: clearing first gives a wake a fresh
    /// sequence number even when its instant equals the one it held at the
    /// release.
    fn ff_set_wakes_before(&mut self, wakes: &mut VecDeque<(u32, usize, Option<Time>)>, rel: u32) {
        while let Some((_, core, at)) = wakes.pop_front_if(|w| w.0 < rel) {
            self.queue.set_timer(core, None);
            self.queue.set_timer(core, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointPolicy;
    use crate::config::{LbConfig, RunConfig};
    use crate::program::SyntheticApp;
    use cloudlb_sim::ClusterConfig;

    fn small_cfg(iters: usize, strategy: &str) -> RunConfig {
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
    fn cloud_refine_reduces_penalty_and_migrates() {
        let app = SyntheticApp::ring(32, 0.001);
        let base = SimExecutor::new(&app, small_cfg(40, "nolb"), BgScript::none()).run();
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let nolb = SimExecutor::new(&app, small_cfg(40, "nolb"), bg.clone()).run();
        let lb = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), bg).run();
        assert!(lb.migrations > 0, "balancer should migrate under interference");
        let p_nolb = nolb.timing_penalty_vs(&base);
        let p_lb = lb.timing_penalty_vs(&base);
        assert!(
            p_lb < 0.5 * p_nolb,
            "LB penalty {p_lb:.3} should be under half of noLB {p_nolb:.3}"
        );
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
    fn migration_cost_appears_in_wall_time() {
        let app = SyntheticApp::ring(32, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let mut cheap = small_cfg(40, "cloudrefine");
        cheap.lb.step_cost_s = 0.0001;
        let mut dear = cheap.clone();
        dear.lb.step_cost_s = 0.050;
        let fast = SimExecutor::new(&app, cheap, bg.clone()).run();
        let slow = SimExecutor::new(&app, dear, bg).run();
        assert!(slow.app_time > fast.app_time);
    }

    #[test]
    #[should_panic(expected = "beyond cluster")]
    fn bg_script_outside_cluster_rejected() {
        let app = SyntheticApp::ring(8, 0.001);
        let bg = BgScript::steady(0, &[99], Time::ZERO, None, 1.0);
        SimExecutor::new(&app, small_cfg(5, "nolb"), bg);
    }

    #[test]
    fn lb_period_counts_steps() {
        let app = SyntheticApp::ring(8, 0.001);
        let mut cfg = small_cfg(20, "nolb");
        cfg.lb.period = 4;
        let r = SimExecutor::new(&app, cfg, BgScript::none()).run();
        // Boundaries before iterations 4, 8, 12, 16 → 4 steps.
        assert_eq!(r.lb_steps, 4);
    }

    #[test]
    fn core_failure_recovers_and_completes() {
        let app = SyntheticApp::ring(16, 0.001);
        let clean = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), BgScript::none()).run();
        // Kill core 2 mid-run (≈ iteration 12 of 40).
        let fail = FailureScript::kill_core(2, Time::from_us(50_000));
        let r = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), BgScript::none())
            .with_failures(fail)
            .try_run()
            .expect("recoverable failure");
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.failures, 1);
        assert_eq!(r.recoveries, 1);
        assert!(r.replayed_iters > 0, "rollback must replay some work");
        assert!(r.recovery_time > Dur::ZERO);
        assert!(
            r.final_mapping.iter().all(|&p| p != 2),
            "no chare may end on the dead core: {:?}",
            r.final_mapping
        );
        assert!(
            r.app_time > clean.app_time,
            "losing a core must cost wall time ({:?} vs {:?})",
            r.app_time,
            clean.app_time
        );
    }

    #[test]
    fn failure_runs_are_deterministic() {
        let app = SyntheticApp::ring(16, 0.0008);
        let bg = BgScript::steady(1, &[0], Time::ZERO, None, 1.0);
        let fail = FailureScript::kill_core(3, Time::from_us(40_000));
        let run = || {
            SimExecutor::new(&app, small_cfg(30, "cloudrefine"), bg.clone())
                .with_failures(fail.clone())
                .try_run()
                .expect("recoverable")
        };
        let a = run();
        let b = run();
        assert_eq!(a.app_time, b.app_time);
        assert_eq!(a.final_mapping, b.final_mapping);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.replayed_iters, b.replayed_iters);
    }

    #[test]
    fn kill_without_checkpoints_is_a_typed_error() {
        let app = SyntheticApp::ring(16, 0.001);
        let mut cfg = small_cfg(20, "nolb");
        cfg.checkpoints = CheckpointPolicy::Disabled;
        let fail = FailureScript::kill_core(1, Time::from_us(10_000));
        let err = SimExecutor::new(&app, cfg, BgScript::none())
            .with_failures(fail)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Unrecoverable { .. }), "{err}");
    }

    #[test]
    fn node_outage_recovers_and_restored_node_rejoins() {
        // Two nodes: node 1 (cores 4..8) dies mid-run and comes back later.
        let app = SyntheticApp::ring(32, 0.001);
        let mut cfg = RunConfig::paper(8, 60);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        let fail = FailureScript::node_outage(1, Time::from_us(30_000), Time::from_us(90_000));
        let r = SimExecutor::new(&app, cfg, BgScript::none())
            .with_failures(fail)
            .try_run()
            .expect("buddies live on node 0");
        assert_eq!(r.iter_times.len(), 60);
        assert_eq!(r.failures, 4, "all four cores of node 1 fail");
        assert_eq!(r.recoveries, 1, "one kill action, one rollback");
        // The restored cores re-join at a later LB boundary and host work
        // again by the end of the run.
        assert!(
            r.final_mapping.iter().any(|&p| p >= 4),
            "restored node never re-used: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn killing_every_core_reports_all_pes_dead() {
        let app = SyntheticApp::ring(8, 0.001);
        let fail = FailureScript::kill_node(0, Time::from_us(5_000));
        let err = SimExecutor::new(&app, small_cfg(20, "nolb"), BgScript::none())
            .with_failures(fail)
            .try_run()
            .unwrap_err();
        assert_eq!(err, RuntimeError::AllPesDead);
    }

    #[test]
    fn failure_trace_ledger_records_events() {
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(30, "cloudrefine").with_trace();
        let fail = FailureScript::kill_core(1, Time::from_us(40_000));
        let r = SimExecutor::new(&app, cfg, BgScript::none())
            .with_failures(fail)
            .try_run()
            .expect("recoverable");
        let trace = r.trace.expect("tracing enabled");
        let markers = trace.markers();
        assert!(markers.iter().any(|(_, l)| l.contains("core 1 fails")));
        assert!(markers.iter().any(|(_, l)| l.contains("recovery: roll back")));
        assert!(markers.iter().any(|(_, l)| l.contains("recovery complete")));
        assert!(markers.iter().any(|(_, l)| l.contains("checkpoint at iteration")));
    }

    #[test]
    fn finite_bg_on_killed_core_does_not_hang_the_run() {
        let app = SyntheticApp::ring(16, 0.001);
        // A huge finite bg job on core 0 — it can only finish long after
        // the app. Killing core 0 evicts it; the loop must still exit.
        let bg = BgScript::steady(5, &[0], Time::ZERO, Some(Dur::from_ms(10_000)), 1.0);
        let fail = FailureScript::kill_core(0, Time::from_us(20_000));
        let r = SimExecutor::new(&app, small_cfg(20, "cloudrefine"), bg)
            .with_failures(fail)
            .try_run()
            .expect("recoverable");
        assert_eq!(r.iter_times.len(), 20);
        assert!(!r.bg_penalties.contains_key(&5), "evicted job reports no penalty");
    }

    #[test]
    fn noisy_telemetry_runs_are_deterministic_and_flag_anomalies() {
        use cloudlb_sim::TelemetrySpec;
        let app = SyntheticApp::ring(16, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let run = || {
            SimExecutor::new(&app, small_cfg(30, "cloudrefine"), bg.clone())
                .with_telemetry(TelemetrySpec::noisy_cloud())
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.app_time, b.app_time);
        assert_eq!(a.final_mapping, b.final_mapping);
        assert_eq!(a.telemetry, b.telemetry);
        assert!(a.telemetry.total() > 0, "noisy_cloud must trip the validators: {:?}", a.telemetry);
        // Ground truth is untouched: the app still completes every iteration.
        assert_eq!(a.iter_times.len(), 30);
    }

    #[test]
    fn clean_telemetry_reports_no_anomalies() {
        let app = SyntheticApp::ring(16, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let r = SimExecutor::new(&app, small_cfg(20, "cloudrefine"), bg).run();
        assert_eq!(r.telemetry, crate::lbdb::WindowQuality::default());
        assert_eq!(r.decisions, cloudlb_balance::DecisionQuality::default());
    }

    #[test]
    fn guarded_strategy_reports_decision_quality_under_noise() {
        use cloudlb_sim::TelemetrySpec;
        let app = SyntheticApp::ring(32, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let guarded =
            SimExecutor::new(&app, small_cfg(40, "robustcloudrefine"), bg.clone())
                .with_telemetry(TelemetrySpec::noisy_cloud())
                .run();
        let unguarded = SimExecutor::new(&app, small_cfg(40, "cloudrefine"), bg)
            .with_telemetry(TelemetrySpec::noisy_cloud())
            .run();
        assert!(
            guarded.migrations < unguarded.migrations,
            "guards must cut migrations: {} vs {}",
            guarded.migrations,
            unguarded.migrations
        );
        let q = guarded.decisions;
        assert!(q.suppressed + q.oscillations + q.outliers_rejected > 0, "{q:?}");
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
    fn exhausted_retries_abort_migrations_and_the_run_still_completes() {
        use crate::netproto::MigrationProto;
        let app = SyntheticApp::ring(32, 0.001);
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let mut cfg = RunConfig::paper(8, 40);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        // A brutal link (90% loss) and a stingy retry budget: most
        // cross-node transfers must abort.
        cfg.migration_proto = MigrationProto { max_attempts: 2, deadline_s: 0.002, ack_bytes: 64 };
        let spec = cloudlb_sim::NetFaultSpec { loss: 0.9, ..cloudlb_sim::NetFaultSpec::none() };
        let r = SimExecutor::new(&app, cfg, bg).with_net_faults(spec).run();
        assert_eq!(r.iter_times.len(), 40);
        assert!(r.net.migration_aborts > 0, "expected aborts: {:?}", r.net);
        // Aborted chares stayed home: the mapping is still consistent.
        assert_eq!(r.final_mapping.len(), 32);
        assert!(r.final_mapping.iter().all(|&p| p < 8));
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

    fn with_ff(mut cfg: RunConfig, ff: crate::config::FastForward) -> RunConfig {
        cfg.fast_forward = ff;
        cfg
    }

    #[test]
    fn fast_forward_replays_clean_windows_bit_identically() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        for strategy in ["nolb", "cloudrefine"] {
            let cfg = small_cfg(60, strategy);
            let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), BgScript::none()).run();
            let off = SimExecutor::new(&app, with_ff(cfg, Ff::Off), BgScript::none()).run();
            assert_eq!(off.ff_windows, 0);
            assert_eq!(off.events_skipped, 0);
            assert!(on.ff_windows > 0, "{strategy}: clean run must replay windows");
            assert!(on.events_skipped > 0);
            assert_eq!(on.scrub_ff(), off, "{strategy}: replay must be bit-identical");
        }
    }

    #[test]
    fn fast_forward_recuts_windows_with_background_load() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        // Interference over the whole run: every window has a background
        // host, which replay re-cuts instead of declining the window.
        let bg = BgScript::steady(0, &[0], Time::ZERO, None, 1.0);
        let cfg = small_cfg(40, "nolb");
        let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), bg.clone()).run();
        let off = SimExecutor::new(&app, with_ff(cfg, Ff::Off), bg).run();
        assert!(on.ff_windows > 0, "bg-loaded windows must replay");
        assert_eq!(on.scrub_ff(), off);
    }

    #[test]
    fn fast_forward_resumes_after_a_transient_disturbance() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        // A short bg pulse early in the run; steady state afterwards.
        let bg = BgScript::steady(0, &[1], Time::from_us(10_000), Some(Dur::from_ms(20)), 1.0);
        let cfg = small_cfg(80, "cloudrefine");
        let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), bg.clone()).run();
        let off = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::Off), bg).run();
        let on_windows = on.ff_windows;
        assert_eq!(on.scrub_ff(), off, "fallback and resume must stay bit-identical");
        let clean =
            SimExecutor::new(&app, with_ff(cfg, Ff::On), BgScript::none()).run();
        assert!(
            on_windows > 0 && on_windows < clean.ff_windows,
            "disturbed run replays some but fewer windows: {} vs clean {}",
            on_windows,
            clean.ff_windows
        );
    }

    #[test]
    fn fast_forward_declines_under_stochastic_network_chaos() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(32, 0.001);
        let mut cfg = RunConfig::paper(8, 30);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        let run = |ff| {
            SimExecutor::new(&app, with_ff(cfg.clone(), ff), BgScript::none())
                .with_net_faults(cloudlb_sim::NetFaultSpec::flaky_cloud())
                .run()
        };
        let on = run(Ff::On);
        let off = run(Ff::Off);
        assert_eq!(on.ff_windows, 0, "stochastic chaos disables the fast path");
        assert_eq!(on.scrub_ff(), off);
    }

    #[test]
    fn fast_forward_is_exact_across_a_failure_and_recovery() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(60, "cloudrefine");
        let fail = FailureScript::kill_core(2, Time::from_us(80_000));
        let run = |ff| {
            SimExecutor::new(&app, with_ff(cfg.clone(), ff), BgScript::none())
                .with_failures(fail.clone())
                .try_run()
                .expect("recoverable failure")
        };
        let on = run(Ff::On);
        let off = run(Ff::Off);
        let on_windows = on.ff_windows;
        assert_eq!(on.scrub_ff(), off, "failure + recovery must stay bit-identical");
        assert!(on_windows > 0, "steady windows around the failure still replay");
    }

    #[test]
    fn auto_mode_preserves_exact_timelines_under_tracing() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(40, "cloudrefine").with_trace();
        let auto = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::Auto), BgScript::none()).run();
        assert_eq!(auto.ff_windows, 0, "auto must not coalesce traced runs");
        let off = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::Off), BgScript::none()).run();
        assert_eq!(auto.scrub_ff(), off);
        // Forcing it on coalesces the timeline (and only the timeline).
        let on = SimExecutor::new(&app, with_ff(cfg, Ff::On), BgScript::none()).run();
        assert!(on.ff_windows > 0);
        let tr = on.trace.as_ref().expect("tracing enabled");
        let has_ff = (0..tr.num_pes())
            .any(|pe| tr.intervals(pe).iter().any(|iv| iv.activity == Activity::FastForward));
        assert!(has_ff, "forced-on traced runs mark coalesced windows");
        assert_eq!(on.app_time, off.app_time, "physics is unchanged even when the trace is lossy");
        assert_eq!(on.final_mapping, off.final_mapping);
        assert_eq!(on.sim_events, off.sim_events);
    }

    #[test]
    fn cost_noise_disables_the_fast_path() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        let mut cfg = with_ff(small_cfg(40, "nolb"), Ff::On);
        cfg.cost_noise_frac = 0.05;
        let r = SimExecutor::new(&app, cfg, BgScript::none()).run();
        assert_eq!(r.ff_windows, 0, "noisy task costs must never replay");
    }

    #[test]
    fn fast_forward_preserves_event_accounting() {
        use crate::config::FastForward as Ff;
        let app = SyntheticApp::ring(16, 0.001);
        let cfg = small_cfg(60, "nolb");
        let on = SimExecutor::new(&app, with_ff(cfg.clone(), Ff::On), BgScript::none()).run();
        let off = SimExecutor::new(&app, with_ff(cfg, Ff::Off), BgScript::none()).run();
        // `sim_events` counts live pops + skipped pops: identical totals.
        assert_eq!(on.sim_events, off.sim_events);
        assert_eq!(on.peak_queue_depth, off.peak_queue_depth);
        assert!(on.events_skipped > 0);
        assert!(on.sim_events > on.events_skipped, "phase B always runs live");
    }

    fn two_node_cfg(iters: usize) -> RunConfig {
        let mut cfg = RunConfig::paper(8, iters);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        cfg
    }

    fn notice_script(node: usize, at_us: u64, revoke_us: u64) -> MembershipScript {
        MembershipScript {
            actions: vec![
                (
                    Time::from_us(at_us),
                    MembershipAction::Notice { node, revoke_at: Time::from_us(revoke_us) },
                ),
                (Time::from_us(revoke_us), MembershipAction::Revoke { node }),
            ],
        }
    }

    #[test]
    fn long_lead_notice_drains_the_node_with_no_rollback() {
        let app = SyntheticApp::ring(32, 0.001);
        // Notice at 30 ms with a 70 ms lead: 16 chares × ~174 µs transfers
        // drain long before the deadline.
        let r = SimExecutor::new(&app, two_node_cfg(40), BgScript::none())
            .with_membership(notice_script(1, 30_000, 100_000))
            .try_run()
            .expect("survivable storm");
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.recoveries, 0, "proactive drain must avoid any rollback");
        assert_eq!(r.elastic.notices, 1);
        assert_eq!(r.elastic.nodes_revoked, 1);
        assert_eq!(r.elastic.evacuations_attempted, 1);
        assert_eq!(r.elastic.evacuations_completed, 1, "node must be empty at revocation");
        assert!(r.elastic.chares_drained > 0);
        assert_eq!(r.elastic.chares_rolled_back, 0);
        assert_eq!(r.failures, 0, "a revocation is not a failure");
        assert!(
            r.final_mapping.iter().all(|&p| p < 4),
            "no chare may end on the revoked node: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn short_lead_notice_rescues_in_flight_chares() {
        let app = SyntheticApp::ring(32, 0.001);
        // A 50 µs lead: shorter than a single cross-node state transfer
        // (~174 µs), so every evacuee is still in flight at revocation and
        // must be rescued on landing — zero epochs lost.
        let r = SimExecutor::new(&app, two_node_cfg(40), BgScript::none())
            .with_membership(notice_script(1, 30_000, 30_050))
            .try_run()
            .expect("rescue path is survivable");
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.recoveries, 0, "in-flight state must be rescued, not rolled back");
        assert!(r.elastic.chares_rescued > 0, "{:?}", r.elastic);
        assert_eq!(r.elastic.chares_rolled_back, 0);
        assert!(r.final_mapping.iter().all(|&p| p < 4));
    }

    #[test]
    fn acquired_node_warms_up_and_takes_work() {
        let app = SyntheticApp::ring(32, 0.001);
        // Node 1 is latent (acquired at 20 ms, warm at 25 ms): the run
        // starts on node 0's four cores and expands onto node 1.
        let script = MembershipScript {
            actions: vec![
                (Time::from_us(20_000), MembershipAction::Acquire { node: 1 }),
                (Time::from_us(25_000), MembershipAction::WarmupDone { node: 1 }),
            ],
        };
        let r = SimExecutor::new(&app, two_node_cfg(60), BgScript::none())
            .with_membership(script)
            .try_run()
            .expect("expansion is clean");
        assert_eq!(r.iter_times.len(), 60);
        assert_eq!(r.elastic.acquisitions, 1);
        assert_eq!(r.elastic.warmups, 1);
        assert_eq!(r.recoveries, 0);
        assert!(
            r.final_mapping.iter().any(|&p| p >= 4),
            "acquired node never took work: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn membership_runs_are_deterministic() {
        let app = SyntheticApp::ring(32, 0.001);
        // Three nodes: 0 and 1 initial, 2 acquired mid-run; node 0 is
        // noticed and revoked after the expansion.
        let script = MembershipScript {
            actions: vec![
                (Time::from_us(15_000), MembershipAction::Acquire { node: 2 }),
                (Time::from_us(20_000), MembershipAction::WarmupDone { node: 2 }),
                (
                    Time::from_us(40_000),
                    MembershipAction::Notice { node: 0, revoke_at: Time::from_us(80_000) },
                ),
                (Time::from_us(80_000), MembershipAction::Revoke { node: 0 }),
            ],
        };
        let mut cfg = RunConfig::paper(12, 40);
        cfg.lb = LbConfig { strategy: "cloudrefine".into(), period: 5, ..Default::default() };
        let run = || {
            SimExecutor::new(&app, cfg.clone(), BgScript::none())
                .with_membership(script.clone())
                .try_run()
                .expect("survivable")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "membership runs must be bit-identical");
        assert!(a.elastic.notices == 1 && a.elastic.acquisitions == 1, "{:?}", a.elastic);
    }

    #[test]
    fn invalid_membership_scripts_are_invalid_config() {
        let app = SyntheticApp::ring(8, 0.001);
        // Out-of-range node.
        let err = SimExecutor::new(&app, small_cfg(5, "nolb"), BgScript::none())
            .with_membership(notice_script(7, 1_000, 2_000))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        // Acquisition that is not a trailing node (node 0 of 2).
        let app2 = SyntheticApp::ring(32, 0.001);
        let script = MembershipScript {
            actions: vec![(Time::from_us(1_000), MembershipAction::Acquire { node: 0 })],
        };
        let err = SimExecutor::new(&app2, two_node_cfg(5), BgScript::none())
            .with_membership(script)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        // Warm-up for a node that is never acquired.
        let script = MembershipScript {
            actions: vec![(Time::from_us(1_000), MembershipAction::WarmupDone { node: 1 })],
        };
        let err = SimExecutor::new(&app2, two_node_cfg(5), BgScript::none())
            .with_membership(script)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn static_membership_reports_default_elastic_stats() {
        let app = SyntheticApp::ring(16, 0.001);
        let r = SimExecutor::new(&app, small_cfg(10, "cloudrefine"), BgScript::none()).run();
        assert_eq!(r.elastic, ElasticStats::default());
    }

    #[test]
    fn empty_queue_before_the_end_is_a_typed_deadlock() {
        // A finite background task that is owed a completion but was never
        // scheduled: the queue drains after the app ends.
        let app = SyntheticApp::ring(8, 0.001);
        let cfg = small_cfg(5, "nolb");
        let strategy = cfg.lb.try_strategy().unwrap();
        let mut sim = Sim::new(
            &app,
            cfg,
            &BgScript::none(),
            &FailureScript::none(),
            TelemetrySpec::none(),
            NetFaultSpec::none(),
            &MembershipScript::none(),
            strategy,
        );
        sim.pending_bg = 1;
        let err = sim.run().unwrap_err();
        assert_eq!(err, RuntimeError::Deadlock { app_done: true, pending_bg: 1 });
        assert!(err.to_string().contains("app done and 1 bg tasks pending"), "{err}");
    }
}
