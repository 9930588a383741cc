//! Per-layer metrics of one traced job, under the names `BENCHMARK.json`
//! lists. A metric of a layer the workload does not use reads 0.

use crate::trace::{self_times, Span};
use crate::workloads::Job;
use std::collections::{BTreeMap, HashMap};

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.setup_s", "s"),
    ("core.reduce_s", "s"),
    ("core.self_s", "s"),
    ("core.pipeline.busy_s", "s"),
    ("core.pipeline.utilization", "share"),
    ("core.pipeline.steals", "count"),
    ("core.pipeline.injector_claims", "count"),
    ("core.pipeline.reorder_peak", "count"),
    ("core.pipeline.live_peak", "count"),
    ("runtime.run_s", "s"),
    ("runtime.run_s.p50", "s"),
    ("runtime.run_s.p90", "s"),
    ("runtime.self_s", "s"),
    ("runtime.ns_per_live_event", "ns"),
    ("runtime.ns_per_live_event.p64", "ns"),
    ("runtime.ns_per_live_event.p128", "ns"),
    ("runtime.ns_per_live_event.p256", "ns"),
    ("runtime.sim_events", "count"),
    ("runtime.live_events", "count"),
    ("runtime.ff_windows", "count"),
    ("runtime.ff_skip_frac", "share"),
    ("runtime.peak_queue_depth", "count"),
    ("runtime.lb_steps", "count"),
    ("runtime.migrations", "count"),
    ("runtime.failures", "count"),
    ("runtime.recoveries", "count"),
    ("runtime.replayed_iters", "count"),
    ("runtime.net.lost_copies", "count"),
    ("runtime.net.retransmits", "count"),
    ("runtime.net.duplicates_dropped", "count"),
    ("runtime.net.migration_retries", "count"),
    ("runtime.net.migration_aborts", "count"),
    ("runtime.net.partition_sim_s", "s"),
    ("runtime.elastic.notices", "count"),
    ("runtime.elastic.nodes_revoked", "count"),
    ("runtime.elastic.acquisitions", "count"),
    ("runtime.elastic.warmups", "count"),
    ("runtime.elastic.evacuations_attempted", "count"),
    ("runtime.elastic.evacuations_completed", "count"),
    ("runtime.elastic.chares_drained", "count"),
    ("runtime.elastic.chares_rescued", "count"),
    ("runtime.elastic.chares_rolled_back", "count"),
    ("balance.plan_calls", "count"),
    ("balance.plan_s", "s"),
    ("balance.plan_frac", "share"),
    ("balance.plan_us_p50", "us"),
    ("balance.plan_us_max", "us"),
    ("balance.moves_planned", "count"),
    ("balance.commit_ratio", "share"),
    ("apps.calls", "count"),
    ("apps.callback_s", "s"),
    ("vopr.gen_s", "s"),
    ("vopr.check_s", "s"),
    ("vopr.completed", "count"),
    ("vopr.typed_errors", "count"),
    ("vopr.oracle_failures", "count"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "share"),
];

/// Nearest-rank percentile of unsorted values (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Per-layer metrics of a traced job. `untraced_wall_s` is the plain
/// job's time, for the tracing overhead.
pub fn layer_metrics(
    job: &Job,
    spans: &[Span],
    untraced_wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        *m.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = v;
    };
    let total = |pred: &dyn Fn(&Span) -> bool| {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(Span::secs)
            .sum::<f64>()
    };

    set("core.setup_s", total(&|s| s.name.starts_with("setup.")));
    set("core.reduce_s", total(&|s| s.name == "pipeline.consume"));
    if let Some(p) = &job.pipeline {
        set("core.pipeline.busy_s", p.busy_s);
        set("core.pipeline.utilization", p.utilization);
        set("core.pipeline.steals", p.steals as f64);
        set("core.pipeline.injector_claims", p.injector_claims as f64);
        set("core.pipeline.reorder_peak", p.reorder_peak as f64);
        set("core.pipeline.live_peak", p.live_peak as f64);
    }
    let own = self_times(spans);
    let own_s = |layer: &str| own.get(layer).copied().unwrap_or(0.0);
    set("core.self_s", own_s("core"));
    set("bench.self_s", own_s("bench"));

    // Plan time per run, from the plan spans under each run's span.
    let mut plan_by_run: HashMap<u64, f64> = HashMap::new();
    let plans: Vec<&Span> = spans.iter().filter(|s| s.name == "plan").collect();
    for s in &plans {
        *plan_by_run.entry(s.parent).or_default() += s.secs();
    }

    let mut per_run = Vec::new();
    let (mut run_s, mut self_s, mut live, mut callback_s, mut calls) = (0.0, 0.0, 0u64, 0.0, 0u64);
    let (mut sim_events, mut skipped, mut ff_windows, mut peak) = (0u64, 0u64, 0usize, 0usize);
    let (mut lb_steps, mut migrations, mut failures, mut recoveries, mut replayed) =
        (0, 0, 0, 0, 0);
    let mut net = cloudlb_sim::NetStats::default();
    let mut el = cloudlb_runtime::ElasticStats::default();
    for rec in &job.runs {
        let r = rec.run_s;
        let own = r - plan_by_run.get(&rec.span).copied().unwrap_or(0.0) - rec.callback_s;
        per_run.push(r);
        run_s += r;
        self_s += own;
        callback_s += rec.callback_s;
        calls += rec.callback_calls;
        let Some(st) = rec.stats else { continue };
        let run_live = st.sim_events - st.events_skipped;
        live += run_live;
        if run_live > 0 {
            match rec.cores {
                64 => set("runtime.ns_per_live_event.p64", own * 1e9 / run_live as f64),
                128 => set(
                    "runtime.ns_per_live_event.p128",
                    own * 1e9 / run_live as f64,
                ),
                256 => set(
                    "runtime.ns_per_live_event.p256",
                    own * 1e9 / run_live as f64,
                ),
                _ => {}
            }
        }
        sim_events += st.sim_events;
        skipped += st.events_skipped;
        ff_windows += st.ff_windows;
        peak = peak.max(st.peak_queue_depth);
        lb_steps += st.lb_steps;
        migrations += st.migrations;
        failures += st.failures;
        recoveries += st.recoveries;
        replayed += st.replayed_iters;
        net.lost_copies += st.net.lost_copies;
        net.retransmits += st.net.retransmits;
        net.duplicates_dropped += st.net.duplicates_dropped;
        net.migration_retries += st.net.migration_retries;
        net.migration_aborts += st.net.migration_aborts;
        net.partition_us += st.net.partition_us;
        el.notices += st.elastic.notices;
        el.nodes_revoked += st.elastic.nodes_revoked;
        el.acquisitions += st.elastic.acquisitions;
        el.warmups += st.elastic.warmups;
        el.evacuations_attempted += st.elastic.evacuations_attempted;
        el.evacuations_completed += st.elastic.evacuations_completed;
        el.chares_drained += st.elastic.chares_drained;
        el.chares_rescued += st.elastic.chares_rescued;
        el.chares_rolled_back += st.elastic.chares_rolled_back;
    }
    set("runtime.run_s", run_s);
    set("runtime.run_s.p50", percentile(&per_run, 0.5));
    set("runtime.run_s.p90", percentile(&per_run, 0.9));
    set("runtime.self_s", self_s);
    if live > 0 {
        set("runtime.ns_per_live_event", self_s * 1e9 / live as f64);
    }
    set("runtime.sim_events", sim_events as f64);
    set("runtime.live_events", live as f64);
    set("runtime.ff_windows", ff_windows as f64);
    if sim_events > 0 {
        set("runtime.ff_skip_frac", skipped as f64 / sim_events as f64);
    }
    set("runtime.peak_queue_depth", peak as f64);
    set("runtime.lb_steps", lb_steps as f64);
    set("runtime.migrations", migrations as f64);
    set("runtime.failures", failures as f64);
    set("runtime.recoveries", recoveries as f64);
    set("runtime.replayed_iters", replayed as f64);
    set("runtime.net.lost_copies", net.lost_copies as f64);
    set("runtime.net.retransmits", net.retransmits as f64);
    set(
        "runtime.net.duplicates_dropped",
        net.duplicates_dropped as f64,
    );
    set(
        "runtime.net.migration_retries",
        net.migration_retries as f64,
    );
    set("runtime.net.migration_aborts", net.migration_aborts as f64);
    set(
        "runtime.net.partition_sim_s",
        net.partition_us as f64 * 1e-6,
    );
    set("runtime.elastic.notices", el.notices as f64);
    set("runtime.elastic.nodes_revoked", el.nodes_revoked as f64);
    set("runtime.elastic.acquisitions", el.acquisitions as f64);
    set("runtime.elastic.warmups", el.warmups as f64);
    set(
        "runtime.elastic.evacuations_attempted",
        el.evacuations_attempted as f64,
    );
    set(
        "runtime.elastic.evacuations_completed",
        el.evacuations_completed as f64,
    );
    set("runtime.elastic.chares_drained", el.chares_drained as f64);
    set("runtime.elastic.chares_rescued", el.chares_rescued as f64);
    set(
        "runtime.elastic.chares_rolled_back",
        el.chares_rolled_back as f64,
    );

    let plan_us: Vec<f64> = plans.iter().map(|s| s.secs() * 1e6).collect();
    let plan_s = plan_us.iter().sum::<f64>() * 1e-6;
    let moves: u64 = plans.iter().map(|s| s.count).sum();
    set("balance.plan_calls", plans.len() as f64);
    set("balance.plan_s", plan_s);
    if run_s > 0.0 {
        set("balance.plan_frac", plan_s / run_s);
    }
    set("balance.plan_us_p50", percentile(&plan_us, 0.5));
    set("balance.plan_us_max", percentile(&plan_us, 1.0));
    set("balance.moves_planned", moves as f64);
    if moves > 0 {
        set("balance.commit_ratio", migrations as f64 / moves as f64);
    }
    set("apps.calls", calls as f64);
    set("apps.callback_s", callback_s);

    set("vopr.gen_s", total(&|s| s.name == "generate"));
    set("vopr.check_s", total(&|s| s.name == "check"));
    if let Some([completed, typed, failed]) = job.verdicts {
        set("vopr.completed", completed as f64);
        set("vopr.typed_errors", typed as f64);
        set("vopr.oracle_failures", failed as f64);
    }
    set("trace.spans", spans.len() as f64);
    let traced_wall = job.comparable_wall_s.unwrap_or(job.wall_s);
    set("trace.overhead_s", traced_wall - untraced_wall_s);
    if untraced_wall_s > 0.0 {
        set("trace.overhead_frac", traced_wall / untraced_wall_s - 1.0);
    }
    m
}
