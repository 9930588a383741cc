//! Network fault injection: what a multi-tenant cloud NIC does to messages.
//!
//! [`crate::network::NetworkModel`] is a lossless delay function — the
//! dedicated-cluster idealization. Real virtualized networks lose packets,
//! duplicate them, deliver them out of order, jitter their latency,
//! collapse in bandwidth when a noisy neighbour saturates the host NIC,
//! and suffer transient partitions when an overlay or top-of-rack switch
//! reconverges. This module models all of those as a deterministic, seeded
//! channel layered *over* the clean model, the same way
//! [`crate::telemetry::TelemetryChannel`] corrupts `/proc/stat` reads
//! without touching ground truth: the clean path stays byte-identical, and
//! the same run replays with and without a hostile network.
//!
//! Two delivery APIs reflect the two traffics the runtime pushes through
//! the NIC:
//!
//! * [`FaultyNetwork::deliver`] — the *reliable* path ghost messages use.
//!   It models a transport that retransmits on loss with capped exponential
//!   backoff and (because blocked iterations would deadlock the DES) fast
//!   forwards a send blocked by a partition to the partition's heal time.
//!   The caller always gets a final arrival instant, plus optionally the
//!   arrival of a duplicate copy the receiver must suppress.
//! * [`FaultyNetwork::try_send`] — the *unreliable* datagram path the
//!   migration protocol (`cloudlb-runtime`'s `netproto`) builds its own
//!   retry/ACK/deadline machinery on. A copy sent into a partition or lost
//!   on the wire is simply [`SendOutcome::Lost`]; deadlines keep burning,
//!   which is exactly how a migration comes to be aborted.
//!
//! Faults only apply to cross-node traffic: intra-node delivery bypasses
//! the virtualized NIC (shared memory), mirroring `NetworkModel::delay`.

use crate::network::NetworkModel;
use crate::rng::{stream_seed, SimRng, StreamLayer};
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// Which links a scheduled partition severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionScope {
    /// The whole rack: every cross-node link is down (top-of-rack switch
    /// or overlay reconvergence).
    Rack,
    /// Only the link between two specific nodes is down.
    NodePair {
        /// First node of the severed pair.
        a: usize,
        /// Second node of the severed pair.
        b: usize,
    },
}

/// A transient partition window, expressed as fractions of the run's
/// interference-free time estimate (the same convention `FailSpec` uses
/// for failure instants, so `--fail` and partition schedules line up).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// Which links go down.
    pub scope: PartitionScope,
    /// Window start as a fraction of the run estimate, in `[0, 1]`.
    pub from_frac: f64,
    /// Window end as a fraction of the run estimate, in `(from_frac, 1]`.
    pub to_frac: f64,
}

/// Declarative description of network misbehaviour. All knobs default to
/// zero/off (the transparent channel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NetFaultSpec {
    /// Per-copy loss probability on cross-node links.
    #[serde(default)]
    pub loss: f64,
    /// Probability a delivered copy is duplicated (the receiver must
    /// suppress the extra copy idempotently).
    #[serde(default)]
    pub dup: f64,
    /// Probability a copy is delivered out of order — it arrives an extra
    /// 1–4 base latencies late, behind traffic sent after it.
    #[serde(default)]
    pub reorder: f64,
    /// Latency jitter amplitude: each copy's delay is scaled by
    /// `1 + U(0, jitter)`.
    #[serde(default)]
    pub jitter: f64,
    /// Probability a copy hits a bandwidth collapse (noisy neighbour on
    /// the host NIC): effective bandwidth drops by [`Self::slowdown`].
    #[serde(default)]
    pub collapse: f64,
    /// Bandwidth divisor during a collapse episode (≥ 1); `None` means
    /// the default 4×. (See [`Self::slowdown_factor`].)
    #[serde(default)]
    pub slowdown: Option<f64>,
    /// Scheduled transient partitions.
    #[serde(default)]
    pub partitions: Vec<PartitionWindow>,
}

impl NetFaultSpec {
    /// The transparent channel (no faults).
    pub fn none() -> Self {
        NetFaultSpec::default()
    }

    /// The default chaos script used by the robustness experiments and the
    /// CI `chaos-net` sweep: ≈1 % loss, occasional duplicates and
    /// reordering, sizable jitter, rare 4× bandwidth collapses, and one
    /// transient full-rack partition near the middle of the run.
    pub fn flaky_cloud() -> Self {
        NetFaultSpec {
            loss: 0.01,
            dup: 0.005,
            reorder: 0.05,
            jitter: 0.25,
            collapse: 0.02,
            slowdown: None,
            partitions: vec![PartitionWindow {
                scope: PartitionScope::Rack,
                from_frac: 0.45,
                to_frac: 0.50,
            }],
        }
    }

    /// Effective bandwidth divisor during collapse episodes.
    pub fn slowdown_factor(&self) -> f64 {
        self.slowdown.unwrap_or(4.0)
    }

    /// `true` when any fault is configured.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.dup > 0.0
            || self.reorder > 0.0
            || self.jitter > 0.0
            || self.collapse > 0.0
            || !self.partitions.is_empty()
    }

    /// Parse the CLI syntax: either a preset name (`flaky_cloud`, `none`)
    /// or a comma list of `key:value` pairs with keys `loss`, `dup`,
    /// `reorder`, `jitter`, `collapse`, `slowdown`, plus partition windows
    /// `rack:FROM~TO` (full-rack) and `part:A-B@FROM~TO` (node pair),
    /// where `FROM`/`TO` are fractions of the run estimate. Example:
    /// `loss:0.02,jitter:0.3,rack:0.4~0.45`.
    pub fn parse(s: &str) -> Result<NetFaultSpec, String> {
        match s {
            "flaky_cloud" => return Ok(Self::flaky_cloud()),
            "none" | "" => return Ok(Self::none()),
            _ => {}
        }
        let mut spec = NetFaultSpec::none();
        for part in s.split(',') {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("bad net-fault spec {part:?}: missing ':'"))?;
            let frac = |what: &str, hi: f64| -> Result<f64, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad net-fault spec {part:?}: value {value:?}"))?;
                if !(0.0..=hi).contains(&v) {
                    return Err(format!(
                        "bad net-fault spec {part:?}: {what} must be in [0, {hi}]"
                    ));
                }
                Ok(v)
            };
            match key {
                // Probabilities cap at 0.9 so the reliable path always
                // terminates: a link that never delivers is a partition,
                // and partitions have explicit heal times.
                "loss" => spec.loss = frac("loss", 0.9)?,
                "dup" => spec.dup = frac("dup", 0.9)?,
                "reorder" => spec.reorder = frac("reorder", 0.9)?,
                "jitter" => spec.jitter = frac("jitter", 1.0)?,
                "collapse" => spec.collapse = frac("collapse", 0.9)?,
                "slowdown" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("bad net-fault spec {part:?}: value {value:?}"))?;
                    if !(1.0..=1000.0).contains(&v) {
                        return Err(format!(
                            "bad net-fault spec {part:?}: slowdown must be in [1, 1000]"
                        ));
                    }
                    spec.slowdown = Some(v);
                }
                "rack" => {
                    let (f, t) = parse_window(part, value)?;
                    spec.partitions.push(PartitionWindow {
                        scope: PartitionScope::Rack,
                        from_frac: f,
                        to_frac: t,
                    });
                }
                "part" => {
                    let (pair, window) = value.split_once('@').ok_or_else(|| {
                        format!("bad net-fault spec {part:?}: expected part:A-B@FROM~TO")
                    })?;
                    let (a, b) = pair.split_once('-').ok_or_else(|| {
                        format!("bad net-fault spec {part:?}: expected node pair A-B")
                    })?;
                    let a: usize = a
                        .parse()
                        .map_err(|_| format!("bad net-fault spec {part:?}: node {a:?}"))?;
                    let b: usize = b
                        .parse()
                        .map_err(|_| format!("bad net-fault spec {part:?}: node {b:?}"))?;
                    let (f, t) = parse_window(part, window)?;
                    spec.partitions.push(PartitionWindow {
                        scope: PartitionScope::NodePair { a, b },
                        from_frac: f,
                        to_frac: t,
                    });
                }
                other => {
                    return Err(format!("bad net-fault spec {part:?}: unknown key {other:?}"))
                }
            }
        }
        Ok(spec)
    }

    /// Check the spec against a cluster of `nodes` nodes. Scenario files
    /// bypass [`Self::parse`], so the executor re-validates before a run.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        for p in [self.loss, self.dup, self.reorder, self.collapse] {
            if !(0.0..=0.9).contains(&p) {
                return Err(format!("fault probability {p} out of [0, 0.9]"));
            }
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!("jitter {} out of [0, 1]", self.jitter));
        }
        if let Some(v) = self.slowdown {
            if !(1.0..=1000.0).contains(&v) {
                return Err(format!("slowdown {v} out of [1, 1000]"));
            }
        }
        for w in &self.partitions {
            if !(0.0..=1.0).contains(&w.from_frac) || !(0.0..=1.0).contains(&w.to_frac) {
                return Err(format!(
                    "partition window {}~{} out of [0, 1]",
                    w.from_frac, w.to_frac
                ));
            }
            if w.to_frac <= w.from_frac {
                return Err(format!("empty partition window {}~{}", w.from_frac, w.to_frac));
            }
            if let PartitionScope::NodePair { a, b } = w.scope {
                if a == b {
                    return Err(format!("partition pair {a}-{b} is a self-loop"));
                }
                if a >= nodes || b >= nodes {
                    return Err(format!(
                        "partition pair {a}-{b} out of range for {nodes} node(s)"
                    ));
                }
            }
        }
        Ok(())
    }
}

fn parse_window(part: &str, value: &str) -> Result<(f64, f64), String> {
    let (f, t) = value
        .split_once('~')
        .ok_or_else(|| format!("bad net-fault spec {part:?}: expected FROM~TO window"))?;
    let parse = |s: &str| -> Result<f64, String> {
        let v: f64 =
            s.parse().map_err(|_| format!("bad net-fault spec {part:?}: fraction {s:?}"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("bad net-fault spec {part:?}: fraction {s} out of [0, 1]"));
        }
        Ok(v)
    };
    let (f, t) = (parse(f)?, parse(t)?);
    if t <= f {
        return Err(format!("bad net-fault spec {part:?}: empty window {f}~{t}"));
    }
    Ok((f, t))
}

/// Counters the channel accumulates over a run; surfaced in `RunResult`
/// the way `WindowQuality` reports telemetry damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Message copies lost on the wire (or sent into a partition).
    #[serde(default)]
    pub lost_copies: u64,
    /// Retransmissions the reliable ghost-message transport performed.
    #[serde(default)]
    pub retransmits: u64,
    /// Duplicate copies generated by the channel (or by migration
    /// retransmission races) and suppressed by the receiver.
    #[serde(default)]
    pub duplicates_dropped: u64,
    /// Migration data/ACK retry rounds the reliable protocol ran.
    #[serde(default)]
    pub migration_retries: u64,
    /// Migrations aborted after exhausting their attempt/deadline budget.
    #[serde(default)]
    pub migration_aborts: u64,
    /// Total scheduled partition time (µs, summed over windows).
    #[serde(default)]
    pub partition_us: u64,
}

/// Final arrival of a reliably-delivered message, plus the arrival instant
/// of a duplicate copy (if the channel generated one) the receiver must
/// drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the (single logical) message lands.
    pub arrival: Time,
    /// When a duplicate copy lands, if one was generated.
    pub dup: Option<Time>,
}

/// Outcome of one unreliable datagram send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The copy was lost (wire loss or partition); nothing arrives.
    Lost,
    /// The copy landed.
    Delivered {
        /// Arrival instant at the destination.
        arrival: Time,
    },
}

/// Retransmission attempts after which the reliable path force-delivers.
/// With loss capped at 0.9 the odds of reaching this are ≈ 0.9^64 ≈ 1e-3 %;
/// the cap only guarantees termination.
const MAX_SEND_ATTEMPTS: u32 = 64;

/// The stateful fault channel: a [`NetworkModel`] wrapped in seeded
/// misbehaviour. Fully deterministic from `(spec, model, seed, horizon)`.
#[derive(Debug, Clone)]
pub struct FaultyNetwork {
    spec: NetFaultSpec,
    model: NetworkModel,
    rng: SimRng,
    /// Partition windows resolved to absolute instants.
    windows: Vec<(PartitionScope, Time, Time)>,
    /// Base retransmission timeout (small control messages).
    rto0: Dur,
    /// Backoff cap.
    rto_max: Dur,
    /// Damage counters, updated by every send.
    pub stats: NetStats,
}

impl FaultyNetwork {
    /// Open a channel. `horizon` is the run's interference-free time
    /// estimate; partition windows are fractions of it.
    pub fn new(spec: NetFaultSpec, model: NetworkModel, seed: u64, horizon: Dur) -> Self {
        let h = horizon.as_secs_f64();
        let windows: Vec<(PartitionScope, Time, Time)> = spec
            .partitions
            .iter()
            .map(|w| {
                (
                    w.scope,
                    Time::ZERO + Dur::from_secs_f64(h * w.from_frac),
                    Time::ZERO + Dur::from_secs_f64(h * w.to_frac),
                )
            })
            .collect();
        let partition_us = windows.iter().map(|&(_, f, t)| t.since(f).as_us()).sum();
        let lat_us =
            (model.inter_node_latency_us as f64 * model.virtualization_penalty).round() as u64;
        let rto0 = Dur::from_us((4 * lat_us).max(200));
        let rto_max = Dur::from_us(rto0.as_us().saturating_mul(128));
        FaultyNetwork {
            spec,
            model,
            rng: SimRng::new(stream_seed(seed, StreamLayer::NetFault)),
            windows,
            rto0,
            rto_max,
            stats: NetStats { partition_us, ..NetStats::default() },
        }
    }

    /// The underlying clean delay model.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Base retransmission timeout for small control messages.
    pub fn rto0(&self) -> Dur {
        self.rto0
    }

    /// Initial retransmission timeout for a `bytes`-sized transfer: one
    /// data trip plus an ACK trip plus slack (the sender's RTT estimate).
    pub fn rto_for(&self, bytes: usize) -> Dur {
        self.model.delay(bytes, false) + self.model.delay(64, false) + self.rto0
    }

    /// One exponential-backoff step, capped.
    pub fn next_rto(&self, rto: Dur) -> Dur {
        (rto * 2.0).min(self.rto_max)
    }

    /// If the `from`↔`to` link is cut at `at`, the heal time of the
    /// latest window covering that instant.
    pub fn cut_until(&self, from_node: usize, to_node: usize, at: Time) -> Option<Time> {
        if from_node == to_node {
            return None;
        }
        self.windows
            .iter()
            .filter(|&&(scope, f, t)| {
                (f..t).contains(&at)
                    && match scope {
                        PartitionScope::Rack => true,
                        PartitionScope::NodePair { a, b } => {
                            (from_node, to_node) == (a, b) || (from_node, to_node) == (b, a)
                        }
                    }
            })
            .map(|&(_, _, t)| t)
            .max()
    }

    /// Fast-forward disturbance-horizon query: the earliest instant at or
    /// after `after` when this channel can treat two identical sends
    /// differently from the clean wire model.
    ///
    /// * Any stochastic knob (loss, dup, reorder, jitter, collapse) makes
    ///   every cross-node send draw from the channel RNG, so the channel is
    ///   disturbed *continuously*: returns `Some(after)`.
    /// * While `after` sits inside a partition window, sends are being
    ///   rerouted to absolute heal instants: also `Some(after)`.
    /// * Otherwise the next scheduled partition start strictly after
    ///   `after`, or `None` if the channel behaves cleanly forever — only
    ///   then may a steady-state window overlapping `(after, horizon]` be
    ///   macro-stepped.
    pub fn next_disturbance_at(&self, after: Time) -> Option<Time> {
        let s = &self.spec;
        if s.loss > 0.0 || s.dup > 0.0 || s.reorder > 0.0 || s.jitter > 0.0 || s.collapse > 0.0 {
            return Some(after);
        }
        if self.windows.iter().any(|&(_, f, t)| (f..t).contains(&after)) {
            return Some(after);
        }
        self.windows.iter().map(|&(_, f, _)| f).filter(|&f| f > after).min()
    }

    /// Reliable delivery (the ghost-message path): the transport
    /// retransmits on loss with capped exponential backoff and rides out
    /// partitions by resending at the heal instant, so the caller always
    /// gets a final arrival. Counts every lost copy and retransmission.
    pub fn deliver(
        &mut self,
        at: Time,
        bytes: usize,
        same_node: bool,
        from_node: usize,
        to_node: usize,
    ) -> Delivery {
        if same_node {
            // Shared-memory path: bypasses the virtualized NIC entirely.
            return Delivery { arrival: at + self.model.delay(bytes, true), dup: None };
        }
        let mut send = at;
        let mut rto = self.rto0;
        for _ in 0..MAX_SEND_ATTEMPTS {
            if let Some(heal) = self.cut_until(from_node, to_node, send) {
                // Copies sent into the partition vanish; the transport
                // keeps retrying and first succeeds once the link heals.
                self.stats.lost_copies += 1;
                self.stats.retransmits += 1;
                send = heal;
                continue;
            }
            if self.spec.loss > 0.0 && self.rng.f64() < self.spec.loss {
                self.stats.lost_copies += 1;
                self.stats.retransmits += 1;
                send += rto;
                rto = self.next_rto(rto);
                continue;
            }
            break;
        }
        let arrival = send + self.copy_delay(bytes);
        let dup = if self.spec.dup > 0.0 && self.rng.f64() < self.spec.dup {
            self.stats.duplicates_dropped += 1;
            Some(arrival + self.copy_delay(bytes))
        } else {
            None
        };
        Delivery { arrival, dup }
    }

    /// Unreliable cross-node datagram send (the migration-protocol path):
    /// a copy sent into a partition or lost on the wire is simply gone —
    /// the caller's own retry/deadline machinery decides what happens next.
    pub fn try_send(
        &mut self,
        at: Time,
        bytes: usize,
        from_node: usize,
        to_node: usize,
    ) -> SendOutcome {
        if self.cut_until(from_node, to_node, at).is_some() {
            self.stats.lost_copies += 1;
            return SendOutcome::Lost;
        }
        if self.spec.loss > 0.0 && self.rng.f64() < self.spec.loss {
            self.stats.lost_copies += 1;
            return SendOutcome::Lost;
        }
        let arrival = at + self.copy_delay(bytes);
        if self.spec.dup > 0.0 && self.rng.f64() < self.spec.dup {
            // The duplicate copy carries the same sequence number; the
            // receiver suppresses it, so only the counter moves.
            self.stats.duplicates_dropped += 1;
        }
        SendOutcome::Delivered { arrival }
    }

    /// Delay of one cross-node copy: the clean wire model degraded by
    /// bandwidth collapse, jitter, and reordering.
    fn copy_delay(&mut self, bytes: usize) -> Dur {
        let mut bw = self.model.bandwidth_bytes_per_us;
        if self.spec.collapse > 0.0 && self.rng.f64() < self.spec.collapse {
            bw /= self.spec.slowdown_factor();
        }
        let wire = self.model.inter_node_latency_us as f64 + bytes as f64 / bw;
        let mut us = wire * self.model.virtualization_penalty;
        if self.spec.jitter > 0.0 {
            us *= 1.0 + self.rng.f64() * self.spec.jitter;
        }
        if self.spec.reorder > 0.0 && self.rng.f64() < self.spec.reorder {
            let base = self.model.inter_node_latency_us as f64 * self.model.virtualization_penalty;
            us += base * self.rng.range_f64(1.0, 4.0);
        }
        Dur::from_us(us.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> Dur {
        Dur::from_secs_f64(1.0)
    }

    fn channel(spec: NetFaultSpec, seed: u64) -> FaultyNetwork {
        FaultyNetwork::new(spec, NetworkModel::default(), seed, horizon())
    }

    #[test]
    fn clean_channel_matches_the_wire_model() {
        let net = NetworkModel::default();
        let mut ch = channel(NetFaultSpec::none(), 1);
        let d = ch.deliver(Time::ZERO, 4_096, false, 0, 1);
        assert_eq!(d.arrival, Time::ZERO + net.delay(4_096, false));
        assert_eq!(d.dup, None);
        let s = ch.try_send(Time::ZERO, 4_096, 0, 1);
        assert_eq!(s, SendOutcome::Delivered { arrival: Time::ZERO + net.delay(4_096, false) });
        assert_eq!(ch.stats, NetStats::default());
    }

    #[test]
    fn same_node_bypasses_the_faults() {
        let net = NetworkModel::default();
        let mut ch = channel(NetFaultSpec { loss: 0.9, ..NetFaultSpec::flaky_cloud() }, 5);
        for k in 0..50 {
            let d = ch.deliver(Time::from_us(k), 1_000, true, 0, 0);
            assert_eq!(d.arrival, Time::from_us(k) + net.delay(1_000, true));
            assert_eq!(d.dup, None);
        }
        assert_eq!(ch.stats.lost_copies, 0);
        assert_eq!(ch.stats.duplicates_dropped, 0);
    }

    #[test]
    fn channel_is_deterministic() {
        let run = || {
            let mut ch = channel(NetFaultSpec::flaky_cloud(), 42);
            let mut out = Vec::new();
            for k in 0..200u64 {
                out.push(ch.deliver(Time::from_us(k * 1_000), 2_048, false, 0, 1));
                out.push(match ch.try_send(Time::from_us(k * 1_000 + 500), 512, 1, 0) {
                    SendOutcome::Lost => Delivery { arrival: Time::MAX, dup: None },
                    SendOutcome::Delivered { arrival } => Delivery { arrival, dup: None },
                });
            }
            (out, ch.stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_forces_retransmissions_but_delivery_is_guaranteed() {
        let spec = NetFaultSpec { loss: 0.5, ..NetFaultSpec::none() };
        let mut ch = channel(spec, 7);
        let base = NetworkModel::default().delay(1_000, false);
        let mut delayed = false;
        for k in 0..100u64 {
            let at = Time::from_us(k * 10_000);
            let d = ch.deliver(at, 1_000, false, 0, 1);
            assert!(d.arrival >= at + base, "arrived before the wire allows");
            if d.arrival > at + base {
                delayed = true;
            }
        }
        assert!(ch.stats.retransmits > 0, "50% loss must retransmit");
        assert!(delayed, "retransmitted copies must arrive late");
    }

    #[test]
    fn partition_blocks_try_send_and_delays_deliver() {
        let spec = NetFaultSpec {
            partitions: vec![PartitionWindow {
                scope: PartitionScope::Rack,
                from_frac: 0.4,
                to_frac: 0.6,
            }],
            ..NetFaultSpec::none()
        };
        let mut ch = channel(spec, 3);
        let inside = Time::from_us(500_000);
        let heal = Time::from_us(600_000);
        assert_eq!(ch.try_send(inside, 100, 0, 1), SendOutcome::Lost);
        let d = ch.deliver(inside, 100, false, 0, 1);
        assert!(d.arrival >= heal, "reliable path must ride out the partition: {:?}", d.arrival);
        // Outside the window the link behaves.
        assert!(matches!(
            ch.try_send(Time::from_us(700_000), 100, 0, 1),
            SendOutcome::Delivered { .. }
        ));
        assert_eq!(ch.stats.partition_us, 200_000);
    }

    #[test]
    fn node_pair_partition_only_cuts_that_pair() {
        let spec = NetFaultSpec {
            partitions: vec![PartitionWindow {
                scope: PartitionScope::NodePair { a: 0, b: 1 },
                from_frac: 0.0,
                to_frac: 1.0,
            }],
            ..NetFaultSpec::none()
        };
        let mut ch = channel(spec, 3);
        let t = Time::from_us(100);
        assert_eq!(ch.try_send(t, 10, 0, 1), SendOutcome::Lost);
        assert_eq!(ch.try_send(t, 10, 1, 0), SendOutcome::Lost, "cuts are symmetric");
        assert!(matches!(ch.try_send(t, 10, 0, 2), SendOutcome::Delivered { .. }));
    }

    #[test]
    fn duplicates_are_generated_and_counted() {
        let spec = NetFaultSpec { dup: 0.9, ..NetFaultSpec::none() };
        let mut ch = channel(spec, 11);
        let mut dups = 0;
        for k in 0..50u64 {
            let d = ch.deliver(Time::from_us(k * 1_000), 256, false, 0, 1);
            if let Some(extra) = d.dup {
                assert!(extra > d.arrival, "the duplicate trails the original");
                dups += 1;
            }
        }
        assert!(dups > 0);
        assert_eq!(ch.stats.duplicates_dropped, dups);
    }

    #[test]
    fn collapse_and_jitter_only_stretch_delays() {
        let spec = NetFaultSpec { collapse: 0.5, jitter: 0.5, ..NetFaultSpec::none() };
        let mut ch = channel(spec, 13);
        let base = NetworkModel::default().delay(1 << 20, false);
        let mut stretched = false;
        for k in 0..20u64 {
            let at = Time::from_us(k * 100_000);
            let d = ch.deliver(at, 1 << 20, false, 0, 1);
            assert!(d.arrival >= at + base);
            if d.arrival.since(at) > base + Dur::from_us(base.as_us() / 4) {
                stretched = true;
            }
        }
        assert!(stretched, "collapse/jitter should visibly stretch some copies");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let ch = channel(NetFaultSpec::none(), 1);
        let mut rto = ch.rto0();
        for _ in 0..20 {
            let next = ch.next_rto(rto);
            assert!(next >= rto);
            rto = next;
        }
        assert_eq!(rto, ch.next_rto(rto), "backoff must cap");
        assert!(ch.rto_for(1 << 20) > ch.rto0(), "bulk transfers get a larger RTO");
    }

    #[test]
    fn next_disturbance_reflects_knobs_and_partitions() {
        // Stochastic knobs disturb continuously.
        let ch = channel(NetFaultSpec { jitter: 0.1, ..NetFaultSpec::none() }, 1);
        let t = Time::from_us(123);
        assert_eq!(ch.next_disturbance_at(t), Some(t));
        // Partition-only spec: clean until the window opens, disturbed
        // inside it, clean forever after it heals.
        let spec = NetFaultSpec {
            partitions: vec![PartitionWindow {
                scope: PartitionScope::Rack,
                from_frac: 0.4,
                to_frac: 0.6,
            }],
            ..NetFaultSpec::none()
        };
        let ch = channel(spec, 1); // horizon 1 s → window [0.4 s, 0.6 s)
        assert_eq!(ch.next_disturbance_at(Time::ZERO), Some(Time::from_us(400_000)));
        let inside = Time::from_us(500_000);
        assert_eq!(ch.next_disturbance_at(inside), Some(inside));
        assert_eq!(ch.next_disturbance_at(Time::from_us(600_000)), None);
        // The fully clean channel never disturbs.
        let ch = channel(NetFaultSpec::none(), 1);
        assert_eq!(ch.next_disturbance_at(Time::ZERO), None);
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(NetFaultSpec::parse("flaky_cloud").unwrap(), NetFaultSpec::flaky_cloud());
        assert_eq!(NetFaultSpec::parse("none").unwrap(), NetFaultSpec::none());
        let s = NetFaultSpec::parse("loss:0.02,jitter:0.3,slowdown:8,rack:0.4~0.45").unwrap();
        assert_eq!(s.loss, 0.02);
        assert_eq!(s.jitter, 0.3);
        assert_eq!(s.slowdown, Some(8.0));
        assert_eq!(
            s.partitions,
            vec![PartitionWindow { scope: PartitionScope::Rack, from_frac: 0.4, to_frac: 0.45 }]
        );
        let s = NetFaultSpec::parse("part:0-1@0.1~0.2").unwrap();
        assert_eq!(
            s.partitions,
            vec![PartitionWindow {
                scope: PartitionScope::NodePair { a: 0, b: 1 },
                from_frac: 0.1,
                to_frac: 0.2,
            }]
        );
        assert!(s.is_active());
        assert!(!NetFaultSpec::none().is_active());
        assert!(NetFaultSpec::parse("bogus:1").is_err());
        assert!(NetFaultSpec::parse("loss").is_err());
        assert!(NetFaultSpec::parse("loss:0.95").is_err(), "loss capped at 0.9");
        assert!(NetFaultSpec::parse("rack:0.5~0.4").is_err(), "empty window");
        assert!(NetFaultSpec::parse("part:1-1@0.1~0.2").unwrap().validate(4).is_err());
        assert!(NetFaultSpec::parse("part:0-9@0.1~0.2").unwrap().validate(4).is_err());
        assert!(NetFaultSpec::parse("part:0-1@0.1~0.2").unwrap().validate(4).is_ok());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = NetFaultSpec::flaky_cloud();
        let json = serde_json::to_string(&s).unwrap();
        let back: NetFaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // Missing fields fall back to defaults (old scenario files).
        let sparse: NetFaultSpec = serde_json::from_str(r#"{"loss":0.1}"#).unwrap();
        assert_eq!(sparse.loss, 0.1);
        assert_eq!(sparse.slowdown_factor(), 4.0);
        assert!(sparse.partitions.is_empty());
    }
}
