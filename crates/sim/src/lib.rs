#![warn(missing_docs)]
//! Discrete-event cluster simulator for `cloudlb`.
//!
//! This crate substitutes for the paper's physical testbed (8 nodes × 4-core
//! Intel Xeon X3430, Linux CFS scheduling, per-node power meters). It
//! provides:
//!
//! * a virtual clock and deterministic event queue ([`time`], [`event`]);
//! * a per-core **proportional-share scheduler** ([`core_sched`]) that
//!   time-shares each core between the application's processing element and
//!   co-located background (interfering) jobs — the mechanism by which a
//!   cloud VM suffers from its neighbours;
//! * `/proc/stat`-style per-core counters ([`procstat`]) from which the
//!   runtime derives the paper's background load `O_p` (Eq. 2);
//! * background-interference scripts ([`interference`]) covering the paper's
//!   steady 2-core job (Fig. 2/4), the single-core arrival (Fig. 1) and the
//!   phased arrive/depart pattern (Fig. 3);
//! * PE/node failure scripts ([`failure`]) — timed kill/restore actions for
//!   the fault-tolerance experiments (recovery itself lives in the runtime);
//! * elastic membership scripts ([`membership`]) — spot preemption notices
//!   with lead times, hard revocations and mid-run node acquisitions
//!   (the proactive-evacuation policy lives in the runtime);
//! * a network delay model ([`network`]) with a virtualization penalty, and
//!   a seeded network fault channel ([`netfault`]) layering loss,
//!   duplication, reordering, jitter, bandwidth collapse and transient
//!   partitions over it;
//! * the paper's power model ([`power`]): 40 W base / 170 W peak per node,
//!   dynamic power linear in utilization, exact event-driven energy
//!   integration;
//! * small deterministic RNG and statistics helpers ([`rng`], [`stats`]).

pub mod cluster;
pub mod core_sched;
pub mod event;
pub mod failure;
pub mod interference;
pub mod membership;
pub mod netfault;
pub mod network;
pub mod power;
pub mod procstat;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use cluster::{Cluster, ClusterConfig};
pub use core_sched::{BgJobId, CoreEvent, FgLabel};
pub use event::{EventHandle, EventQueue, Popped};
pub use failure::{FailureAction, FailureScript};
pub use interference::{BgAction, BgScript};
pub use membership::{
    AcquireSpec, MembershipAction, MembershipScript, MembershipSpec, NoticeSpec,
};
pub use netfault::{
    Delivery, FaultyNetwork, NetFaultSpec, NetStats, PartitionScope, PartitionWindow, SendOutcome,
};
pub use network::NetworkModel;
pub use power::PowerModel;
pub use procstat::ProcStat;
pub use rng::{stream_rng, stream_seed, SimRng, StreamLayer};
pub use telemetry::{TelemetryChannel, TelemetrySpec};
pub use time::{Dur, Time};
