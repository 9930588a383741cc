//! Message delay model.
//!
//! Clouds degrade HPC network performance both in latency and bandwidth
//! (the paper's §I cites virtualization's network overhead as a main
//! obstacle, and its future work wants migration gated on network cost).
//! The model here is the standard postal/LogP-style `latency + size/bw`
//! with a multiplicative *virtualization penalty* applied to cross-node
//! messages, since intra-node delivery bypasses the virtualized NIC.

use crate::time::{round_u64, Dur};
use serde::{Deserialize, Serialize};

/// Latency/bandwidth network model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way latency between cores of the same node (µs).
    pub intra_node_latency_us: u64,
    /// One-way latency between nodes, before the virtualization penalty (µs).
    pub inter_node_latency_us: u64,
    /// Cross-node bandwidth in bytes per microsecond (= MB/s).
    pub bandwidth_bytes_per_us: f64,
    /// Multiplier ≥ 1 on cross-node delay modelling the virtualized NIC.
    pub virtualization_penalty: f64,
}

impl Default for NetworkModel {
    /// Gigabit-Ethernet-era cluster (the paper's testbed vintage): ~50 µs
    /// node-to-node latency, ~110 MB/s, and a 2× virtualization penalty in
    /// line with the EC2 measurements the paper cites.
    fn default() -> Self {
        NetworkModel {
            intra_node_latency_us: 1,
            inter_node_latency_us: 50,
            bandwidth_bytes_per_us: 110.0,
            virtualization_penalty: 2.0,
        }
    }
}

impl NetworkModel {
    /// An idealized dedicated-cluster network (no virtualization penalty).
    pub fn dedicated() -> Self {
        NetworkModel { virtualization_penalty: 1.0, ..Default::default() }
    }

    /// Delay for a `bytes`-sized message; `same_node` selects the path.
    pub fn delay(&self, bytes: usize, same_node: bool) -> Dur {
        if same_node {
            Dur::from_us(self.intra_node_latency_us)
        } else {
            let wire = self.inter_node_latency_us as f64 + bytes as f64 / self.bandwidth_bytes_per_us;
            Dur::from_us(round_u64(wire * self.virtualization_penalty))
        }
    }

    /// Delay for migrating an object of `bytes` across nodes (bulk path —
    /// latency plus serialized transfer, virtualization penalty included).
    pub fn migration_delay(&self, bytes: usize, same_node: bool) -> Dur {
        if same_node {
            // In-process handoff: negligible but nonzero bookkeeping.
            Dur::from_us(self.intra_node_latency_us + bytes as u64 / 4096)
        } else {
            self.delay(bytes, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_node_is_cheap_and_flat() {
        let n = NetworkModel::default();
        assert_eq!(n.delay(10, true), n.delay(1_000_000, true));
        assert!(n.delay(0, true) < n.delay(0, false));
    }

    #[test]
    fn inter_node_scales_with_size() {
        let n = NetworkModel::default();
        let small = n.delay(1_000, false);
        let big = n.delay(1_000_000, false);
        assert!(big > small);
        // 1 MB at 110 B/µs with 2× penalty ≈ 18.3 ms.
        assert!((big.as_secs_f64() - 0.01827).abs() < 0.001, "{big}");
    }

    #[test]
    fn virtualization_penalty_multiplies() {
        let dedicated = NetworkModel::dedicated();
        let cloud = NetworkModel::default();
        let d = dedicated.delay(100_000, false).as_secs_f64();
        let c = cloud.delay(100_000, false).as_secs_f64();
        assert!((c / d - 2.0).abs() < 0.01);
    }

    #[test]
    fn migration_delay_accounts_for_bytes_even_intra_node() {
        let n = NetworkModel::default();
        assert!(n.migration_delay(1 << 20, true) > n.migration_delay(0, true));
        assert!(n.migration_delay(1 << 20, false) > n.migration_delay(1 << 20, true));
    }
}
