//! Per-node circuit profiles.
//!
//! When [`SimConfig::profile`](crate::SimConfig) is set, the executor
//! records, for every node, how often it fired, when, and how long it sat
//! stalled — split by *what* it was waiting for: a data input, a predicate
//! input, a token input, a free LSQ port, or space in a consumer channel.
//! This is the per-node counterpart of the paper's Figure 18/19 aggregates:
//! it shows *which* operations serialize a circuit, not just how many
//! cycles the whole run took.

use pegasus::{NodeHeat, NodeId, NodeKind};

/// What a stalled node was waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// A data operand had not arrived.
    DataInput,
    /// A predicate operand had not arrived.
    PredInput,
    /// A memory-dependence token had not arrived.
    TokenInput,
    /// The request sat in the LSQ queue waiting for a port.
    LsqPort,
    /// All inputs ready, but a consumer channel was full.
    OutputSpace,
}

/// One node's dynamic behavior over a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeProfile {
    /// How many times the node fired.
    pub fires: u64,
    /// Cycles spent with a data operand missing while another input waited.
    pub stalled_data: u64,
    /// Cycles spent with a predicate operand missing.
    pub stalled_pred: u64,
    /// Cycles spent with a token input missing.
    pub stalled_token: u64,
    /// Cycles the node's memory request queued for an LSQ port.
    pub stalled_lsq: u64,
    /// Cycles spent ready but blocked on consumer channel space.
    pub stalled_output: u64,
    /// Cycle of the first firing (`None` if it never fired).
    pub first_fire: Option<u64>,
    /// Cycle of the last firing (`None` if it never fired).
    pub last_fire: Option<u64>,
}

impl NodeProfile {
    /// Total stalled cycles across all causes.
    pub fn stalled_total(&self) -> u64 {
        self.stalled_data
            + self.stalled_pred
            + self.stalled_token
            + self.stalled_lsq
            + self.stalled_output
    }

    pub(crate) fn add_stall(&mut self, cause: StallCause, cycles: u64) {
        match cause {
            StallCause::DataInput => self.stalled_data += cycles,
            StallCause::PredInput => self.stalled_pred += cycles,
            StallCause::TokenInput => self.stalled_token += cycles,
            StallCause::LsqPort => self.stalled_lsq += cycles,
            StallCause::OutputSpace => self.stalled_output += cycles,
        }
    }
}

/// The full per-node profile of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Indexed by `NodeId::index()`; removed slots stay at default.
    pub nodes: Vec<NodeProfile>,
    /// Total simulated cycles (denominator for stall fractions).
    pub cycles: u64,
}

impl SimProfile {
    /// The profile of one node.
    pub fn node(&self, id: NodeId) -> &NodeProfile {
        &self.nodes[id.index()]
    }

    /// Sum of all firing counts (equals `SimResult::fired`).
    pub fn total_fires(&self) -> u64 {
        self.nodes.iter().map(|n| n.fires).sum()
    }

    /// The `k` most-fired nodes, hottest first (ties by node id, so the
    /// ordering is deterministic).
    pub fn hottest(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.fires > 0)
            .map(|(i, n)| (NodeId(i as u32), n.fires))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The `k` most-stalled nodes (total stalled cycles), worst first.
    pub fn most_stalled(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.stalled_total() > 0)
            .map(|(i, n)| (NodeId(i as u32), n.stalled_total()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Converts to the [`pegasus::to_dot_heat`] overlay input: firing
    /// counts plus stall fraction of the whole run.
    pub fn node_heat(&self) -> Vec<NodeHeat> {
        let denom = self.cycles.max(1) as f64;
        self.nodes
            .iter()
            .map(|n| NodeHeat {
                fires: n.fires,
                stall_frac: (n.stalled_total() as f64 / denom).min(1.0),
            })
            .collect()
    }
}

/// A short, JSON-safe operation label shared by the profile and the trace.
pub fn kind_label(kind: &NodeKind) -> String {
    match kind {
        NodeKind::Const { value, .. } => format!("const {value}"),
        NodeKind::Param { index, .. } => format!("arg{index}"),
        NodeKind::Addr { obj } => format!("addr {obj}"),
        NodeKind::BinOp { op, .. } => format!("{op}"),
        NodeKind::UnOp { op, .. } => format!("{op}"),
        NodeKind::Cast { ty } => format!("cast {ty}"),
        NodeKind::Mux { .. } => "mux".into(),
        NodeKind::Merge { .. } => "merge".into(),
        NodeKind::Eta { .. } => "eta".into(),
        NodeKind::Combine => "combine".into(),
        NodeKind::Load { .. } => "load".into(),
        NodeKind::Store { .. } => "store".into(),
        NodeKind::TokenGen { n } => format!("tk({n})"),
        NodeKind::Return { .. } => "ret".into(),
        NodeKind::InitialToken => "token*".into(),
        NodeKind::Removed => "removed".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_accounting_routes_by_cause() {
        let mut p = NodeProfile::default();
        p.add_stall(StallCause::DataInput, 3);
        p.add_stall(StallCause::TokenInput, 5);
        p.add_stall(StallCause::LsqPort, 7);
        p.add_stall(StallCause::OutputSpace, 1);
        p.add_stall(StallCause::PredInput, 2);
        assert_eq!(p.stalled_data, 3);
        assert_eq!(p.stalled_token, 5);
        assert_eq!(p.stalled_lsq, 7);
        assert_eq!(p.stalled_output, 1);
        assert_eq!(p.stalled_pred, 2);
        assert_eq!(p.stalled_total(), 18);
    }

    #[test]
    fn hottest_is_deterministic_and_sorted() {
        let mut prof = SimProfile { nodes: vec![NodeProfile::default(); 4], cycles: 10 };
        prof.nodes[1].fires = 5;
        prof.nodes[2].fires = 9;
        prof.nodes[3].fires = 5;
        let hot = prof.hottest(3);
        assert_eq!(
            hot,
            vec![(NodeId(2), 9), (NodeId(1), 5), (NodeId(3), 5)],
            "ties break by node id"
        );
        assert_eq!(prof.total_fires(), 19);
    }

    #[test]
    fn heat_normalizes_stalls_by_cycles() {
        let mut prof = SimProfile { nodes: vec![NodeProfile::default(); 2], cycles: 100 };
        prof.nodes[0].fires = 4;
        prof.nodes[0].stalled_token = 50;
        let heat = prof.node_heat();
        assert_eq!(heat[0].fires, 4);
        assert!((heat[0].stall_frac - 0.5).abs() < 1e-9);
        assert_eq!(heat[1].fires, 0);
    }
}
