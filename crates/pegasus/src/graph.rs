//! The Pegasus dataflow graph.
//!
//! Nodes are operations; edges carry one of three classes of value
//! ([`VClass`]): *data* (integers/pointers), *predicates* (booleans,
//! drawn dotted in the paper) and *tokens* (zero-bit memory-dependence
//! synchronization, drawn dashed). Every edge knows whether it is a *back
//! edge* of a loop; the graph with back edges removed is a DAG, which is
//! what the optimizations' reachability tests run on.

use cfgir::objects::{ObjId, ObjectSet};
use cfgir::types::{BinOp, Type, UnOp};
use std::fmt;

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the graph's node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An output of a node: the node plus an output port number.
///
/// Most nodes have a single output (port 0); [`NodeKind::Load`] also produces
/// a token on port 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Src {
    pub node: NodeId,
    pub port: u16,
}

impl Src {
    /// Output port 0 of `node`.
    #[inline]
    pub fn of(node: NodeId) -> Src {
        Src { node, port: 0 }
    }

    /// The token output of a load (port 1).
    #[inline]
    pub fn token_of_load(node: NodeId) -> Src {
        Src { node, port: 1 }
    }
}

/// The class of value an edge carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VClass {
    /// An integer or pointer value.
    Data,
    /// A boolean predicate.
    Pred,
    /// A zero-bit synchronization token.
    Token,
}

/// An input slot of a node: where it comes from and whether the edge is a
/// loop back edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    pub src: Src,
    pub back: bool,
}

/// The operation a node performs.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A constant. Output: data (or predicate if `ty` is `Bool`).
    Const { value: i64, ty: Type },
    /// A function parameter. Output: data.
    Param { index: usize, ty: Type },
    /// The base address of a memory object. Output: data (pointer).
    Addr { obj: ObjId },
    /// Binary ALU operation. Inputs: `a`, `b`. Output normalized to `ty`.
    BinOp { op: BinOp, ty: Type },
    /// Unary ALU operation. Input: `a`.
    UnOp { op: UnOp, ty: Type },
    /// Width/signedness conversion: renormalizes its input to `ty`.
    /// Also converts between predicates and integers. Input: 0 = value.
    Cast { ty: Type },
    /// Decoded multiplexor with `n` ways. Inputs alternate
    /// `pred0, val0, pred1, val1, …`; the value whose predicate is true is
    /// forwarded. Output type `ty`.
    Mux { ty: Type },
    /// Control-flow join between hyperblocks: forwards whichever input
    /// arrives. Inputs: one per incoming edge. Class `vc`.
    Merge { vc: VClass, ty: Type },
    /// Gated steer out of a hyperblock: forwards the value when the
    /// predicate is true, consumes silently when false.
    /// Inputs: 0 = value, 1 = predicate.
    Eta { vc: VClass, ty: Type },
    /// Token join ("V" in the paper): output fires after all inputs arrive.
    Combine,
    /// Memory load. Inputs: 0 = address, 1 = predicate, 2 = token.
    /// Outputs: 0 = value, 1 = token.
    Load { ty: Type, may: ObjectSet },
    /// Memory store. Inputs: 0 = address, 1 = value, 2 = predicate,
    /// 3 = token. Output: 0 = token.
    Store { ty: Type, may: ObjectSet },
    /// Token generator `tk(n)` (§6.3). Inputs: 0 = predicate, 1 = token.
    /// Output: 0 = token. Emits up to `n` tokens ahead of its input.
    TokenGen { n: u32 },
    /// Procedure return. Inputs: 0 = predicate, 1 = token, 2 = value
    /// (only when `has_value`).
    Return { has_value: bool, ty: Type },
    /// The initial token ("*" in Figure 1): available once at start.
    InitialToken,
    /// A deleted node; all slots empty. Never produced by construction,
    /// only by [`Graph::remove_node`].
    Removed,
}

impl NodeKind {
    /// Number of output ports.
    #[inline]
    pub fn num_outputs(&self) -> u16 {
        match self {
            NodeKind::Load { .. } => 2,
            NodeKind::Return { .. } | NodeKind::Removed => 0,
            _ => 1,
        }
    }

    /// The class of the given output port.
    #[inline]
    pub fn output_class(&self, port: u16) -> VClass {
        match self {
            NodeKind::BinOp { op, ty } => {
                // Comparisons carry their *operand* type (for signedness)
                // but always produce a predicate.
                if op.is_comparison() || *ty == Type::Bool {
                    VClass::Pred
                } else {
                    VClass::Data
                }
            }
            NodeKind::Const { ty, .. } | NodeKind::UnOp { ty, .. } | NodeKind::Cast { ty } => {
                if *ty == Type::Bool {
                    VClass::Pred
                } else {
                    VClass::Data
                }
            }
            NodeKind::Param { .. } | NodeKind::Addr { .. } => VClass::Data,
            NodeKind::Mux { ty } => {
                if *ty == Type::Bool {
                    VClass::Pred
                } else {
                    VClass::Data
                }
            }
            NodeKind::Merge { vc, .. } | NodeKind::Eta { vc, .. } => *vc,
            NodeKind::Combine | NodeKind::TokenGen { .. } | NodeKind::InitialToken => VClass::Token,
            NodeKind::Load { .. } => {
                if port == 0 {
                    VClass::Data
                } else {
                    VClass::Token
                }
            }
            NodeKind::Store { .. } => VClass::Token,
            NodeKind::Return { .. } | NodeKind::Removed => VClass::Token, // no outputs
        }
    }

    /// The class each input port must carry, given the node's input count.
    #[inline]
    pub fn input_class(&self, port: u16) -> VClass {
        match self {
            NodeKind::BinOp { op, ty } => {
                // Logical combinators consume predicates; comparisons
                // consume data; bitwise ops over Bool are predicate
                // combinators, everything else consumes data.
                if matches!(op, BinOp::LAnd | BinOp::LOr) {
                    VClass::Pred
                } else if op.is_comparison() {
                    VClass::Data
                } else if *ty == Type::Bool {
                    VClass::Pred
                } else {
                    VClass::Data
                }
            }
            NodeKind::UnOp { op, ty } => {
                if *ty == Type::Bool && *op == UnOp::Not {
                    VClass::Pred
                } else {
                    VClass::Data
                }
            }
            // Cast accepts either scalar class; the verifier special-cases it.
            NodeKind::Cast { .. } => VClass::Data,
            NodeKind::Mux { ty } => {
                if port.is_multiple_of(2) || *ty == Type::Bool {
                    VClass::Pred
                } else {
                    VClass::Data
                }
            }
            NodeKind::Merge { vc, .. } => *vc,
            NodeKind::Eta { vc, .. } => {
                if port == 0 {
                    *vc
                } else {
                    VClass::Pred
                }
            }
            NodeKind::Combine => VClass::Token,
            NodeKind::Load { .. } => match port {
                0 => VClass::Data,
                1 => VClass::Pred,
                _ => VClass::Token,
            },
            NodeKind::Store { .. } => match port {
                0 | 1 => VClass::Data,
                2 => VClass::Pred,
                _ => VClass::Token,
            },
            NodeKind::TokenGen { .. } => {
                if port == 0 {
                    VClass::Pred
                } else {
                    VClass::Token
                }
            }
            NodeKind::Return { .. } => match port {
                0 => VClass::Pred,
                1 => VClass::Token,
                _ => VClass::Data,
            },
            NodeKind::Const { .. }
            | NodeKind::Param { .. }
            | NodeKind::Addr { .. }
            | NodeKind::InitialToken
            | NodeKind::Removed => VClass::Data, // no inputs in practice
        }
    }

    /// Is this a memory side-effect operation (load or store)?
    #[inline]
    pub fn is_memory(&self) -> bool {
        matches!(self, NodeKind::Load { .. } | NodeKind::Store { .. })
    }

    /// The may-access set of a memory operation.
    #[inline]
    pub fn may_set(&self) -> Option<&ObjectSet> {
        match self {
            NodeKind::Load { may, .. } | NodeKind::Store { may, .. } => Some(may),
            _ => None,
        }
    }
}

/// A node: its kind plus its input slots.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    /// Input slots; `None` means not-yet-connected (invalid in a finished
    /// graph, checked by the verifier).
    pub inputs: Vec<Option<Input>>,
    /// The hyperblock the node belongs to (dense index; `u32::MAX` if the
    /// node is global, like the initial token).
    pub hb: u32,
}

/// A use record: consumer node, consumer input port, producer output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Use {
    pub src_port: u16,
    pub dst: NodeId,
    pub dst_port: u16,
}

/// The Pegasus graph of one procedure.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    uses: Vec<Vec<Use>>,
    /// Number of hyperblocks (dense `hb` indices).
    pub num_hbs: u32,
    /// For each hyperblock: is it a loop body?
    pub hb_is_loop: Vec<bool>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node with `nin` unconnected inputs in hyperblock `hb`.
    pub fn add_node(&mut self, kind: NodeKind, nin: usize, hb: u32) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, inputs: vec![None; nin], hb });
        self.uses.push(Vec::new());
        id
    }

    /// Number of node slots (including removed ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the graph empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of live (non-removed) nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| !matches!(n.kind, NodeKind::Removed)).count()
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// Mutable access to a node's kind (for in-place rewrites such as
    /// predicate updates on memory operations).
    #[inline]
    pub fn kind_mut(&mut self, id: NodeId) -> &mut NodeKind {
        &mut self.nodes[id.index()].kind
    }

    /// The hyperblock a node belongs to.
    #[inline]
    pub fn hb(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].hb
    }

    /// All node ids, including removed slots.
    #[inline]
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All live node ids.
    #[inline]
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids().filter(|&id| !matches!(self.kind(id), NodeKind::Removed))
    }

    /// Connects `src` to input `dst_port` of `dst` (forward edge).
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn connect(&mut self, src: Src, dst: NodeId, dst_port: u16) {
        self.connect_impl(src, dst, dst_port, false);
    }

    /// Connects a loop *back edge* (target is a merge).
    pub fn connect_back(&mut self, src: Src, dst: NodeId, dst_port: u16) {
        self.connect_impl(src, dst, dst_port, true);
    }

    fn connect_impl(&mut self, src: Src, dst: NodeId, dst_port: u16, back: bool) {
        let slot = &mut self.nodes[dst.index()].inputs[dst_port as usize];
        assert!(slot.is_none(), "input {dst}:{dst_port} already connected");
        *slot = Some(Input { src, back });
        self.uses[src.node.index()].push(Use { src_port: src.port, dst, dst_port });
    }

    /// Disconnects input `dst_port` of `dst`, returning what was there.
    pub fn disconnect(&mut self, dst: NodeId, dst_port: u16) -> Option<Input> {
        let slot = self.nodes[dst.index()].inputs[dst_port as usize].take();
        if let Some(inp) = slot {
            let u = &mut self.uses[inp.src.node.index()];
            if let Some(pos) = u
                .iter()
                .position(|x| x.src_port == inp.src.port && x.dst == dst && x.dst_port == dst_port)
            {
                u.swap_remove(pos);
            }
        }
        slot
    }

    /// Replaces the producer feeding input `dst_port` of `dst`, keeping the
    /// back-edge flag unless overridden.
    pub fn replace_input(&mut self, dst: NodeId, dst_port: u16, new_src: Src) {
        let back =
            self.nodes[dst.index()].inputs[dst_port as usize].map(|i| i.back).unwrap_or(false);
        self.disconnect(dst, dst_port);
        self.connect_impl(new_src, dst, dst_port, back);
    }

    /// Redirects *every* consumer of `from` (a specific output port) to
    /// `to`. Back-edge flags are preserved.
    pub fn replace_all_uses(&mut self, from: Src, to: Src) {
        let consumers: Vec<Use> = self.uses[from.node.index()]
            .iter()
            .filter(|u| u.src_port == from.port)
            .copied()
            .collect();
        for u in consumers {
            self.replace_input(u.dst, u.dst_port, to);
        }
    }

    /// The producer feeding input `port` of `id`.
    #[inline]
    pub fn input(&self, id: NodeId, port: u16) -> Option<Input> {
        self.nodes[id.index()].inputs[port as usize]
    }

    /// Number of input slots of `id`.
    #[inline]
    pub fn num_inputs(&self, id: NodeId) -> usize {
        self.nodes[id.index()].inputs.len()
    }

    /// The consumers of `id`'s outputs.
    #[inline]
    pub fn uses(&self, id: NodeId) -> &[Use] {
        &self.uses[id.index()]
    }

    /// Damages `id`'s use records without touching the input table, so the
    /// verifier's def-use consistency check has something to find.
    #[cfg(test)]
    pub(crate) fn corrupt_use_records_for_tests(&mut self, id: NodeId) {
        for u in &mut self.uses[id.index()] {
            u.dst_port += 1;
        }
    }

    /// Does output `port` of `id` have any consumer?
    #[inline]
    pub fn has_uses(&self, id: NodeId, port: u16) -> bool {
        self.uses[id.index()].iter().any(|u| u.src_port == port)
    }

    /// Appends a fresh input slot to a variadic node (merge/combine/mux)
    /// and returns its port number.
    pub fn add_input_slot(&mut self, id: NodeId) -> u16 {
        let n = self.nodes[id.index()].inputs.len();
        self.nodes[id.index()].inputs.push(None);
        n as u16
    }

    /// Removes a node: disconnects all its inputs and marks it removed.
    ///
    /// # Panics
    ///
    /// Panics if any consumer still reads one of its outputs.
    pub fn remove_node(&mut self, id: NodeId) {
        assert!(self.uses[id.index()].is_empty(), "removing {id} while it still has uses");
        for p in 0..self.nodes[id.index()].inputs.len() {
            self.disconnect(id, p as u16);
        }
        self.nodes[id.index()].kind = NodeKind::Removed;
        self.nodes[id.index()].inputs.clear();
    }

    /// Drops *dangling* input slots of a variadic node (merge/combine) that
    /// are unconnected, compacting the slot list and renumbering the
    /// producers' use records to the new port numbers.
    pub fn compact_inputs(&mut self, id: NodeId) {
        let old: Vec<Option<Input>> = std::mem::take(&mut self.nodes[id.index()].inputs);
        let mut new_port = 0u16;
        let mut kept = Vec::with_capacity(old.len());
        for (old_port, slot) in old.into_iter().enumerate() {
            if let Some(inp) = slot {
                // Renumber the producer's use record.
                for u in &mut self.uses[inp.src.node.index()] {
                    if u.dst == id && u.dst_port == old_port as u16 {
                        u.dst_port = new_port;
                    }
                }
                kept.push(Some(inp));
                new_port += 1;
            }
        }
        self.nodes[id.index()].inputs = kept;
    }

    /// Convenience: a boolean constant node.
    pub fn const_bool(&mut self, value: bool, hb: u32) -> NodeId {
        self.add_node(NodeKind::Const { value: i64::from(value), ty: Type::Bool }, 0, hb)
    }

    /// Convenience: predicate conjunction node `a & b`.
    pub fn pred_and(&mut self, a: Src, b: Src, hb: u32) -> NodeId {
        let n = self.add_node(NodeKind::BinOp { op: BinOp::And, ty: Type::Bool }, 2, hb);
        self.connect(a, n, 0);
        self.connect(b, n, 1);
        n
    }

    /// Convenience: predicate disjunction node `a | b`.
    pub fn pred_or(&mut self, a: Src, b: Src, hb: u32) -> NodeId {
        let n = self.add_node(NodeKind::BinOp { op: BinOp::Or, ty: Type::Bool }, 2, hb);
        self.connect(a, n, 0);
        self.connect(b, n, 1);
        n
    }

    /// Convenience: predicate negation node `!a`.
    pub fn pred_not(&mut self, a: Src, hb: u32) -> NodeId {
        let n = self.add_node(NodeKind::UnOp { op: UnOp::Not, ty: Type::Bool }, 1, hb);
        self.connect(a, n, 0);
        n
    }

    /// Counts live memory operations: `(loads, stores)`.
    pub fn count_memory_ops(&self) -> (usize, usize) {
        let mut loads = 0;
        let mut stores = 0;
        for n in &self.nodes {
            match n.kind {
                NodeKind::Load { .. } => loads += 1,
                NodeKind::Store { .. } => stores += 1,
                _ => {}
            }
        }
        (loads, stores)
    }

    /// Counts connected edges of live nodes.
    pub fn count_edges(&self) -> usize {
        self.live_ids()
            .map(|id| self.nodes[id.index()].inputs.iter().filter(|i| i.is_some()).count())
            .sum()
    }

    /// Counts connected edges whose producer output carries a token
    /// (the memory-dependence edges the optimizer dissolves).
    pub fn count_token_edges(&self) -> usize {
        self.live_ids()
            .map(|id| {
                self.nodes[id.index()]
                    .inputs
                    .iter()
                    .flatten()
                    .filter(|i| self.kind(i.src.node).output_class(i.src.port) == VClass::Token)
                    .count()
            })
            .sum()
    }

    /// Counts live token-generator nodes.
    pub fn count_token_gens(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.kind, NodeKind::TokenGen { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_uses() {
        let mut g = Graph::new();
        let c = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let c2 = g.add_node(NodeKind::Const { value: 2, ty: Type::int(32) }, 0, 0);
        let add = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(32) }, 2, 0);
        g.connect(Src::of(c), add, 0);
        g.connect(Src::of(c2), add, 1);
        assert_eq!(g.uses(c).len(), 1);
        assert_eq!(g.input(add, 0).unwrap().src, Src::of(c));
        assert!(g.has_uses(c, 0));
        assert!(!g.has_uses(add, 0));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut g = Graph::new();
        let c = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let u = g.add_node(NodeKind::UnOp { op: UnOp::Neg, ty: Type::int(32) }, 1, 0);
        g.connect(Src::of(c), u, 0);
        g.connect(Src::of(c), u, 0);
    }

    #[test]
    fn replace_all_uses_moves_consumers() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let b = g.add_node(NodeKind::Const { value: 2, ty: Type::int(32) }, 0, 0);
        let n1 = g.add_node(NodeKind::UnOp { op: UnOp::Neg, ty: Type::int(32) }, 1, 0);
        let n2 = g.add_node(NodeKind::UnOp { op: UnOp::BitNot, ty: Type::int(32) }, 1, 0);
        g.connect(Src::of(a), n1, 0);
        g.connect(Src::of(a), n2, 0);
        g.replace_all_uses(Src::of(a), Src::of(b));
        assert_eq!(g.uses(a).len(), 0);
        assert_eq!(g.uses(b).len(), 2);
        assert_eq!(g.input(n1, 0).unwrap().src, Src::of(b));
    }

    #[test]
    fn remove_node_clears_slots() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let n = g.add_node(NodeKind::UnOp { op: UnOp::Neg, ty: Type::int(32) }, 1, 0);
        g.connect(Src::of(a), n, 0);
        g.remove_node(n);
        assert!(matches!(g.kind(n), NodeKind::Removed));
        assert_eq!(g.uses(a).len(), 0);
        assert_eq!(g.live_count(), 1);
    }

    #[test]
    #[should_panic(expected = "still has uses")]
    fn remove_node_with_uses_panics() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let n = g.add_node(NodeKind::UnOp { op: UnOp::Neg, ty: Type::int(32) }, 1, 0);
        g.connect(Src::of(a), n, 0);
        g.remove_node(a);
    }

    #[test]
    fn back_edges_preserved_by_replace_input() {
        let mut g = Graph::new();
        let m = g.add_node(NodeKind::Merge { vc: VClass::Token, ty: Type::Bool }, 2, 0);
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let e = g.add_node(NodeKind::Eta { vc: VClass::Token, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(t), m, 0);
        g.connect_back(Src::of(e), m, 1);
        assert!(g.input(m, 1).unwrap().back);
        let t2 = g.add_node(NodeKind::InitialToken, 0, 0);
        g.replace_input(m, 1, Src::of(t2));
        assert!(g.input(m, 1).unwrap().back, "back flag must survive");
    }

    #[test]
    fn load_has_two_outputs() {
        let k = NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top };
        assert_eq!(k.num_outputs(), 2);
        assert_eq!(k.output_class(0), VClass::Data);
        assert_eq!(k.output_class(1), VClass::Token);
        assert_eq!(k.input_class(0), VClass::Data);
        assert_eq!(k.input_class(1), VClass::Pred);
        assert_eq!(k.input_class(2), VClass::Token);
        assert!(k.is_memory());
    }

    #[test]
    fn memory_op_counts() {
        let mut g = Graph::new();
        g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        g.add_node(NodeKind::Store { ty: Type::int(32), may: ObjectSet::Top }, 4, 0);
        g.add_node(NodeKind::TokenGen { n: 3 }, 2, 0);
        assert_eq!(g.count_memory_ops(), (1, 1));
        assert_eq!(g.count_token_gens(), 1);
    }

    #[test]
    fn compact_inputs_drops_dangling_slots() {
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let c = g.add_node(NodeKind::Combine, 3, 0);
        g.connect(Src::of(t), c, 1);
        g.compact_inputs(c);
        assert_eq!(g.num_inputs(c), 1);
        assert_eq!(g.input(c, 0).unwrap().src, Src::of(t));
    }
}
