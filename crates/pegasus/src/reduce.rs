//! DAG reachability and transitive reduction of the token graph (§3.4).
//!
//! The compiler keeps the token graph transitively reduced throughout the
//! optimization phases: a token edge between two memory operations then
//! means "may touch the same location, with no intervening access" — which
//! is exactly the precondition of the §5 rewrite rules.

use crate::graph::{Graph, NodeId, NodeKind, Src};

/// A reachability cache over the graph's forward edges (back edges
/// ignored), as used by the paper's cycle-free checks ("a reachability
/// computation in the Pegasus DAG which ignores the back-edges").
#[derive(Debug)]
pub struct Reachability {
    /// Bitset per node: `bits[a]` has bit `b` set iff `a` reaches `b`
    /// (reflexively).
    bits: Vec<Vec<u64>>,
    words: usize,
}

impl Reachability {
    /// Computes the full reachability relation of `g` (forward edges only).
    pub fn compute(g: &Graph) -> Self {
        let n = g.len();
        let words = n.div_ceil(64);
        let mut bits = vec![vec![0u64; words]; n];
        // Process in reverse topological order: a node's set is the union
        // of its forward consumers' sets. Topological order via DFS.
        let order = topo_order(g);
        for &id in order.iter().rev() {
            let i = id.index();
            bits[i][i / 64] |= 1u64 << (i % 64);
            let consumers: Vec<usize> = g
                .uses(id)
                .iter()
                .filter(|u| !g.input(u.dst, u.dst_port).map(|x| x.back).unwrap_or(false))
                .map(|u| u.dst.index())
                .collect();
            for c in consumers {
                // Union bits[c] into bits[i].
                let (left, right) = if c < i {
                    let (a, b) = bits.split_at_mut(i);
                    (&mut b[0], &a[c])
                } else {
                    let (a, b) = bits.split_at_mut(c);
                    (&mut a[i], &b[0])
                };
                for w in 0..left.len() {
                    left[w] |= right[w];
                }
            }
        }
        Reachability { bits, words }
    }

    /// Does `a` reach `b` through forward edges (reflexive)?
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        let bi = b.index();
        self.bits[a.index()][bi / 64] & (1u64 << (bi % 64)) != 0
    }

    /// Number of bitset words per node (diagnostics).
    pub fn words(&self) -> usize {
        self.words
    }
}

/// Topological order of the forward-edge DAG (producers before consumers).
pub fn topo_order(g: &Graph) -> Vec<NodeId> {
    let n = g.len();
    let mut state = vec![0u8; n];
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    for start in g.live_ids() {
        if state[start.index()] != 0 {
            continue;
        }
        stack.push((start, 0));
        state[start.index()] = 1;
        while let Some(frame) = stack.last_mut() {
            let (id, next) = (frame.0, &mut frame.1);
            let uses = g.uses(id);
            let mut descended = false;
            while *next < uses.len() {
                let u = uses[*next];
                *next += 1;
                if g.input(u.dst, u.dst_port).map(|x| x.back).unwrap_or(false) {
                    continue;
                }
                if state[u.dst.index()] == 0 {
                    state[u.dst.index()] = 1;
                    stack.push((u.dst, 0));
                    descended = true;
                    break;
                }
            }
            if !descended {
                state[id.index()] = 2;
                order.push(id);
                stack.pop();
            }
        }
    }
    order.reverse();
    order
}

/// The *token ancestry* of a memory operation: the set of memory operations
/// (and boundary nodes — merges, etas, token generators, the initial token)
/// directly feeding its token input, looking through combines.
pub fn direct_token_deps(g: &Graph, node: NodeId) -> Vec<Src> {
    let port = match g.kind(node) {
        NodeKind::Load { .. } => 2,
        NodeKind::Store { .. } => 3,
        _ => return Vec::new(),
    };
    let Some(inp) = g.input(node, port) else { return Vec::new() };
    let mut out = Vec::new();
    expand_token_src(g, inp.src, &mut out);
    out
}

/// Expands a token source through combine fan-in to its producing
/// operations/boundaries.
pub fn expand_token_src(g: &Graph, src: Src, out: &mut Vec<Src>) {
    if let NodeKind::Combine = g.kind(src.node) {
        for p in 0..g.num_inputs(src.node) {
            if let Some(i) = g.input(src.node, p as u16) {
                expand_token_src(g, i.src, out);
            }
        }
    } else {
        out.push(src);
    }
}

/// Token-graph reachability: does a token path (through memory ops and
/// combines only, forward edges) lead from `from` to `to`?
fn token_reaches(g: &Graph, from: Src, to: NodeId, fuel: &mut usize) -> bool {
    if *fuel == 0 {
        return true; // conservative on blowup
    }
    *fuel -= 1;
    for u in g.uses(from.node) {
        if u.src_port != from.port {
            continue;
        }
        if g.input(u.dst, u.dst_port).map(|x| x.back).unwrap_or(false) {
            continue;
        }
        let dst = u.dst;
        if dst == to {
            return true;
        }
        let next_out: Option<Src> = match g.kind(dst) {
            NodeKind::Combine => Some(Src::of(dst)),
            NodeKind::Load { .. } if u.dst_port == 2 => Some(Src::token_of_load(dst)),
            NodeKind::Store { .. } if u.dst_port == 3 => Some(Src::of(dst)),
            _ => None,
        };
        if let Some(s) = next_out {
            if token_reaches(g, s, to, fuel) {
                return true;
            }
        }
    }
    false
}

/// Does a token path (through memory operations and combines only, forward
/// edges) lead from `from` to `to`? This is the exact reachability notion
/// the transitive reduction uses, exposed so read-only analyses can mirror
/// it. Conservatively answers `true` if the traversal budget blows up.
pub fn token_path(g: &Graph, from: Src, to: NodeId) -> bool {
    let mut fuel = 10_000;
    token_reaches(g, from, to, &mut fuel)
}

/// Re-establishes transitive reduction of the token graph: for every memory
/// operation, drops direct token dependences that are implied by another
/// direct dependence, rebuilding the op's token input. Returns how many
/// edges were removed.
pub fn transitive_reduce_tokens(g: &mut Graph) -> usize {
    let mem_ops: Vec<NodeId> = g.live_ids().filter(|&id| g.kind(id).is_memory()).collect();
    let mut removed = 0;
    for &op in &mem_ops {
        let deps = direct_token_deps(g, op);
        if deps.len() < 2 {
            continue;
        }
        // Keep dep d only if no other kept/candidate dep e has d in its
        // ancestry, i.e. no token path d -> e exists (then d -> e -> op
        // covers d -> op).
        let mut keep: Vec<Src> = Vec::new();
        for (i, &d) in deps.iter().enumerate() {
            let mut implied = false;
            for (j, &e) in deps.iter().enumerate() {
                if i == j || d == e {
                    continue;
                }
                let mut fuel = 10_000;
                if token_reaches(g, d, e.node, &mut fuel) {
                    implied = true;
                    break;
                }
            }
            if implied {
                removed += 1;
            } else if !keep.contains(&d) {
                keep.push(d);
            }
        }
        if keep.len() == deps.len() {
            continue;
        }
        set_token_input(g, op, keep);
    }
    prune_dead(g);
    removed
}

/// Replaces the token input of memory op `op` with the combine of `deps`.
pub fn set_token_input(g: &mut Graph, op: NodeId, deps: Vec<Src>) {
    assert!(!deps.is_empty(), "memory op must keep at least one token dep");
    let port = match g.kind(op) {
        NodeKind::Load { .. } => 2,
        NodeKind::Store { .. } => 3,
        other => panic!("set_token_input on non-memory node {other:?}"),
    };
    let hb = g.hb(op);
    let src = if deps.len() == 1 {
        deps[0]
    } else {
        let c = g.add_node(NodeKind::Combine, deps.len(), hb);
        for (i, d) in deps.into_iter().enumerate() {
            g.connect(d, c, i as u16);
        }
        Src::of(c)
    };
    g.disconnect(op, port);
    g.connect(src, op, port);
}

/// Removes nodes whose outputs are entirely unused and which have no
/// side effects (everything except stores and returns), iterating to a
/// fixpoint. Also compacts combines/merges that lost inputs.
pub fn prune_dead(g: &mut Graph) -> usize {
    let mut removed = 0;
    loop {
        let dead: Vec<NodeId> = g
            .live_ids()
            .filter(|&id| {
                g.uses(id).is_empty()
                    && !matches!(g.kind(id), NodeKind::Store { .. } | NodeKind::Return { .. })
            })
            .collect();
        if dead.is_empty() {
            return removed;
        }
        for id in dead {
            g.remove_node(id);
            removed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, NodeKind, VClass};
    use cfgir::objects::ObjectSet;
    use cfgir::types::Type;

    fn mk_store(g: &mut Graph, addr: Src, val: Src, pred: Src, tok: Src) -> NodeId {
        let s = g.add_node(NodeKind::Store { ty: Type::int(32), may: ObjectSet::Top }, 4, 0);
        g.connect(addr, s, 0);
        g.connect(val, s, 1);
        g.connect(pred, s, 2);
        g.connect(tok, s, 3);
        s
    }

    #[test]
    fn reachability_basic() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let b = g.add_node(NodeKind::Cast { ty: Type::int(64) }, 1, 0);
        let c = g.add_node(NodeKind::Cast { ty: Type::int(16) }, 1, 0);
        let d = g.add_node(NodeKind::Const { value: 2, ty: Type::int(32) }, 0, 0);
        g.connect(Src::of(a), b, 0);
        g.connect(Src::of(b), c, 0);
        let r = Reachability::compute(&g);
        assert!(r.reaches(a, c));
        assert!(r.reaches(a, a));
        assert!(!r.reaches(c, a));
        assert!(!r.reaches(a, d));
    }

    #[test]
    fn reachability_ignores_back_edges() {
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let p = g.const_bool(true, 0);
        let m = g.add_node(NodeKind::Merge { vc: VClass::Token, ty: Type::Bool }, 2, 0);
        let e = g.add_node(NodeKind::Eta { vc: VClass::Token, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(t), m, 0);
        g.connect(Src::of(m), e, 0);
        g.connect(Src::of(p), e, 1);
        g.connect_back(Src::of(e), m, 1);
        let r = Reachability::compute(&g);
        assert!(r.reaches(m, e));
        assert!(!r.reaches(e, m), "back edge must not count");
    }

    #[test]
    fn transitive_reduction_removes_implied_edge() {
        // s1 -> s2 -> s3 plus a redundant direct edge s1 -> s3 (via a
        // combine with s2's token).
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let p = g.const_bool(true, 0);
        let a = g.add_node(NodeKind::Const { value: 64, ty: Type::int(64) }, 0, 0);
        let v = g.add_node(NodeKind::Const { value: 7, ty: Type::int(32) }, 0, 0);
        let s1 = mk_store(&mut g, Src::of(a), Src::of(v), Src::of(p), Src::of(t));
        let s2 = mk_store(&mut g, Src::of(a), Src::of(v), Src::of(p), Src::of(s1));
        let comb = g.add_node(NodeKind::Combine, 2, 0);
        g.connect(Src::of(s1), comb, 0);
        g.connect(Src::of(s2), comb, 1);
        let s3 = mk_store(&mut g, Src::of(a), Src::of(v), Src::of(p), Src::of(comb));
        let removed = transitive_reduce_tokens(&mut g);
        assert_eq!(removed, 1);
        // s3's token now comes straight from s2.
        let deps = direct_token_deps(&g, s3);
        assert_eq!(deps, vec![Src::of(s2)]);
        // The combine is gone.
        assert!(matches!(g.kind(comb), NodeKind::Removed));
        let _ = s1;
    }

    #[test]
    fn already_reduced_graph_unchanged() {
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let p = g.const_bool(true, 0);
        let a = g.add_node(NodeKind::Const { value: 64, ty: Type::int(64) }, 0, 0);
        let v = g.add_node(NodeKind::Const { value: 7, ty: Type::int(32) }, 0, 0);
        let s1 = mk_store(&mut g, Src::of(a), Src::of(v), Src::of(p), Src::of(t));
        let _s2 = mk_store(&mut g, Src::of(a), Src::of(v), Src::of(p), Src::of(s1));
        assert_eq!(transitive_reduce_tokens(&mut g), 0);
    }

    #[test]
    fn prune_dead_removes_chains() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Const { value: 1, ty: Type::int(32) }, 0, 0);
        let b = g.add_node(NodeKind::Cast { ty: Type::int(64) }, 1, 0);
        g.connect(Src::of(a), b, 0);
        // Nothing uses b: both die.
        assert_eq!(prune_dead(&mut g), 2);
        assert_eq!(g.live_count(), 0);
    }

    #[test]
    fn prune_keeps_stores() {
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let p = g.const_bool(true, 0);
        let a = g.add_node(NodeKind::Const { value: 64, ty: Type::int(64) }, 0, 0);
        let v = g.add_node(NodeKind::Const { value: 7, ty: Type::int(32) }, 0, 0);
        let s = mk_store(&mut g, Src::of(a), Src::of(v), Src::of(p), Src::of(t));
        assert_eq!(prune_dead(&mut g), 0);
        assert!(matches!(g.kind(s), NodeKind::Store { .. }));
    }

    #[test]
    fn direct_deps_expand_through_nested_combines() {
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let t2 = g.add_node(NodeKind::InitialToken, 0, 0);
        let t3 = g.add_node(NodeKind::InitialToken, 0, 0);
        let c1 = g.add_node(NodeKind::Combine, 2, 0);
        g.connect(Src::of(t), c1, 0);
        g.connect(Src::of(t2), c1, 1);
        let c2 = g.add_node(NodeKind::Combine, 2, 0);
        g.connect(Src::of(c1), c2, 0);
        g.connect(Src::of(t3), c2, 1);
        let p = g.const_bool(true, 0);
        let a = g.add_node(NodeKind::Const { value: 0, ty: Type::int(64) }, 0, 0);
        let l = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        g.connect(Src::of(a), l, 0);
        g.connect(Src::of(p), l, 1);
        g.connect(Src::of(c2), l, 2);
        let deps = direct_token_deps(&g, l);
        assert_eq!(deps.len(), 3);
        assert!(deps.contains(&Src::of(t)));
        assert!(deps.contains(&Src::of(t2)));
        assert!(deps.contains(&Src::of(t3)));
    }
}
