//! Token-edge removal (§4.3) and the immutable-object optimization (§4.2).
//!
//! For every pair of directly synchronized memory operations the compiler
//! tries to prove the two can never touch the same address, using the
//! paper's three heuristics:
//!
//! 1. symbolic address computation (`a[i]` vs `a[i+1]`);
//! 2. induction-variable analysis (same step, provably different values);
//! 3. pointer analysis / read-write set disjointness (`a[...]` vs `b[...]`,
//!    `#pragma independent`).
//!
//! Removing an edge must preserve the transitive closure of the remaining
//! token graph, so a removed producer is replaced by *its* producers
//! (Figure 5), after which the graph is re-reduced (§3.4).

use crate::util::{addr_of, bypass_token, mem_ops, size_of};
use analysis::affine::{affine_of, may_overlap, Term};
use analysis::loopinfo::IvSubst;
use bdd::fx::{FxHashMap, FxHashSet};
use cfgir::objects::ObjectKind;
use cfgir::AliasOracle;
use pegasus::{direct_token_deps, set_token_input, Graph, NodeId, NodeKind, Src};

/// Which disambiguation heuristics to use.
#[derive(Debug, Clone, Copy)]
pub struct Disambiguation {
    /// Symbolic address computation (§4.3 heuristic 1).
    pub symbolic: bool,
    /// Induction-variable entry-value substitution (§4.3 heuristic 2).
    pub induction: bool,
    /// Read/write-set (pointer analysis + pragma) disjointness (heuristic 3).
    pub rw_sets: bool,
}

impl Disambiguation {
    /// All heuristics on.
    pub fn full() -> Self {
        Disambiguation { symbolic: true, induction: true, rw_sets: true }
    }

    /// Everything off (no token edges removed).
    pub fn none() -> Self {
        Disambiguation { symbolic: false, induction: false, rw_sets: false }
    }
}

/// Are the two accesses provably never at overlapping addresses *in the
/// same wave of execution*?
fn provably_disjoint(
    g: &Graph,
    oracle: &AliasOracle<'_>,
    dis: &Disambiguation,
    iv_ctx: &FxHashMap<u32, IvSubst>,
    a: NodeId,
    b: NodeId,
) -> bool {
    // Heuristic 3: disjoint read/write sets.
    if dis.rw_sets {
        let ma = g.kind(a).may_set().expect("memory op");
        let mb = g.kind(b).may_set().expect("memory op");
        if !oracle.sets_overlap(ma, mb) {
            return true;
        }
    }
    if dis.symbolic {
        let fa = affine_of(g, addr_of(g, a));
        let fb = affine_of(g, addr_of(g, b));
        if !may_overlap(&fa, size_of(g, a), &fb, size_of(g, b)) {
            return true;
        }
        // Heuristic 2: substitute induction variables by entry + step·i.
        if dis.induction && g.hb(a) == g.hb(b) {
            if let Some(ctx) = iv_ctx.get(&g.hb(a)) {
                if let (Some((sa, ia)), Some((sb, ib))) = (ctx.substitute(&fa), ctx.substitute(&fb))
                {
                    if ia == ib && !may_overlap(&sa, size_of(g, a), &sb, size_of(g, b)) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Removes provably unnecessary token edges. Returns the number of direct
/// dependences dissolved.
pub fn remove_token_edges(g: &mut Graph, oracle: &AliasOracle<'_>, dis: Disambiguation) -> usize {
    let mut iv_ctx: FxHashMap<u32, IvSubst> = FxHashMap::default();
    for hb in 0..g.num_hbs {
        if g.hb_is_loop.get(hb as usize).copied().unwrap_or(false) {
            iv_ctx.insert(hb, IvSubst::new(g, hb));
        }
    }
    // Record the orderings the token network must keep: every pair of
    // conflicting operations (not provably disjoint under the enabled
    // heuristics) that is ordered now must still be ordered afterwards.
    // Figure 5's inheritance preserves the closure between an operation
    // and its *producers*, but dissolving a middle operation can carry
    // away the only path between two operations that still conflict.
    let mems = mem_ops(g);
    let mut must_keep: Vec<(NodeId, NodeId)> = Vec::new();
    for (i, &a) in mems.iter().enumerate() {
        for &b in &mems[i + 1..] {
            let both_loads = matches!(g.kind(a), NodeKind::Load { .. })
                && matches!(g.kind(b), NodeKind::Load { .. });
            if both_loads || provably_disjoint(g, oracle, &dis, &iv_ctx, a, b) {
                continue;
            }
            if pegasus::token_path(g, token_out(g, a), b) {
                must_keep.push((a, b));
            } else if pegasus::token_path(g, token_out(g, b), a) {
                must_keep.push((b, a));
            }
        }
    }
    let mut removed = 0;
    for op in mem_ops(g) {
        let deps = direct_token_deps(g, op);
        // Expand removable producers into their own producers (Figure 5),
        // keeping boundary nodes as-is.
        let mut kept: Vec<Src> = Vec::new();
        let mut work: Vec<Src> = deps.clone();
        let mut seen: FxHashSet<Src> = FxHashSet::default();
        let mut changed = false;
        while let Some(d) = work.pop() {
            if !seen.insert(d) {
                continue;
            }
            let dn = d.node;
            let is_mem = g.kind(dn).is_memory();
            let both_loads = is_mem
                && matches!(g.kind(dn), NodeKind::Load { .. })
                && matches!(g.kind(op), NodeKind::Load { .. });
            if is_mem && (both_loads || provably_disjoint(g, oracle, &dis, &iv_ctx, dn, op)) {
                // Dissolve this dependence; inherit its producers.
                changed = true;
                removed += 1;
                work.extend(direct_token_deps(g, dn));
            } else if !kept.contains(&d) {
                kept.push(d);
            }
        }
        if changed {
            if kept.is_empty() {
                // Everything dissolved: fall back to the hyperblock's
                // incoming token, found through the old chain's roots.
                // (The chain roots are the non-memory sources we saw.)
                let root = seen.iter().find(|s| !g.kind(s.node).is_memory()).copied();
                match root {
                    Some(r) => kept.push(r),
                    None => continue, // keep the old wiring; nothing safe
                }
            }
            set_token_input(g, op, kept);
        }
    }
    // Removing an edge preserves the transitive closure *between memory
    // operations* — but when every consumer of a memory op's token
    // dissolves its dependence, the op's completion becomes unobserved: a
    // later hyperblock could write a location before an orphaned load has
    // read it, or read one before an orphaned store has written it.
    // Re-anchor such ops into their hyperblock's outgoing token flow (its
    // exit steers / the return), which is where the builder's tail
    // combine would have put them.
    let orphans: Vec<NodeId> = mem_ops(g)
        .into_iter()
        .filter(|&id| {
            let tok = token_out(g, id);
            g.uses(id).iter().all(|u| u.src_port != tok.port)
        })
        .collect();
    for op in orphans {
        anchor_token(g, op);
    }
    // Restore any required ordering the dissolutions severed.
    for (a, b) in must_keep {
        if pegasus::token_path(g, token_out(g, a), b) {
            continue;
        }
        let port = if matches!(g.kind(b), NodeKind::Load { .. }) { 2u16 } else { 3 };
        let Some(i) = g.input(b, port) else { continue };
        let c = g.add_node(NodeKind::Combine, 2, g.hb(b));
        g.connect(i.src, c, 0);
        g.connect(token_out(g, a), c, 1);
        g.replace_input(b, port, Src::of(c));
    }
    pegasus::transitive_reduce_tokens(g);
    removed
}

/// The token output of a memory operation.
fn token_out(g: &Graph, op: NodeId) -> Src {
    match g.kind(op) {
        NodeKind::Load { .. } => Src::token_of_load(op),
        _ => Src::of(op),
    }
}

/// Splices `op`'s token output into every token steer (and return) of its
/// hyperblock, so downstream blocks wait for the operation to complete.
fn anchor_token(g: &mut Graph, op: NodeId) {
    use pegasus::VClass;
    let hb = g.hb(op);
    let tok = token_out(g, op);
    let outs: Vec<(NodeId, u16)> = g
        .live_ids()
        .filter(|&id| g.hb(id) == hb && id != op)
        .filter_map(|id| match g.kind(id) {
            NodeKind::Eta { vc: VClass::Token, .. } => Some((id, 0u16)),
            NodeKind::Return { .. } => Some((id, 1u16)),
            _ => None,
        })
        .collect();
    for (dst, port) in outs {
        let Some(i) = g.input(dst, port) else { continue };
        let c = g.add_node(NodeKind::Combine, 2, hb);
        g.connect(i.src, c, 0);
        g.connect(tok, c, 1);
        g.replace_input(dst, port, Src::of(c));
    }
}

/// §4.2: loads from immutable objects. If the loaded location is statically
/// known, the load is replaced by the constant; it needs no serialization
/// either way (the alias oracle already reports immutable sets as
/// non-overlapping, so heuristic 3 strips their token edges).
/// Returns the number of loads folded to constants.
pub fn fold_immutable_loads(g: &mut Graph, oracle: &AliasOracle<'_>) -> usize {
    let mut folded = 0;
    for op in mem_ops(g) {
        let NodeKind::Load { ty, may } = g.kind(op).clone() else { continue };
        let Some(obj) = may.singleton() else { continue };
        let objects = &oracle.module().objects;
        let o = &objects[obj.0 as usize];
        if o.kind != ObjectKind::Immutable {
            continue;
        }
        // Address must be `&obj + constant`.
        let f = affine_of(g, addr_of(g, op));
        let mut base_ok = false;
        let mut bad = false;
        for (t, c) in &f.terms {
            match t {
                Term::Base(ao) if *ao == obj && *c == 1 => base_ok = true,
                _ => bad = true,
            }
        }
        if !base_ok || bad || f.k < 0 {
            continue;
        }
        let esz = o.elem.size_bytes();
        if esz != ty.size_bytes() || !(f.k as u64).is_multiple_of(esz) {
            continue;
        }
        let idx = (f.k as u64 / esz) as usize;
        let value = o.init.get(idx).copied().unwrap_or(0);
        let hb = g.hb(op);
        let c = g.add_node(NodeKind::Const { value: o.elem.normalize(value), ty }, 0, hb);
        g.replace_all_uses(Src::of(op), Src::of(c));
        bypass_token(g, op);
        g.remove_node(op);
        folded += 1;
    }
    pegasus::prune_dead(g);
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::compile;
    use pegasus::NodeKind;

    #[test]
    fn disjoint_arrays_lose_their_edge() {
        // Figure 6: accesses to distinct globals need no serialization.
        let (module, g0) = compile(
            "int a[8]; int b[8];
             void main(void) { b[1] = 3; a[0] = b[0]; }",
        );
        let mut g = g0;
        let oracle = AliasOracle::new(&module);
        // Built coarse (no rw sets): the ops are chained.
        let removed = remove_token_edges(&mut g, &oracle, Disambiguation::full());
        assert!(removed > 0, "expected at least one edge dissolved");
        // Every memory op now hangs off the initial token directly.
        for op in mem_ops(&g) {
            for d in direct_token_deps(&g, op) {
                assert!(!g.kind(d.node).is_memory(), "op {op} still depends on a memory op");
            }
        }
        pegasus::verify(&g).unwrap();
    }

    #[test]
    fn symbolic_offsets_disambiguate() {
        // a[i] and a[i+1] (§2): same object, provably different addresses.
        let (module, mut g) = compile("void main(unsigned a[], int i) { a[i] = a[i+1]; }");
        let oracle = AliasOracle::new(&module);
        let removed = remove_token_edges(&mut g, &oracle, Disambiguation::full());
        assert!(removed >= 1, "store must not wait for the load");
        pegasus::verify(&g).unwrap();
        let store = mem_ops(&g)
            .into_iter()
            .find(|&op| matches!(g.kind(op), NodeKind::Store { .. }))
            .unwrap();
        for d in direct_token_deps(&g, store) {
            assert!(!g.kind(d.node).is_memory());
        }
    }

    #[test]
    fn aliasing_accesses_keep_their_edge() {
        // a[i] and a[j]: may alias, edge must survive.
        let (module, mut g) =
            compile("void main(unsigned a[], int i, int j) { a[i] = 1; a[j] = 2; }");
        let oracle = AliasOracle::new(&module);
        remove_token_edges(&mut g, &oracle, Disambiguation::full());
        let stores: Vec<_> = mem_ops(&g)
            .into_iter()
            .filter(|&op| matches!(g.kind(op), NodeKind::Store { .. }))
            .collect();
        assert_eq!(stores.len(), 2);
        let chained = stores
            .iter()
            .any(|&s| direct_token_deps(&g, s).iter().any(|d| stores.contains(&d.node)));
        assert!(chained, "may-aliasing stores must stay ordered");
    }

    #[test]
    fn disambiguation_none_changes_nothing() {
        let (module, mut g) = compile(
            "int a[8]; int b[8];
             void main(void) { b[1] = 3; a[0] = b[0]; }",
        );
        let oracle = AliasOracle::new(&module);
        assert_eq!(remove_token_edges(&mut g, &oracle, Disambiguation::none()), 0);
    }

    #[test]
    fn pragma_dissolves_param_edges() {
        let (module, mut g) = compile(
            "void main(int* p, int* q) {
                 #pragma independent p q
                 *p = 1; *q = 2;
             }",
        );
        let oracle = AliasOracle::new(&module);
        let removed = remove_token_edges(&mut g, &oracle, Disambiguation::full());
        assert!(removed >= 1, "pragma-independent stores must decouple");
        pegasus::verify(&g).unwrap();
    }

    #[test]
    fn immutable_load_folds_to_constant() {
        let (module, mut g) = compile(
            "const int tab[4] = {10, 20, 30, 40};
             int main(void) { return tab[2]; }",
        );
        let oracle = AliasOracle::new(&module);
        let folded = fold_immutable_loads(&mut g, &oracle);
        assert_eq!(folded, 1);
        assert_eq!(g.count_memory_ops(), (0, 0));
        // The return value is now the constant 30.
        let ret = g.live_ids().find(|&id| matches!(g.kind(id), NodeKind::Return { .. })).unwrap();
        let v = g.input(ret, 2).unwrap().src;
        assert!(matches!(g.kind(v.node), NodeKind::Const { value: 30, .. }));
        pegasus::verify(&g).unwrap();
    }

    #[test]
    fn immutable_load_with_dynamic_index_survives() {
        let (module, mut g) = compile(
            "const int tab[4] = {10, 20, 30, 40};
             int main(int i) { return tab[i]; }",
        );
        let oracle = AliasOracle::new(&module);
        assert_eq!(fold_immutable_loads(&mut g, &oracle), 0);
        assert_eq!(g.count_memory_ops(), (1, 0));
    }
}
