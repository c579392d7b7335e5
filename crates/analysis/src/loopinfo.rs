//! Structural discovery of loop rings and induction variables in a built
//! Pegasus graph.
//!
//! After construction, each loop hyperblock contains merge→…→eta cycles:
//! one per loop-carried value plus one token ring serializing the loop's
//! memory operations (Figure 11). The §6 pipelining passes restructure the
//! token ring; this module finds the rings and the loop's induction
//! variables, and classifies iteration-crossing conflicts between memory
//! accesses (the dependence-distance analysis behind loop decoupling).

use crate::affine::{affine_of, Affine, Term};
use bdd::fx::FxHashMap;
use pegasus::{Graph, NodeId, NodeKind, Src, VClass};

/// The token ring of a single-hyperblock loop.
#[derive(Debug, Clone)]
pub struct TokenRing {
    /// The loop hyperblock.
    pub hb: u32,
    /// The token merge at the loop entry.
    pub merge: NodeId,
    /// Non-back merge slots: `(port, source)` — tokens entering the loop.
    pub entries: Vec<(u16, Src)>,
    /// Back slots: `(port, back eta)`.
    pub back_etas: Vec<(u16, NodeId)>,
    /// The continue predicate of each back eta (parallel to `back_etas`).
    pub cont_preds: Vec<Src>,
    /// The per-iteration final token (value input of the back etas; they
    /// all see the same final combine by construction).
    pub final_token: Src,
    /// Token etas leaving the loop (exits), with their predicates.
    pub exit_etas: Vec<NodeId>,
}

/// Finds the token ring of loop hyperblock `hb`, if it has the canonical
/// single-ring shape the builder produces (merge with ≥1 back eta in the
/// same hyperblock, all back etas sharing one final token).
pub fn find_token_ring(g: &Graph, hb: u32) -> Option<TokenRing> {
    let mut merge = None;
    for id in g.live_ids() {
        if g.hb(id) != hb {
            continue;
        }
        if let NodeKind::Merge { vc: VClass::Token, .. } = g.kind(id) {
            let has_back = (0..g.num_inputs(id))
                .any(|p| g.input(id, p as u16).map(|i| i.back).unwrap_or(false));
            if has_back {
                if merge.is_some() {
                    return None; // already restructured: multiple rings
                }
                merge = Some(id);
            }
        }
    }
    let merge = merge?;
    let mut entries = Vec::new();
    let mut back_etas = Vec::new();
    let mut cont_preds = Vec::new();
    let mut final_token = None;
    for p in 0..g.num_inputs(merge) as u16 {
        let inp = g.input(merge, p)?;
        if inp.back {
            let eta = inp.src.node;
            if g.hb(eta) != hb || !matches!(g.kind(eta), NodeKind::Eta { .. }) {
                return None;
            }
            let val = g.input(eta, 0)?.src;
            match final_token {
                None => final_token = Some(val),
                Some(f) if f == val => {}
                Some(_) => return None, // inconsistent ring
            }
            back_etas.push((p, eta));
            cont_preds.push(g.input(eta, 1)?.src);
        } else {
            entries.push((p, inp.src));
        }
    }
    let final_token = final_token?;
    // Exit etas: token etas in this hb steering the same final token to
    // other hyperblocks.
    let mut exit_etas = Vec::new();
    for id in g.live_ids() {
        if g.hb(id) != hb || back_etas.iter().any(|&(_, e)| e == id) {
            continue;
        }
        if let NodeKind::Eta { vc: VClass::Token, .. } = g.kind(id) {
            if g.input(id, 0).map(|i| i.src) == Some(final_token) {
                exit_etas.push(id);
            }
        }
    }
    Some(TokenRing { hb, merge, entries, back_etas, cont_preds, final_token, exit_etas })
}

/// Finds the loop hyperblock's *activation* predicate merge: the predicate
/// merge with a back edge that the builder installs to carry "one `true`
/// per execution" into every hyperblock. Unlike the loop-continue
/// predicate, it never depends on values computed inside the iteration,
/// which makes it the safe wave counter for token generators.
pub fn find_activation(g: &Graph, hb: u32) -> Option<Src> {
    let mut found = None;
    for id in g.live_ids() {
        if g.hb(id) != hb {
            continue;
        }
        if let NodeKind::Merge { vc: VClass::Pred, .. } = g.kind(id) {
            let has_back = (0..g.num_inputs(id))
                .any(|p| g.input(id, p as u16).map(|i| i.back).unwrap_or(false));
            // The activation merge is fed exclusively by etas steering
            // constant true.
            let all_const_true = (0..g.num_inputs(id)).all(|p| {
                g.input(id, p as u16)
                    .map(|i| match g.kind(i.src.node) {
                        NodeKind::Eta { .. } => g
                            .input(i.src.node, 0)
                            .map(|v| {
                                matches!(
                                    g.kind(v.src.node),
                                    NodeKind::Const { value, .. } if *value != 0
                                )
                            })
                            .unwrap_or(false),
                        _ => false,
                    })
                    .unwrap_or(false)
            });
            if has_back && all_const_true {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(Src::of(id));
            }
        }
    }
    found
}

/// Induction variables of a loop: value merges whose back value is
/// `merge + step` for a constant step. `step == 0` means loop-invariant.
#[derive(Debug, Clone, Default)]
pub struct IndVars {
    /// merge output -> step per iteration.
    pub steps: FxHashMap<Src, i64>,
}

/// Finds induction variables (and loop-invariant circulating values,
/// reported with step 0) of loop hyperblock `hb`.
pub fn find_ivs(g: &Graph, hb: u32) -> IndVars {
    let mut steps = FxHashMap::default();
    'merges: for id in g.live_ids() {
        if g.hb(id) != hb {
            continue;
        }
        let is_data_merge = matches!(
            g.kind(id),
            NodeKind::Merge { vc: VClass::Data, .. } | NodeKind::Merge { vc: VClass::Pred, .. }
        );
        if !is_data_merge {
            continue;
        }
        let m = Src::of(id);
        let mut step: Option<i64> = None;
        let mut saw_back = false;
        for p in 0..g.num_inputs(id) as u16 {
            let Some(inp) = g.input(id, p) else { continue 'merges };
            if !inp.back {
                continue;
            }
            saw_back = true;
            // Back input must be an eta whose value is affine in m.
            if !matches!(g.kind(inp.src.node), NodeKind::Eta { .. }) {
                continue 'merges;
            }
            let Some(val) = g.input(inp.src.node, 0) else { continue 'merges };
            let f = affine_of(g, val.src);
            let (rest, coeff) = f.without(m);
            if coeff != 1 || !rest.is_const() {
                continue 'merges;
            }
            match step {
                None => step = Some(rest.k),
                Some(s) if s == rest.k => {}
                Some(_) => continue 'merges,
            }
        }
        if let (true, Some(s)) = (saw_back, step) {
            steps.insert(m, s);
        }
    }
    IndVars { steps }
}

/// Per-loop substitution context: induction variables with their entry
/// (initial) values folded in, so that two same-iteration (same-wave)
/// addresses compare symbolically. Shared by the token-removal pass and
/// the static race detector, which must agree on what "provably disjoint
/// in the same wave" means.
#[derive(Debug, Clone)]
pub struct IvSubst {
    ivs: IndVars,
    entries: FxHashMap<Src, Affine>,
}

impl IvSubst {
    /// Builds the substitution context for loop hyperblock `hb`.
    pub fn new(g: &Graph, hb: u32) -> Self {
        let ivs = find_ivs(g, hb);
        let mut entries = FxHashMap::default();
        for &m in ivs.steps.keys() {
            // Exactly one non-back input -> that is the entry value.
            let node = m.node;
            let mut entry = None;
            let mut count = 0;
            for p in 0..g.num_inputs(node) as u16 {
                if let Some(i) = g.input(node, p) {
                    if !i.back {
                        count += 1;
                        // The entry comes through an eta from the preheader;
                        // look through it for a sharper expression.
                        let src = if let NodeKind::Eta { .. } = g.kind(i.src.node) {
                            g.input(i.src.node, 0).map(|x| x.src).unwrap_or(i.src)
                        } else {
                            i.src
                        };
                        entry = Some(affine_of(g, src));
                    }
                }
            }
            if count == 1 {
                if let Some(e) = entry {
                    entries.insert(m, e);
                }
            }
        }
        IvSubst { ivs, entries }
    }

    /// The loop's induction variables.
    pub fn ivs(&self) -> &IndVars {
        &self.ivs
    }

    /// Substitutes IV merges by `entry + step·ITER` (the ITER coefficient is
    /// the returned pair's second element). Terms that are not known IVs
    /// pass through unchanged.
    pub fn substitute(&self, a: &Affine) -> Option<(Affine, i64)> {
        let mut out = Affine::constant(a.k);
        let mut iter_coeff: i64 = 0;
        for (t, c) in &a.terms {
            let subst = match t {
                Term::Src(s) => match (self.ivs.steps.get(s), self.entries.get(s)) {
                    (Some(step), Some(entry)) => {
                        iter_coeff += c * step;
                        Some(entry.scale(*c))
                    }
                    _ => None,
                },
                Term::Base(_) => None,
            };
            match subst {
                Some(e) => out = out.add(&e),
                None => {
                    let mut one = Affine::constant(0);
                    one.terms.insert(*t, *c);
                    out = out.add(&one);
                }
            }
        }
        Some((out, iter_coeff))
    }
}

/// How two memory accesses in the same loop interact across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// Provably never touch the same location at any pair of iterations.
    Never,
    /// May conflict at every (or unknown) iteration distance.
    Unknown,
    /// Touch the same location exactly when `second_iter - first_iter = d`
    /// (d = 0: only within one iteration; d > 0: the second access, `b`,
    /// at iteration `i + d` hits what `a` touched at iteration `i`).
    At(i64),
}

/// Classifies the iteration-crossing conflict between access `a` (affine
/// address, size in bytes) and access `b`, given the loop's induction
/// variables.
pub fn iteration_conflict(
    a: &Affine,
    size_a: u64,
    b: &Affine,
    size_b: u64,
    ivs: &IndVars,
) -> Conflict {
    // Different anchor objects never overlap, at any distance.
    if let (Some(x), Some(y)) = (a.anchor(), b.anchor()) {
        if x != y {
            return Conflict::Never;
        }
    }
    // delta(i, j) = a(i) - b(j). Terms must match per IV for the initial
    // values to cancel; non-IV terms must cancel outright.
    let d = a.sub(b);
    for t in d.terms.keys() {
        match t {
            Term::Src(s) if ivs.steps.contains_key(s) => {
                // a and b must use this IV with the same coefficient,
                // otherwise the unknown initial value survives.
                if a.coeff(*s) != b.coeff(*s) {
                    return Conflict::Unknown;
                }
            }
            _ => return Conflict::Unknown,
        }
    }
    // With matching coefficients the IV terms of `d` are all zero — the
    // loop above only fires for *mismatched* coefficients, which bail.
    // So reaching here means d is constant; the iteration shift acts via
    // the combined stride.
    let k = d.k;
    let stride: i64 = a
        .terms
        .iter()
        .filter_map(|(t, c)| match t {
            Term::Src(s) => ivs.steps.get(s).map(|st| c * st),
            Term::Base(_) => None,
        })
        .sum();
    if stride == 0 {
        // Addresses fixed (or varying identically with no net movement):
        // either always disjoint or conflicting at every distance.
        let overlap = k > -(size_b as i64) && k < size_a as i64;
        return if overlap { Conflict::Unknown } else { Conflict::Never };
    }
    // a(i) - b(i + t) = k - stride*t; overlap iff -size_b < k - stride*t < size_a.
    // With |stride| >= access sizes there is at most one integral t.
    if stride.unsigned_abs() < size_a.max(size_b) {
        return Conflict::Unknown; // accesses can straddle iterations
    }
    // Candidate t values around k/stride.
    let tf = k as f64 / stride as f64;
    for t in [tf.floor() as i64, tf.ceil() as i64] {
        let delta = k - stride.saturating_mul(t);
        if delta > -(size_b as i64) && delta < size_a as i64 {
            return Conflict::At(t);
        }
    }
    Conflict::Never
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::types::Type;
    use pegasus::NodeId;

    fn fake_iv(step: i64) -> (IndVars, Src) {
        let m = Src::of(NodeId(100));
        let mut ivs = IndVars::default();
        ivs.steps.insert(m, step);
        (ivs, m)
    }

    #[test]
    fn decoupling_example_distance_three() {
        // a[i] and a[i+3], 4-byte elements, i step 1: stride 4, k = -12 for
        // (a_store = base+4m) vs (b_load = base+4m+12):
        let (ivs, m) = fake_iv(1);
        let store = Affine::term(m).scale(4); // base cancels in the diff
        let load = store.add(&Affine::constant(12));
        // store at iter i, load at iter j: same location when j = i - 3,
        // i.e. the *store* trails the load by 3 → conflict At(-3) for
        // (a=store, b=load), At(3) for (a=load, b=store).
        assert_eq!(iteration_conflict(&store, 4, &load, 4, &ivs), Conflict::At(-3));
        assert_eq!(iteration_conflict(&load, 4, &store, 4, &ivs), Conflict::At(3));
    }

    #[test]
    fn same_address_same_iteration() {
        let (ivs, m) = fake_iv(1);
        let a = Affine::term(m).scale(4);
        assert_eq!(iteration_conflict(&a, 4, &a.clone(), 4, &ivs), Conflict::At(0));
    }

    #[test]
    fn monotone_writes_never_self_conflict() {
        // b[i+1] stores: distinct every iteration vs b[i] loads: distance 1.
        let (ivs, m) = fake_iv(1);
        let store = Affine::term(m).scale(4).add(&Affine::constant(4));
        let load = Affine::term(m).scale(4);
        assert_eq!(iteration_conflict(&store, 4, &load, 4, &ivs), Conflict::At(1));
    }

    #[test]
    fn fixed_address_conflicts_everywhere() {
        let (ivs, _) = fake_iv(1);
        let a = Affine::constant(0x1000);
        assert_eq!(iteration_conflict(&a, 4, &a.clone(), 4, &ivs), Conflict::Unknown);
        let b = Affine::constant(0x1010);
        assert_eq!(iteration_conflict(&a, 4, &b, 4, &ivs), Conflict::Never);
    }

    #[test]
    fn small_stride_is_unknown() {
        // 1-byte stride with 4-byte accesses: can straddle.
        let (ivs, m) = fake_iv(1);
        let a = Affine::term(m);
        let b = Affine::term(m).add(&Affine::constant(2));
        assert_eq!(iteration_conflict(&a, 4, &b, 4, &ivs), Conflict::Unknown);
    }

    #[test]
    fn mismatched_coefficients_are_unknown() {
        let (ivs, m) = fake_iv(1);
        let a = Affine::term(m).scale(4);
        let b = Affine::term(m).scale(8);
        assert_eq!(iteration_conflict(&a, 4, &b, 4, &ivs), Conflict::Unknown);
    }

    #[test]
    fn non_iv_term_is_unknown() {
        let (ivs, m) = fake_iv(1);
        let other = Src::of(NodeId(555));
        let a = Affine::term(m).scale(4).add(&Affine::term(other));
        let b = Affine::term(m).scale(4);
        assert_eq!(iteration_conflict(&a, 4, &b, 4, &ivs), Conflict::Unknown);
    }

    #[test]
    fn negative_step_flips_direction() {
        // i decreases: a[i] at iter i vs a[i-3]… distances mirror.
        let (ivs, m) = fake_iv(-1);
        let a = Affine::term(m).scale(4);
        let b = a.add(&Affine::constant(12));
        assert_eq!(iteration_conflict(&a, 4, &b, 4, &ivs), Conflict::At(3));
    }

    /// End-to-end: build a tiny loop in the graph and find the ring + IV.
    #[test]
    fn ring_and_iv_discovery_on_built_graph() {
        use cfgir::func::{BlockId, Function, Instr, Terminator};
        use cfgir::objects::{MemObject, ObjectSet};
        use cfgir::types::BinOp;
        use cfgir::{AliasOracle, Module};

        // for (i = 0; i < 10; i++) a[i] = i;
        let mut module = Module::new();
        let oa = module.add_object(MemObject::global("a", Type::int(32), 10));
        let mut f = Function::new("f", Type::Void);
        let i = f.new_reg(Type::int(32));
        let lim = f.new_reg(Type::int(32));
        let c = f.new_reg(Type::Bool);
        let one = f.new_reg(Type::int(32));
        let base = f.new_reg(Type::ptr(Type::int(32)));
        let i64r = f.new_reg(Type::int(64));
        let four = f.new_reg(Type::int(64));
        let off = f.new_reg(Type::int(64));
        let addr = f.new_reg(Type::ptr(Type::int(32)));
        let head = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: i, value: 0 });
        f.block_mut(e).term = Terminator::Jump(head);
        f.block_mut(head).instrs.push(Instr::Const { dst: lim, value: 10 });
        f.block_mut(head).instrs.push(Instr::Bin { dst: c, op: BinOp::Lt, a: i, b: lim });
        f.block_mut(head).term = Terminator::Branch { cond: c, then_bb: body, else_bb: exit };
        let b = f.block_mut(body);
        b.instrs.push(Instr::Addr { dst: base, obj: oa });
        b.instrs.push(Instr::Copy { dst: i64r, src: i });
        b.instrs.push(Instr::Const { dst: four, value: 4 });
        b.instrs.push(Instr::Bin { dst: off, op: BinOp::Mul, a: i64r, b: four });
        b.instrs.push(Instr::Bin { dst: addr, op: BinOp::Add, a: base, b: off });
        b.instrs.push(Instr::Store { addr, value: i, ty: Type::int(32), may: ObjectSet::only(oa) });
        b.instrs.push(Instr::Const { dst: one, value: 1 });
        b.instrs.push(Instr::Bin { dst: i, op: BinOp::Add, a: i, b: one });
        f.block_mut(body).term = Terminator::Jump(head);
        f.block_mut(exit).term = Terminator::Ret(None);

        let oracle = AliasOracle::new(&module);
        let g = pegasus::build(&f, &oracle, &pegasus::BuildOptions::default()).unwrap();
        let loop_hb = (0..g.num_hbs).find(|&h| g.hb_is_loop[h as usize]).unwrap();
        let ring = find_token_ring(&g, loop_hb).expect("loop must have a token ring");
        assert_eq!(ring.entries.len(), 1);
        assert_eq!(ring.back_etas.len(), 1);
        assert_eq!(ring.cont_preds.len(), 1);
        assert!(!ring.exit_etas.is_empty());

        let ivs = find_ivs(&g, loop_hb);
        // i circulates with step 1.
        assert!(ivs.steps.values().any(|&s| s == 1), "steps: {:?}", ivs.steps);

        // The store's address is affine in the IV with stride 4.
        let store = g.live_ids().find(|&id| matches!(g.kind(id), NodeKind::Store { .. })).unwrap();
        let a = affine_of(&g, g.input(store, 0).unwrap().src);
        let stride: i64 = a
            .terms
            .iter()
            .filter_map(|(t, c)| match t {
                Term::Src(s) => ivs.steps.get(s).map(|st| c * st),
                Term::Base(_) => None,
            })
            .sum();
        assert_eq!(stride, 4);
    }
}
