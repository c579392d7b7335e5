//! Scalar clean-up: constant folding, algebraic simplification, and common
//! subexpression elimination.
//!
//! CASH runs these alongside the memory optimizations (§7.1 lists constant
//! folding/propagation, re-association, algebraic simplifications, CSE).
//! They also feed the memory passes: folded predicates expose dead stores,
//! shared address subexpressions make `same address` checks syntactic.

use bdd::fx::FxHashMap;
use cfgir::types::{BinOp, Type, UnOp};
use pegasus::{Graph, NodeId, NodeKind, Src};
use std::collections::HashMap;

/// Runs constant folding + algebraic identities + CSE to a fixpoint.
/// Returns the number of rewrites applied.
pub fn simplify(g: &mut Graph) -> usize {
    let mut total = 0;
    loop {
        let n = fold_constants(g) + algebraic(g) + cse(g);
        pegasus::prune_dead(g);
        if n == 0 {
            return total;
        }
        total += n;
    }
}

fn const_value(g: &Graph, src: Src) -> Option<i64> {
    if src.port != 0 {
        return None;
    }
    match g.kind(src.node) {
        NodeKind::Const { value, ty } => Some(ty.normalize(*value)),
        _ => None,
    }
}

/// Folds pure operations over constants into constants.
fn fold_constants(g: &mut Graph) -> usize {
    let mut n = 0;
    for id in g.ids() {
        if !g.has_uses(id, 0) {
            continue;
        }
        let operand = |port| g.input(id, port).and_then(|i| const_value(g, i.src));
        let folded = match g.kind(id) {
            NodeKind::BinOp { op, ty } => match (operand(0), operand(1)) {
                // A comparison node carries its *operand* type (for
                // signedness) but its output is a predicate; the folded
                // constant must be Bool or its class flips Pred -> Data.
                (Some(a), Some(b)) => {
                    let out_ty = if op.is_comparison() { Type::Bool } else { ty.clone() };
                    Some((op.eval(ty, a, b), out_ty))
                }
                _ => None,
            },
            NodeKind::UnOp { op, ty } => operand(0).map(|a| (op.eval(ty, a), ty.clone())),
            NodeKind::Cast { ty } => operand(0).map(|a| (ty.normalize(a), ty.clone())),
            _ => None,
        };
        if let Some((v, ty)) = folded {
            let hb = g.hb(id);
            let c = g.add_node(NodeKind::Const { value: v, ty }, 0, hb);
            g.replace_all_uses(Src::of(id), Src::of(c));
            n += 1;
        }
    }
    n
}

/// Identity rewrites: `x+0`, `x*1`, `x*0`, `x&true`, `x|false`, `!!x`,
/// mux simplification under constant predicates, single-input merges that
/// have no back edge.
fn algebraic(g: &mut Graph) -> usize {
    let mut n = 0;
    for id in g.ids() {
        if !g.has_uses(id, 0) {
            continue;
        }
        let replacement: Option<Src> = match g.kind(id) {
            NodeKind::BinOp { op, ty } => {
                let (op, pred) = (*op, *ty == Type::Bool);
                let ia = g.input(id, 0).map(|i| i.src);
                let ib = g.input(id, 1).map(|i| i.src);
                let (Some(a), Some(b)) = (ia, ib) else { continue };
                let ca = const_value(g, a);
                let cb = const_value(g, b);
                match op {
                    BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                        if cb == Some(0) && !pred =>
                    {
                        Some(a)
                    }
                    BinOp::Add if ca == Some(0) && !pred => Some(b),
                    BinOp::Sub if cb == Some(0) => Some(a),
                    BinOp::Mul if cb == Some(1) => Some(a),
                    BinOp::Mul if ca == Some(1) => Some(b),
                    BinOp::And if pred && cb == Some(1) => Some(a),
                    BinOp::And if pred && ca == Some(1) => Some(b),
                    BinOp::And if pred && (ca == Some(0) || cb == Some(0)) => {
                        let hb = g.hb(id);
                        Some(Src::of(g.const_bool(false, hb)))
                    }
                    BinOp::Or if pred && cb == Some(0) => Some(a),
                    BinOp::Or if pred && ca == Some(0) => Some(b),
                    BinOp::Or if pred && (ca == Some(1) || cb == Some(1)) => {
                        let hb = g.hb(id);
                        Some(Src::of(g.const_bool(true, hb)))
                    }
                    _ => None,
                }
            }
            NodeKind::UnOp { op: UnOp::Not, ty: Type::Bool } => {
                // !!x -> x
                let a = g.input(id, 0).map(|i| i.src);
                match a {
                    Some(a) if matches!(g.kind(a.node), NodeKind::UnOp { op: UnOp::Not, .. }) => {
                        g.input(a.node, 0).map(|i| i.src)
                    }
                    _ => None,
                }
            }
            NodeKind::Mux { ty } => {
                // Drop constant-false ways; collapse when a way is
                // constant-true or only one way remains.
                let nin = g.num_inputs(id);
                let mut ways: Vec<(Src, Src)> = Vec::new();
                let mut changed = false;
                let mut taken: Option<Src> = None;
                for k in 0..nin / 2 {
                    let p = g.input(id, (2 * k) as u16).map(|i| i.src);
                    let v = g.input(id, (2 * k + 1) as u16).map(|i| i.src);
                    let (Some(p), Some(v)) = (p, v) else { continue };
                    match const_value(g, p) {
                        Some(0) => changed = true, // dead way
                        Some(_) => taken = Some(v),
                        None => ways.push((p, v)),
                    }
                }
                if let Some(v) = taken {
                    // A constant-true way: in well-formed PSSA the rest are
                    // then false.
                    Some(v)
                } else if ways.len() == 1 && changed {
                    // Only one way can fire: its predicate must hold.
                    Some(ways[0].1)
                } else if changed && ways.len() >= 2 {
                    let ty = ty.clone();
                    let hb = g.hb(id);
                    let m = g.add_node(NodeKind::Mux { ty }, ways.len() * 2, hb);
                    for (i, (p, v)) in ways.iter().enumerate() {
                        g.connect(*p, m, (2 * i) as u16);
                        g.connect(*v, m, (2 * i + 1) as u16);
                    }
                    Some(Src::of(m))
                } else {
                    None
                }
            }
            NodeKind::Merge { .. } => {
                // A 1-input merge with a forward edge is a wire.
                if g.num_inputs(id) == 1 {
                    match g.input(id, 0) {
                        Some(i) if !i.back => Some(i.src),
                        _ => None,
                    }
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(r) = replacement {
            if r != Src::of(id) {
                g.replace_all_uses(Src::of(id), r);
                n += 1;
            }
        }
    }
    n
}

/// Value numbering: pure nodes with identical kind and inputs are shared.
/// Run-time constants (`Const`, `Addr`, `Param`) are shared globally;
/// dynamic pure nodes only within one hyperblock (firing rates must match).
///
/// Constant values come from the source program, so they are numbered in
/// a map with `std`'s flooding-resistant hasher; every other key is made
/// of compiler-assigned ids and uses the fast one.
fn cse(g: &mut Graph) -> usize {
    #[derive(Hash, PartialEq, Eq)]
    enum Key {
        Address(cfgir::objects::ObjId),
        Parameter(usize),
        Bin(BinOp, Type, Src, Src, u32),
        Un(UnOp, Type, Src, u32),
        Kast(Type, Src, u32),
    }
    let mut konsts: HashMap<(i64, Type), NodeId> = HashMap::new();
    let mut seen: FxHashMap<Key, NodeId> = FxHashMap::default();
    let forward_input = |g: &Graph, id| g.input(id, 0).filter(|a| !a.back).map(|a| a.src);
    let mut n = 0;
    for id in pegasus::topo_order(g) {
        let leader = match g.kind(id) {
            NodeKind::Const { value, ty } => {
                *konsts.entry((ty.normalize(*value), ty.clone())).or_insert(id)
            }
            NodeKind::Addr { obj } => *seen.entry(Key::Address(*obj)).or_insert(id),
            NodeKind::Param { index, .. } => *seen.entry(Key::Parameter(*index)).or_insert(id),
            NodeKind::BinOp { op, ty } => {
                let (Some(a), Some(b)) = (g.input(id, 0), g.input(id, 1)) else { continue };
                if a.back || b.back {
                    continue;
                }
                // Normalize commutative operand order.
                let (x, y) = if op.is_commutative() && b.src < a.src {
                    (b.src, a.src)
                } else {
                    (a.src, b.src)
                };
                *seen.entry(Key::Bin(*op, ty.clone(), x, y, g.hb(id))).or_insert(id)
            }
            NodeKind::UnOp { op, ty } => {
                let Some(a) = forward_input(g, id) else { continue };
                *seen.entry(Key::Un(*op, ty.clone(), a, g.hb(id))).or_insert(id)
            }
            NodeKind::Cast { ty } => {
                let Some(a) = forward_input(g, id) else { continue };
                *seen.entry(Key::Kast(ty.clone(), a, g.hb(id))).or_insert(id)
            }
            _ => continue,
        };
        if leader != id && g.has_uses(id, 0) {
            g.replace_all_uses(Src::of(id), Src::of(leader));
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn konst(g: &mut Graph, v: i64) -> Src {
        Src::of(g.add_node(NodeKind::Const { value: v, ty: Type::int(32) }, 0, 0))
    }

    fn keep(g: &mut Graph, s: Src) -> NodeId {
        // Anchor a value so prune_dead keeps it: feed it to a return.
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let p = g.const_bool(true, 0);
        let r = g.add_node(NodeKind::Return { has_value: true, ty: Type::int(32) }, 3, 0);
        g.connect(Src::of(p), r, 0);
        g.connect(Src::of(t), r, 1);
        g.connect(s, r, 2);
        r
    }

    #[test]
    fn folds_constant_tree() {
        let mut g = Graph::new();
        let a = konst(&mut g, 6);
        let b = konst(&mut g, 7);
        let mul = g.add_node(NodeKind::BinOp { op: BinOp::Mul, ty: Type::int(32) }, 2, 0);
        g.connect(a, mul, 0);
        g.connect(b, mul, 1);
        let r = keep(&mut g, Src::of(mul));
        simplify(&mut g);
        let v = g.input(r, 2).unwrap().src;
        assert!(matches!(g.kind(v.node), NodeKind::Const { value: 42, .. }));
    }

    #[test]
    fn add_zero_is_identity() {
        let mut g = Graph::new();
        let x = g.add_node(NodeKind::Param { index: 0, ty: Type::int(32) }, 0, 0);
        let z = konst(&mut g, 0);
        let add = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(32) }, 2, 0);
        g.connect(Src::of(x), add, 0);
        g.connect(z, add, 1);
        let r = keep(&mut g, Src::of(add));
        simplify(&mut g);
        assert_eq!(g.input(r, 2).unwrap().src, Src::of(x));
    }

    #[test]
    fn and_true_or_false_identities() {
        let mut g = Graph::new();
        let p = g.add_node(NodeKind::Param { index: 0, ty: Type::Bool }, 0, 0);
        let t = g.const_bool(true, 0);
        let and = g.pred_and(Src::of(p), Src::of(t), 0);
        let f = g.const_bool(false, 0);
        let or = g.pred_or(Src::of(and), Src::of(f), 0);
        // Anchor via an eta so classes stay legal.
        let tok = g.add_node(NodeKind::InitialToken, 0, 0);
        let eta = g.add_node(NodeKind::Eta { vc: pegasus::VClass::Token, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(tok), eta, 0);
        g.connect(Src::of(or), eta, 1);
        let ret = g.add_node(NodeKind::Return { has_value: false, ty: Type::Void }, 2, 0);
        let t2 = g.const_bool(true, 0);
        g.connect(Src::of(t2), ret, 0);
        g.connect(Src::of(eta), ret, 1);
        simplify(&mut g);
        assert_eq!(g.input(eta, 1).unwrap().src, Src::of(p), "p & true | false == p");
    }

    #[test]
    fn double_negation_cancels() {
        let mut g = Graph::new();
        let p = g.add_node(NodeKind::Param { index: 0, ty: Type::Bool }, 0, 0);
        let n1 = g.pred_not(Src::of(p), 0);
        let n2 = g.pred_not(Src::of(n1), 0);
        let tok = g.add_node(NodeKind::InitialToken, 0, 0);
        let eta = g.add_node(NodeKind::Eta { vc: pegasus::VClass::Token, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(tok), eta, 0);
        g.connect(Src::of(n2), eta, 1);
        let ret = g.add_node(NodeKind::Return { has_value: false, ty: Type::Void }, 2, 0);
        let t = g.const_bool(true, 0);
        g.connect(Src::of(t), ret, 0);
        g.connect(Src::of(eta), ret, 1);
        simplify(&mut g);
        assert_eq!(g.input(eta, 1).unwrap().src, Src::of(p));
    }

    #[test]
    fn mux_with_constant_true_way_collapses() {
        let mut g = Graph::new();
        let t = g.const_bool(true, 0);
        let f = g.const_bool(false, 0);
        let a = konst(&mut g, 1);
        let b = konst(&mut g, 2);
        let mux = g.add_node(NodeKind::Mux { ty: Type::int(32) }, 4, 0);
        g.connect(Src::of(f), mux, 0);
        g.connect(a, mux, 1);
        g.connect(Src::of(t), mux, 2);
        g.connect(b, mux, 3);
        let r = keep(&mut g, Src::of(mux));
        simplify(&mut g);
        assert_eq!(g.input(r, 2).unwrap().src, b);
    }

    #[test]
    fn cse_shares_duplicate_adds() {
        let mut g = Graph::new();
        let x = g.add_node(NodeKind::Param { index: 0, ty: Type::int(32) }, 0, 0);
        let y = g.add_node(NodeKind::Param { index: 1, ty: Type::int(32) }, 0, 0);
        let a1 = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(32) }, 2, 0);
        g.connect(Src::of(x), a1, 0);
        g.connect(Src::of(y), a1, 1);
        // Same computation with commuted operands.
        let a2 = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(32) }, 2, 0);
        g.connect(Src::of(y), a2, 0);
        g.connect(Src::of(x), a2, 1);
        let sum = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(32) }, 2, 0);
        g.connect(Src::of(a1), sum, 0);
        g.connect(Src::of(a2), sum, 1);
        let r = keep(&mut g, Src::of(sum));
        simplify(&mut g);
        let s = g.input(r, 2).unwrap().src;
        let (i0, i1) = (g.input(s.node, 0).unwrap().src, g.input(s.node, 1).unwrap().src);
        assert_eq!(i0, i1, "both operands must be the shared add");
    }

    #[test]
    fn simplify_is_idempotent() {
        let mut g = Graph::new();
        let a = konst(&mut g, 6);
        let b = konst(&mut g, 7);
        let mul = g.add_node(NodeKind::BinOp { op: BinOp::Mul, ty: Type::int(32) }, 2, 0);
        g.connect(a, mul, 0);
        g.connect(b, mul, 1);
        keep(&mut g, Src::of(mul));
        simplify(&mut g);
        let after_first = g.live_count();
        assert_eq!(simplify(&mut g), 0);
        assert_eq!(g.live_count(), after_first);
    }
}
