//! A small reduced-ordered binary decision diagram (ROBDD) package.
//!
//! The CASH compiler reasons about *predicates*: every memory operation in
//! Pegasus carries a controlling predicate, and several of the redundancy
//! eliminations in the paper reduce to boolean questions about predicates —
//! "does the predicate of this store imply the predicate of that later
//! store?" (store-before-store removal, §5.2), "do these stores collectively
//! dominate this load?" (load-after-store removal, §5.3), "is this predicate
//! constant false?" (dead-operation removal, §4.1).
//!
//! This crate provides the boolean engine for those questions. Predicates are
//! built over opaque *variables* (numbered leaf conditions, typically the
//! branch conditions of the original control-flow graph) and combined with
//! the usual connectives. The representation is canonical: two predicates are
//! logically equal iff their [`Bdd`] handles are equal, so implication and
//! tautology checks are cheap.
//!
//! # Examples
//!
//! ```
//! use bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let p = m.var(0);
//! let q = m.var(1);
//! let pq = m.and(p, q);
//! assert!(m.implies(pq, p));
//! assert!(!m.implies(p, pq));
//! let por = m.or(p, q);
//! let nn = m.not(por);
//! let np = m.not(p);
//! let nq = m.not(q);
//! let dm = m.and(np, nq);
//! // De Morgan: !(p|q) == !p & !q — canonical handles are equal.
//! assert_eq!(nn, dm);
//! ```

use std::fmt;

pub mod fx;

use fx::{FxHashMap, FxHashSet};

/// A handle to a BDD node owned by a [`BddManager`].
///
/// Handles are canonical within a single manager: two handles compare equal
/// iff they denote the same boolean function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant-false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true function.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns `true` if this handle is the constant-true function.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if this handle is the constant-false function.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns `true` if this handle is one of the two constants.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw index, useful as a stable map key.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => write!(f, "false"),
            Bdd::TRUE => write!(f, "true"),
            Bdd(i) => write!(f, "bdd#{i}"),
        }
    }
}

/// A decision variable, identified by a dense index. Lower indices are
/// tested first (the variable order is the index order).
pub type Var = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: Var,
    lo: Bdd,
    hi: Bdd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// Owner and allocator of BDD nodes.
///
/// All operations go through the manager; handles from different managers
/// must never be mixed (doing so yields nonsense, not undefined behaviour).
#[derive(Debug, Default)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: FxHashMap<Node, Bdd>,
    apply_cache: FxHashMap<(Op, Bdd, Bdd), Bdd>,
    not_cache: FxHashMap<Bdd, Bdd>,
}

impl BddManager {
    /// Creates an empty manager containing only the two constants.
    pub fn new() -> Self {
        let mut m = BddManager {
            nodes: Vec::new(),
            unique: FxHashMap::default(),
            apply_cache: FxHashMap::default(),
            not_cache: FxHashMap::default(),
        };
        // Slots 0 and 1 are the constants; give them sentinel nodes so that
        // node(ix) is always valid.
        m.nodes.push(Node { var: Var::MAX, lo: Bdd::FALSE, hi: Bdd::FALSE });
        m.nodes.push(Node { var: Var::MAX, lo: Bdd::TRUE, hi: Bdd::TRUE });
        m
    }

    /// Number of live (interned) nodes, including the two constants.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn node(&self, b: Bdd) -> Node {
        self.nodes[b.0 as usize]
    }

    #[inline]
    fn var_of(&self, b: Bdd) -> Var {
        self.nodes[b.0 as usize].var
    }

    fn mk(&mut self, var: Var, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let n = Node { var, lo, hi };
        if let Some(&b) = self.unique.get(&n) {
            return b;
        }
        let b = Bdd(self.nodes.len() as u32);
        self.nodes.push(n);
        self.unique.insert(n, b);
        b
    }

    /// The function that is true exactly when variable `v` is true.
    pub fn var(&mut self, v: Var) -> Bdd {
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The function that is true exactly when variable `v` is false.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        self.mk(v, Bdd::TRUE, Bdd::FALSE)
    }

    /// Constant as a BDD.
    pub fn constant(&mut self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Logical negation.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        match a {
            Bdd::FALSE => return Bdd::TRUE,
            Bdd::TRUE => return Bdd::FALSE,
            _ => {}
        }
        if let Some(&r) = self.not_cache.get(&a) {
            return r;
        }
        let n = self.node(a);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(a, r);
        self.not_cache.insert(r, a);
        r
    }

    fn apply(&mut self, op: Op, a: Bdd, b: Bdd) -> Bdd {
        // Terminal cases.
        match op {
            Op::And => {
                if a == b {
                    return a;
                }
                if a.is_false() || b.is_false() {
                    return Bdd::FALSE;
                }
                if a.is_true() {
                    return b;
                }
                if b.is_true() {
                    return a;
                }
            }
            Op::Or => {
                if a == b {
                    return a;
                }
                if a.is_true() || b.is_true() {
                    return Bdd::TRUE;
                }
                if a.is_false() {
                    return b;
                }
                if b.is_false() {
                    return a;
                }
            }
            Op::Xor => {
                if a == b {
                    return Bdd::FALSE;
                }
                if a.is_false() {
                    return b;
                }
                if b.is_false() {
                    return a;
                }
                if a.is_true() {
                    return self.not(b);
                }
                if b.is_true() {
                    return self.not(a);
                }
            }
        }
        // Commutative: normalize operand order for cache hits.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.apply_cache.get(&(op, a, b)) {
            return r;
        }
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let v = va.min(vb);
        let (alo, ahi) = if va == v {
            let n = self.node(a);
            (n.lo, n.hi)
        } else {
            (a, a)
        };
        let (blo, bhi) = if vb == v {
            let n = self.node(b);
            (n.lo, n.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, alo, blo);
        let hi = self.apply(op, ahi, bhi);
        let r = self.mk(v, lo, hi);
        self.apply_cache.insert((op, a, b), r);
        r
    }

    /// Logical conjunction.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(Op::And, a, b)
    }

    /// Logical disjunction.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(Op::Xor, a, b)
    }

    /// `a & !b` — the part of `a` not covered by `b`.
    pub fn and_not(&mut self, a: Bdd, b: Bdd) -> Bdd {
        let nb = self.not(b);
        self.and(a, nb)
    }

    /// Conjunction over an iterator (true for an empty sequence).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for x in items {
            acc = self.and(acc, x);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator (false for an empty sequence).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for x in items {
            acc = self.or(acc, x);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Does `a` imply `b` (i.e. is `a & !b` unsatisfiable)?
    pub fn implies(&mut self, a: Bdd, b: Bdd) -> bool {
        self.and_not(a, b).is_false()
    }

    /// Are `a` and `b` disjoint (never simultaneously true)?
    pub fn disjoint(&mut self, a: Bdd, b: Bdd) -> bool {
        self.and(a, b).is_false()
    }

    /// Evaluates the function under a total assignment.
    pub fn eval(&self, b: Bdd, assignment: &dyn Fn(Var) -> bool) -> bool {
        let mut cur = b;
        while !cur.is_const() {
            let n = self.node(cur);
            cur = if assignment(n.var) { n.hi } else { n.lo };
        }
        cur.is_true()
    }

    /// Restricts variable `v` to `value` (Shannon cofactor).
    pub fn restrict(&mut self, b: Bdd, v: Var, value: bool) -> Bdd {
        if b.is_const() {
            return b;
        }
        let n = self.node(b);
        if n.var > v {
            return b; // v does not appear below here
        }
        if n.var == v {
            return if value { n.hi } else { n.lo };
        }
        let lo = self.restrict(n.lo, v, value);
        let hi = self.restrict(n.hi, v, value);
        self.mk(n.var, lo, hi)
    }

    /// The set of variables the function depends on, in ascending order.
    pub fn support(&self, b: Bdd) -> Vec<Var> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![b];
        let mut visited = FxHashSet::default();
        while let Some(x) = stack.pop() {
            if x.is_const() || !visited.insert(x) {
                continue;
            }
            let n = self.node(x);
            seen.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.into_iter().collect()
    }

    /// One satisfying assignment (as `(var, value)` pairs over a path),
    /// or `None` for the constant-false function.
    pub fn any_sat(&self, b: Bdd) -> Option<Vec<(Var, bool)>> {
        if b.is_false() {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = b;
        while !cur.is_const() {
            let n = self.node(cur);
            if !n.hi.is_false() {
                out.push((n.var, true));
                cur = n.hi;
            } else {
                out.push((n.var, false));
                cur = n.lo;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let mut m = BddManager::new();
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_false());
        assert_eq!(m.constant(true), Bdd::TRUE);
        assert_eq!(m.constant(false), Bdd::FALSE);
        assert_eq!(m.not(Bdd::TRUE), Bdd::FALSE);
    }

    #[test]
    fn var_and_negation_are_distinct() {
        let mut m = BddManager::new();
        let p = m.var(3);
        let np = m.not(p);
        assert_ne!(p, np);
        assert_eq!(m.nvar(3), np);
        assert_eq!(m.not(np), p);
    }

    #[test]
    fn and_or_identities() {
        let mut m = BddManager::new();
        let p = m.var(0);
        assert_eq!(m.and(p, Bdd::TRUE), p);
        assert_eq!(m.and(p, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(p, Bdd::FALSE), p);
        assert_eq!(m.or(p, Bdd::TRUE), Bdd::TRUE);
        assert_eq!(m.and(p, p), p);
        assert_eq!(m.or(p, p), p);
        let np = m.not(p);
        assert_eq!(m.and(p, np), Bdd::FALSE);
        assert_eq!(m.or(p, np), Bdd::TRUE);
    }

    #[test]
    fn canonicity_of_equivalent_formulas() {
        let mut m = BddManager::new();
        let p = m.var(0);
        let q = m.var(1);
        let r = m.var(2);
        // (p & q) | (p & r) == p & (q | r)
        let lhs = {
            let a = m.and(p, q);
            let b = m.and(p, r);
            m.or(a, b)
        };
        let rhs = {
            let a = m.or(q, r);
            m.and(p, a)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn implication() {
        let mut m = BddManager::new();
        let p = m.var(0);
        let q = m.var(1);
        let pq = m.and(p, q);
        let porq = m.or(p, q);
        assert!(m.implies(pq, p));
        assert!(m.implies(pq, porq));
        assert!(m.implies(Bdd::FALSE, p));
        assert!(m.implies(p, Bdd::TRUE));
        assert!(!m.implies(porq, pq));
        assert!(!m.implies(Bdd::TRUE, p));
    }

    #[test]
    fn disjointness() {
        let mut m = BddManager::new();
        let p = m.var(0);
        let np = m.not(p);
        let q = m.var(1);
        assert!(m.disjoint(p, np));
        assert!(!m.disjoint(p, q));
        let pq = m.and(p, q);
        let pnq = m.and_not(p, q);
        assert!(m.disjoint(pq, pnq));
    }

    #[test]
    fn xor_properties() {
        let mut m = BddManager::new();
        let p = m.var(0);
        let q = m.var(1);
        let x = m.xor(p, q);
        assert_eq!(m.xor(x, q), p);
        assert_eq!(m.xor(p, p), Bdd::FALSE);
        let np = m.not(p);
        assert_eq!(m.xor(p, Bdd::TRUE), np);
    }

    #[test]
    fn eval_walks_the_dag() {
        let mut m = BddManager::new();
        let p = m.var(0);
        let q = m.var(1);
        let f = {
            let nq = m.not(q);
            m.or(p, nq)
        }; // p | !q
        assert!(m.eval(f, &|v| v == 0)); // p=1,q=0
        assert!(m.eval(f, &|_| false)); // p=0,q=0 -> !q = 1
        assert!(!m.eval(f, &|v| v == 1)); // p=0,q=1
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = BddManager::new();
        let p = m.var(0);
        let q = m.var(1);
        let f = m.and(p, q);
        assert_eq!(m.restrict(f, 0, true), q);
        assert_eq!(m.restrict(f, 0, false), Bdd::FALSE);
        assert_eq!(m.restrict(f, 1, true), p);
        // Restricting a variable not in the support is identity.
        assert_eq!(m.restrict(f, 7, true), f);
    }

    #[test]
    fn support_and_sat() {
        let mut m = BddManager::new();
        let p = m.var(2);
        let q = m.var(5);
        let f = m.and(p, q);
        assert_eq!(m.support(f), vec![2, 5]);
        assert_eq!(m.support(Bdd::TRUE), Vec::<Var>::new());
        let sat = m.any_sat(f).unwrap();
        assert!(sat.contains(&(2, true)) && sat.contains(&(5, true)));
        assert!(m.any_sat(Bdd::FALSE).is_none());
    }

    #[test]
    fn and_or_all() {
        let mut m = BddManager::new();
        let vs: Vec<Bdd> = (0..4).map(|i| m.var(i)).collect();
        let all = m.and_all(vs.iter().copied());
        for &v in &vs {
            assert!(m.implies(all, v));
        }
        let any = m.or_all(vs.iter().copied());
        for &v in &vs {
            assert!(m.implies(v, any));
        }
        assert_eq!(m.and_all(std::iter::empty()), Bdd::TRUE);
        assert_eq!(m.or_all(std::iter::empty()), Bdd::FALSE);
    }

    #[test]
    fn store_postdominance_pattern() {
        // The §5.2 pattern: an earlier store with predicate p under a branch,
        // a later unconditional store (predicate true). The earlier predicate
        // implies the later one, so after and-ing with its negation it dies.
        let mut m = BddManager::new();
        let p = m.var(0);
        let later = Bdd::TRUE;
        assert!(m.implies(p, later));
        let adjusted = m.and_not(p, later);
        assert!(adjusted.is_false());
    }

    #[test]
    fn collective_domination_pattern() {
        // The §5.3 pattern: two stores under p and !p collectively dominate a
        // load with predicate true: the residual load predicate is false.
        let mut m = BddManager::new();
        let p = m.var(0);
        let np = m.not(p);
        let covered = m.or(p, np);
        let load_pred = Bdd::TRUE;
        let residual = m.and_not(load_pred, covered);
        assert!(residual.is_false());
    }
}

#[cfg(test)]
mod randomized {
    //! Deterministic randomized testing: formulas are generated from a
    //! seeded xorshift PRNG, so failures are reproducible without any
    //! external property-testing dependency.
    use super::*;

    /// A tiny formula AST for round-trip testing against direct evaluation.
    #[derive(Debug, Clone)]
    enum Formula {
        Var(u32),
        Not(Box<Formula>),
        And(Box<Formula>, Box<Formula>),
        Or(Box<Formula>, Box<Formula>),
        Xor(Box<Formula>, Box<Formula>),
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            // xorshift64*: deterministic, seed-stable across platforms.
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn gen_formula(rng: &mut Rng, depth: u32) -> Formula {
        let choice = if depth == 0 { 0 } else { rng.below(9) };
        match choice {
            0..=3 => Formula::Var(rng.below(6) as u32),
            4 => Formula::Not(Box::new(gen_formula(rng, depth - 1))),
            5 | 6 => Formula::And(
                Box::new(gen_formula(rng, depth - 1)),
                Box::new(gen_formula(rng, depth - 1)),
            ),
            7 => Formula::Or(
                Box::new(gen_formula(rng, depth - 1)),
                Box::new(gen_formula(rng, depth - 1)),
            ),
            _ => Formula::Xor(
                Box::new(gen_formula(rng, depth - 1)),
                Box::new(gen_formula(rng, depth - 1)),
            ),
        }
    }

    fn build(m: &mut BddManager, f: &Formula) -> Bdd {
        match f {
            Formula::Var(v) => m.var(*v),
            Formula::Not(a) => {
                let x = build(m, a);
                m.not(x)
            }
            Formula::And(a, b) => {
                let (x, y) = (build(m, a), build(m, b));
                m.and(x, y)
            }
            Formula::Or(a, b) => {
                let (x, y) = (build(m, a), build(m, b));
                m.or(x, y)
            }
            Formula::Xor(a, b) => {
                let (x, y) = (build(m, a), build(m, b));
                m.xor(x, y)
            }
        }
    }

    fn eval_direct(f: &Formula, env: u32) -> bool {
        match f {
            Formula::Var(v) => env & (1 << v) != 0,
            Formula::Not(a) => !eval_direct(a, env),
            Formula::And(a, b) => eval_direct(a, env) && eval_direct(b, env),
            Formula::Or(a, b) => eval_direct(a, env) || eval_direct(b, env),
            Formula::Xor(a, b) => eval_direct(a, env) ^ eval_direct(b, env),
        }
    }

    #[test]
    fn bdd_matches_truth_table() {
        let mut rng = Rng(0x5eed_0001);
        for case in 0..256 {
            let f = gen_formula(&mut rng, 5);
            let mut m = BddManager::new();
            let b = build(&mut m, &f);
            for env in 0u32..64 {
                let expect = eval_direct(&f, env);
                let got = m.eval(b, &|v| env & (1 << v) != 0);
                assert_eq!(expect, got, "case {case}, env={env:#b}, formula {f:?}");
            }
        }
    }

    #[test]
    fn equivalent_formulas_share_handles() {
        // f | f == f, f & true == f, !(!f) == f
        let mut rng = Rng(0x5eed_0002);
        for case in 0..256 {
            let f = gen_formula(&mut rng, 5);
            let mut m = BddManager::new();
            let b = build(&mut m, &f);
            let orr = m.or(b, b);
            assert_eq!(orr, b, "case {case}");
            let andt = m.and(b, Bdd::TRUE);
            assert_eq!(andt, b, "case {case}");
            let nn = m.not(b);
            let nnn = m.not(nn);
            assert_eq!(nnn, b, "case {case}");
        }
    }

    #[test]
    fn implication_is_reflexive_and_monotone() {
        let mut rng = Rng(0x5eed_0003);
        for case in 0..128 {
            let f = gen_formula(&mut rng, 5);
            let g = gen_formula(&mut rng, 5);
            let mut m = BddManager::new();
            let a = build(&mut m, &f);
            let b = build(&mut m, &g);
            assert!(m.implies(a, a), "case {case}");
            let ab = m.and(a, b);
            assert!(m.implies(ab, a), "case {case}");
            assert!(m.implies(ab, b), "case {case}");
            let aob = m.or(a, b);
            assert!(m.implies(a, aob), "case {case}");
        }
    }
}
