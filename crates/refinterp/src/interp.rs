//! A tree-walking reference interpreter for the MiniC AST.
//!
//! This is the oracle of the differential harness: an executable semantics
//! for MiniC that is *independent* of the CFG → Pegasus → `ashsim` pipeline,
//! yet observably identical to it on every defined program. Three design
//! decisions make byte-exact agreement tractable:
//!
//! 1. **Shared scalar semantics.** All arithmetic goes through
//!    [`cfgir::types::BinOp::eval`]/[`UnOp::eval`]/[`Type::normalize`] — the
//!    exact functions the circuit simulator executes — so wrap-around,
//!    division-by-zero-yields-0, shift-count masking and signed/unsigned
//!    comparison cannot drift.
//! 2. **Shared memory.** The interpreter runs against an [`ashsim::Machine`]
//!    built from the same [`cfgir::Module`] the compiler produces, so object
//!    layout, initializers, element widths and the out-of-bounds behavior
//!    (loads of unmapped addresses yield 0, stores are dropped) are the very
//!    same code path. Final memory states compare as raw byte images.
//! 3. **Mirrored lowering rules.** Type coercions (`unify`), pointer-offset
//!    scaling, evaluation order of assignments, the self-referential
//!    initializer quirk of address-taken scalars, and the static typing of
//!    `?:` all replicate `minic::lower` rule for rule; the relevant match
//!    arms cite the corresponding lowering behavior.
//!
//! The interpreter is fuel-limited so the shrinker can discard candidate
//! reductions that loop forever, and recursion-limited because the compile
//! pipeline rejects recursion (the interpreter must not diverge on programs
//! the compiler refuses).

use ashsim::{Machine, MemSystem};
use cfgir::objects::{ObjId, ObjectKind};
use cfgir::types::{BinOp, Type, UnOp};
use cfgir::Module;
use minic::ast::{Bin, Expr, ExprKind, FuncDecl, LocalDecl, Program, Stmt, Ty, Un};
use std::collections::HashMap;
use std::fmt;

/// Why interpretation failed.
#[derive(Debug)]
pub enum InterpError {
    /// The source did not compile (the oracle only defines semantics for
    /// programs the frontend accepts).
    Frontend(minic::CompileError),
    /// Entry function not found.
    NoEntry(String),
    /// Fewer arguments than entry parameters.
    MissingArg(String),
    /// The step budget ran out (likely an infinite loop in a shrink
    /// candidate).
    OutOfFuel,
    /// Call depth exceeded the limit (the compiler rejects recursion).
    RecursionLimit(String),
    /// An internal invariant failed after successful lowering.
    Internal(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Frontend(e) => write!(f, "{e}"),
            InterpError::NoEntry(n) => write!(f, "no entry function `{n}`"),
            InterpError::MissingArg(n) => write!(f, "missing argument for parameter `{n}`"),
            InterpError::OutOfFuel => write!(f, "interpreter fuel exhausted"),
            InterpError::RecursionLimit(n) => write!(f, "call depth limit reached in `{n}`"),
            InterpError::Internal(m) => write!(f, "internal interpreter error: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

fn internal<T>(msg: impl Into<String>) -> Result<T, InterpError> {
    Err(InterpError::Internal(msg.into()))
}

/// Observable result of an interpreted run.
pub struct Outcome {
    /// Returned value (None for void entry points), matching
    /// [`ashsim::SimResult::ret`].
    pub ret: Option<i64>,
    /// Final machine; compare [`Machine::image`] against the circuit's.
    pub machine: Machine,
    /// Statements + loop iterations executed (fuel consumed).
    pub steps: u64,
}

/// Interprets `src` from `entry` with the given arguments and a step budget.
///
/// # Errors
///
/// See [`InterpError`].
pub fn run_source(src: &str, entry: &str, args: &[i64], fuel: u64) -> Result<Outcome, InterpError> {
    let ast = minic::parse(src).map_err(|e| InterpError::Frontend(e.into()))?;
    let module = minic::compile_to_module(src).map_err(InterpError::Frontend)?;
    run_ast(&ast, &module, entry, args, fuel)
}

/// Interprets an already-parsed program against an already-lowered module
/// (the module supplies memory objects, layout and initial values).
///
/// # Errors
///
/// See [`InterpError`].
pub fn run_ast(
    prog: &Program,
    module: &Module,
    entry: &str,
    args: &[i64],
    fuel: u64,
) -> Result<Outcome, InterpError> {
    let mut interp = Interp::new(prog, module, fuel)?;
    let f = match interp.funcs.get(entry) {
        Some(f) => *f,
        None => return Err(InterpError::NoEntry(entry.into())),
    };
    if args.len() < f.params.len() {
        return Err(InterpError::MissingArg(
            f.params.get(args.len()).map(|p| p.name.clone()).unwrap_or_default(),
        ));
    }
    // Parameter values are normalized to the parameter type, like the
    // circuit's argument injection.
    let argvals: Vec<Value> = f
        .params
        .iter()
        .zip(args)
        .map(|(p, &a)| {
            let ty = conv(&p.ty);
            Value { v: ty.normalize(a), ty }
        })
        .collect();
    let ret = interp.call(entry, argvals)?;
    let steps = fuel - interp.fuel;
    Ok(Outcome { ret: ret.map(|v| v.v), machine: interp.machine, steps })
}

/// A typed runtime value; `v` is always normalized to `ty`.
#[derive(Debug, Clone, PartialEq)]
struct Value {
    v: i64,
    ty: Type,
}

fn val(ty: Type, raw: i64) -> Value {
    Value { v: ty.normalize(raw), ty }
}

/// Mirrors lowering's `coerce`: a no-op between identical types, otherwise a
/// width/signedness conversion (the Cast node's `normalize`).
fn coerce(v: Value, to: &Type) -> Value {
    if &v.ty == to {
        v
    } else {
        Value { v: to.normalize(v.v), ty: to.clone() }
    }
}

/// Mirrors lowering's `as_bool`: `x != 0` as a predicate value.
fn as_bool(v: &Value) -> Value {
    Value { v: i64::from(v.v != 0), ty: Type::Bool }
}

/// Mirrors lowering's `unify` (the common arithmetic type).
fn unify(a: &Type, b: &Type) -> Type {
    match (a, b) {
        (Type::Ptr(_), _) => a.clone(),
        (_, Type::Ptr(_)) => b.clone(),
        (Type::Bool, Type::Bool) => Type::Int { bits: 32, signed: true },
        (Type::Bool, t) | (t, Type::Bool) => t.clone(),
        (Type::Int { bits: ab, signed: asg }, Type::Int { bits: bb, signed: bsg }) => {
            let bits = (*ab).max(*bb).max(32);
            let signed = if ab == bb {
                *asg && *bsg
            } else if ab > bb {
                *asg
            } else {
                *bsg
            };
            Type::Int { bits, signed }
        }
        _ => a.clone(),
    }
}

/// Mirrors lowering's `ptr_add`: the index sign-extends to i64, scales by the
/// element size with wrapping multiply, and adds/subtracts into the pointer.
fn ptr_add(base: &Value, idx: &Value, negate: bool) -> Result<Value, InterpError> {
    let Some(elem) = base.ty.pointee().cloned() else {
        return internal("ptr_add on a non-pointer");
    };
    let i64ty = Type::Int { bits: 64, signed: true };
    let idx64 = coerce(idx.clone(), &i64ty);
    let off = BinOp::Mul.eval(&i64ty, idx64.v, elem.size_bytes() as i64);
    let op = if negate { BinOp::Sub } else { BinOp::Add };
    Ok(Value { v: op.eval(&base.ty, base.v, off), ty: base.ty.clone() })
}

fn conv(ty: &Ty) -> Type {
    match ty {
        Ty::Int { bits, signed } => Type::Int { bits: *bits, signed: *signed },
        Ty::Ptr(inner) => Type::ptr(conv(inner)),
        Ty::Void => Type::Void,
    }
}

fn conv_bin(op: Bin) -> BinOp {
    match op {
        Bin::Add => BinOp::Add,
        Bin::Sub => BinOp::Sub,
        Bin::Mul => BinOp::Mul,
        Bin::Div => BinOp::Div,
        Bin::Rem => BinOp::Rem,
        Bin::And => BinOp::And,
        Bin::Or => BinOp::Or,
        Bin::Xor => BinOp::Xor,
        Bin::Shl => BinOp::Shl,
        Bin::Shr => BinOp::Shr,
        Bin::Eq => BinOp::Eq,
        Bin::Ne => BinOp::Ne,
        Bin::Lt => BinOp::Lt,
        Bin::Le => BinOp::Le,
        Bin::Gt => BinOp::Gt,
        Bin::Ge => BinOp::Ge,
        Bin::LAnd => BinOp::LAnd,
        Bin::LOr => BinOp::LOr,
    }
}

/// A name binding: a virtual register or a memory object (array or
/// address-taken scalar), matching lowering's `Sym`.
#[derive(Debug, Clone)]
enum Slot {
    Reg(Value),
    Obj { id: ObjId, elem: Type, is_array: bool },
}

/// An assignable location, matching lowering's `Place`.
enum IPlace {
    /// A register variable at `scopes[scope]` of the current frame.
    Var { scope: usize, name: String },
    /// A memory cell.
    Mem { addr: i64, ty: Type },
}

struct Frame {
    scopes: Vec<HashMap<String, Slot>>,
    ret_ty: Type,
}

struct Interp<'a> {
    machine: Machine,
    funcs: HashMap<&'a str, &'a FuncDecl>,
    sigs: HashMap<&'a str, (Type, Vec<Type>)>,
    globals: HashMap<&'a str, Slot>,
    /// Memory-backed local declaration site (by AST node address) → object.
    objmap: HashMap<usize, ObjId>,
    fuel: u64,
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Interp<'a> {
    fn new(prog: &'a Program, module: &'a Module, fuel: u64) -> Result<Self, InterpError> {
        let machine = Machine::new(module, MemSystem::Perfect { latency: 1 });
        let mut funcs = HashMap::new();
        let mut sigs = HashMap::new();
        for f in prog.functions() {
            funcs.insert(f.name.as_str(), f);
            sigs.insert(
                f.name.as_str(),
                (conv(&f.ret), f.params.iter().map(|p| conv(&p.ty)).collect::<Vec<_>>()),
            );
        }
        let mut globals = HashMap::new();
        for g in prog.globals() {
            let Some(idx) = module.objects.iter().position(|o| {
                o.name == g.name && matches!(o.kind, ObjectKind::Global | ObjectKind::Immutable)
            }) else {
                return internal(format!("global `{}` has no object", g.name));
            };
            globals.insert(
                g.name.as_str(),
                Slot::Obj {
                    id: ObjId(idx as u32),
                    elem: conv(&g.ty),
                    is_array: g.array_len.is_some(),
                },
            );
        }
        // Map memory-backed local declarations to their module objects. The
        // lowering creates one `Local` object per site, named `{f}::{name}`,
        // in the order the statement walk reaches the declarations — the
        // same order our lexical walk produces — so zipping is exact.
        let mut objmap = HashMap::new();
        for f in prog.functions() {
            let taken = minic::lower::addr_taken(f);
            let mut sites: Vec<&LocalDecl> = Vec::new();
            for s in &f.body {
                collect_mem_decls(s, &taken, &mut sites);
            }
            let prefix = format!("{}::", f.name);
            let ids: Vec<ObjId> = module
                .objects
                .iter()
                .enumerate()
                .filter(|(_, o)| o.kind == ObjectKind::Local && o.name.starts_with(&prefix))
                .map(|(i, _)| ObjId(i as u32))
                .collect();
            if sites.len() != ids.len() {
                return internal(format!(
                    "`{}`: {} memory-backed declaration sites but {} local objects",
                    f.name,
                    sites.len(),
                    ids.len()
                ));
            }
            for (d, id) in sites.iter().zip(ids) {
                objmap.insert(*d as *const LocalDecl as usize, id);
            }
        }
        Ok(Interp { machine, funcs, sigs, globals, objmap, fuel, depth: 0 })
    }

    fn tick(&mut self) -> Result<(), InterpError> {
        if self.fuel == 0 {
            return Err(InterpError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn lookup(&self, fr: &Frame, name: &str) -> Option<Slot> {
        for s in fr.scopes.iter().rev() {
            if let Some(slot) = s.get(name) {
                return Some(slot.clone());
            }
        }
        self.globals.get(name).cloned()
    }

    fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Option<Value>, InterpError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(InterpError::RecursionLimit(name.into()));
        }
        let Some(&f) = self.funcs.get(name) else {
            return internal(format!("call to unknown function `{name}`"));
        };
        let ret_ty = conv(&f.ret);
        let mut scope = HashMap::new();
        for (p, v) in f.params.iter().zip(args) {
            let ty = conv(&p.ty);
            scope.insert(p.name.clone(), Slot::Reg(coerce(v, &ty)));
        }
        let mut fr = Frame { scopes: vec![scope], ret_ty: ret_ty.clone() };
        let mut result = None;
        for s in &f.body {
            match self.stmt(&mut fr, s)? {
                Flow::Return(v) => {
                    result = Some(v);
                    break;
                }
                Flow::Break | Flow::Continue => {
                    return internal("break/continue escaped all loops");
                }
                Flow::Normal => {}
            }
        }
        self.depth -= 1;
        Ok(match result {
            Some(v) => v,
            // Falling off the end returns a typed zero (lowering emits
            // `Const 0` of the return type); void returns nothing.
            None => {
                if ret_ty == Type::Void {
                    None
                } else {
                    Some(val(ret_ty, 0))
                }
            }
        })
    }

    // ---- expressions ----

    fn expr(&mut self, fr: &mut Frame, e: &Expr) -> Result<Value, InterpError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(val(Type::int(32), *v)),
            ExprKind::Ident(name) => match self.lookup(fr, name) {
                Some(Slot::Reg(v)) => Ok(v),
                Some(Slot::Obj { id, elem, is_array }) => {
                    let base = self.machine.obj_base(id) as i64;
                    if is_array {
                        // Array name decays to a pointer to element 0.
                        Ok(Value { v: base, ty: Type::ptr(elem) })
                    } else {
                        Ok(Value { v: self.machine.load(base as u64, &elem), ty: elem })
                    }
                }
                None => internal(format!("unknown variable `{name}`")),
            },
            ExprKind::Un(Un::AddrOf, inner) => match self.lvalue(fr, inner)? {
                IPlace::Mem { addr, ty } => Ok(Value { v: addr, ty: Type::ptr(ty) }),
                IPlace::Var { .. } => internal("address of a register variable"),
            },
            ExprKind::Un(Un::Deref, _) | ExprKind::Index { .. } => {
                let place = self.lvalue(fr, e)?;
                self.load_place(fr, &place)
            }
            ExprKind::Un(op @ (Un::Neg | Un::BitNot), inner) => {
                let v = self.expr(fr, inner)?;
                if !v.ty.is_int() && v.ty != Type::Bool {
                    return internal("arithmetic on a non-integer value");
                }
                let t = unify(&v.ty, &Type::int(32));
                let v = coerce(v, &t);
                let uop = if *op == Un::Neg { UnOp::Neg } else { UnOp::BitNot };
                Ok(Value { v: uop.eval(&t, v.v), ty: t })
            }
            ExprKind::Un(Un::Not, inner) => {
                let v = self.expr(fr, inner)?;
                let b = as_bool(&v);
                Ok(Value { v: UnOp::Not.eval(&Type::Bool, b.v), ty: Type::Bool })
            }
            ExprKind::Bin(op @ (Bin::LAnd | Bin::LOr), l, r) => {
                // Short-circuit: the right side's effects only happen when
                // its predicated path would execute in the circuit.
                let lv = self.expr(fr, l)?;
                let lb = as_bool(&lv);
                let decided = if *op == Bin::LAnd { lb.v == 0 } else { lb.v != 0 };
                if decided {
                    return Ok(Value { v: i64::from(*op == Bin::LOr), ty: Type::Bool });
                }
                let rv = self.expr(fr, r)?;
                Ok(as_bool(&rv))
            }
            ExprKind::Bin(op, l, r) => {
                let lv = self.expr(fr, l)?;
                let rv = self.expr(fr, r)?;
                self.apply_bin(*op, lv, rv)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                // Lowering order: address first, then the right-hand side,
                // then (for compound assignments) the load of the old value.
                let place = self.lvalue(fr, lhs)?;
                let rv = self.expr(fr, rhs)?;
                let stored = match op {
                    None => rv,
                    Some(binop) => {
                        let cur = self.load_place(fr, &place)?;
                        self.apply_bin(*binop, cur, rv)?
                    }
                };
                let pty = self.place_ty(fr, &place)?;
                let stored = coerce(stored, &pty);
                self.store_place(fr, &place, stored.clone())?;
                Ok(stored)
            }
            ExprKind::IncDec { pre, inc, target } => {
                let place = self.lvalue(fr, target)?;
                let cur = self.load_place(fr, &place)?;
                let curty = cur.ty.clone();
                let one = val(Type::int(32), 1);
                let op = if *inc { Bin::Add } else { Bin::Sub };
                let next = self.apply_bin(op, cur.clone(), one)?;
                let next = coerce(next, &curty);
                self.store_place(fr, &place, next.clone())?;
                Ok(if *pre { next } else { cur })
            }
            ExprKind::Cond { c, t, e: els } => {
                // The result type unifies *both* arms' static types even
                // though only the chosen arm's effects happen.
                let cv = self.expr(fr, c)?;
                let cb = as_bool(&cv);
                let ty = unify(&self.static_ty(fr, t)?, &self.static_ty(fr, els)?);
                let chosen = if cb.v != 0 { self.expr(fr, t)? } else { self.expr(fr, els)? };
                Ok(coerce(chosen, &ty))
            }
            ExprKind::Call { name, args } => {
                let Some((ret, ptys)) = self.sigs.get(name.as_str()) else {
                    return internal(format!("call to undeclared `{name}`"));
                };
                let (ret, ptys) = (ret.clone(), ptys.clone());
                if ptys.len() != args.len() {
                    return internal(format!("arity mismatch calling `{name}`"));
                }
                let mut vals = Vec::with_capacity(args.len());
                for (a, pt) in args.iter().zip(&ptys) {
                    let v = self.expr(fr, a)?;
                    vals.push(coerce(v, pt));
                }
                match self.call(name, vals)? {
                    Some(v) => Ok(v),
                    // A void call in expression position lowers to const 0.
                    None => {
                        debug_assert_eq!(ret, Type::Void);
                        Ok(val(Type::int(32), 0))
                    }
                }
            }
        }
    }

    fn apply_bin(&mut self, op: Bin, l: Value, r: Value) -> Result<Value, InterpError> {
        if l.ty.is_ptr() || r.ty.is_ptr() {
            return match op {
                Bin::Add => {
                    let (p, i) = if l.ty.is_ptr() { (l, r) } else { (r, l) };
                    ptr_add(&p, &i, false)
                }
                Bin::Sub if l.ty.is_ptr() && !r.ty.is_ptr() => ptr_add(&l, &r, true),
                Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge => {
                    // Pointers compare as 64-bit unsigned addresses.
                    let t = Type::Int { bits: 64, signed: false };
                    let a = coerce(l, &t);
                    let b = coerce(r, &t);
                    Ok(Value { v: conv_bin(op).eval(&t, a.v, b.v), ty: Type::Bool })
                }
                _ => internal(format!("operator `{op:?}` not valid on pointers")),
            };
        }
        let t = unify(&l.ty, &r.ty);
        let a = coerce(l, &t);
        let b = coerce(r, &t);
        let bop = conv_bin(op);
        let out_ty = if bop.is_comparison() { Type::Bool } else { t.clone() };
        Ok(Value { v: bop.eval(&t, a.v, b.v), ty: out_ty })
    }

    // ---- static types (for the unevaluated arm of `?:`) ----

    fn static_ty(&self, fr: &Frame, e: &Expr) -> Result<Type, InterpError> {
        Ok(match &e.kind {
            ExprKind::Int(_) => Type::int(32),
            ExprKind::Ident(name) => match self.lookup(fr, name) {
                Some(Slot::Reg(v)) => v.ty,
                Some(Slot::Obj { elem, is_array, .. }) => {
                    if is_array {
                        Type::ptr(elem)
                    } else {
                        elem
                    }
                }
                None => return internal(format!("unknown variable `{name}`")),
            },
            ExprKind::Un(Un::AddrOf, inner) => Type::ptr(self.lvalue_ty(fr, inner)?),
            ExprKind::Un(Un::Deref, _) | ExprKind::Index { .. } => self.lvalue_ty(fr, e)?,
            ExprKind::Un(Un::Not, _) => Type::Bool,
            ExprKind::Un(Un::Neg | Un::BitNot, inner) => {
                unify(&self.static_ty(fr, inner)?, &Type::int(32))
            }
            ExprKind::Bin(Bin::LAnd | Bin::LOr, ..) => Type::Bool,
            ExprKind::Bin(op, l, r) => {
                let lt = self.static_ty(fr, l)?;
                let rt = self.static_ty(fr, r)?;
                if lt.is_ptr() || rt.is_ptr() {
                    match op {
                        Bin::Add => {
                            if lt.is_ptr() {
                                lt
                            } else {
                                rt
                            }
                        }
                        Bin::Sub => lt,
                        Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge => Type::Bool,
                        _ => return internal("pointer operator typing"),
                    }
                } else if conv_bin(*op).is_comparison() {
                    Type::Bool
                } else {
                    unify(&lt, &rt)
                }
            }
            ExprKind::Assign { lhs, .. } => self.lvalue_ty(fr, lhs)?,
            ExprKind::IncDec { target, .. } => self.lvalue_ty(fr, target)?,
            ExprKind::Cond { t, e: els, .. } => {
                unify(&self.static_ty(fr, t)?, &self.static_ty(fr, els)?)
            }
            ExprKind::Call { name, .. } => match self.sigs.get(name.as_str()) {
                Some((ret, _)) if *ret != Type::Void => ret.clone(),
                Some(_) => Type::int(32),
                None => return internal(format!("call to undeclared `{name}`")),
            },
        })
    }

    fn lvalue_ty(&self, fr: &Frame, e: &Expr) -> Result<Type, InterpError> {
        match &e.kind {
            ExprKind::Ident(name) => match self.lookup(fr, name) {
                Some(Slot::Reg(v)) => Ok(v.ty),
                Some(Slot::Obj { elem, is_array: false, .. }) => Ok(elem),
                Some(Slot::Obj { .. }) => internal(format!("array `{name}` is not assignable")),
                None => internal(format!("unknown variable `{name}`")),
            },
            ExprKind::Un(Un::Deref, p) => match self.static_ty(fr, p)?.pointee() {
                Some(t) => Ok(t.clone()),
                None => internal("dereference of a non-pointer"),
            },
            ExprKind::Index { base, .. } => match self.static_ty(fr, base)?.pointee() {
                Some(t) => Ok(t.clone()),
                None => internal("indexing a non-pointer"),
            },
            _ => internal("expression is not assignable"),
        }
    }

    // ---- places ----

    fn lvalue(&mut self, fr: &mut Frame, e: &Expr) -> Result<IPlace, InterpError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                for (i, s) in fr.scopes.iter().enumerate().rev() {
                    match s.get(name) {
                        Some(Slot::Reg(_)) => {
                            return Ok(IPlace::Var { scope: i, name: name.clone() })
                        }
                        Some(Slot::Obj { id, elem, is_array }) => {
                            if *is_array {
                                return internal(format!("array `{name}` is not assignable"));
                            }
                            let addr = self.machine.obj_base(*id) as i64;
                            return Ok(IPlace::Mem { addr, ty: elem.clone() });
                        }
                        None => {}
                    }
                }
                match self.globals.get(name.as_str()) {
                    Some(Slot::Obj { id, elem, is_array: false }) => Ok(IPlace::Mem {
                        addr: self.machine.obj_base(*id) as i64,
                        ty: elem.clone(),
                    }),
                    Some(_) => internal(format!("array `{name}` is not assignable")),
                    None => internal(format!("unknown variable `{name}`")),
                }
            }
            ExprKind::Un(Un::Deref, p) => {
                let pv = self.expr(fr, p)?;
                match pv.ty.pointee() {
                    Some(inner) => Ok(IPlace::Mem { addr: pv.v, ty: inner.clone() }),
                    None => internal("dereference of a non-pointer"),
                }
            }
            ExprKind::Index { base, idx } => {
                let bv = self.expr(fr, base)?;
                let Some(elem) = bv.ty.pointee().cloned() else {
                    return internal("indexing a non-pointer");
                };
                let iv = self.expr(fr, idx)?;
                let addr = ptr_add(&bv, &iv, false)?;
                Ok(IPlace::Mem { addr: addr.v, ty: elem })
            }
            _ => internal("expression is not assignable"),
        }
    }

    fn place_ty(&self, fr: &Frame, p: &IPlace) -> Result<Type, InterpError> {
        match p {
            IPlace::Var { scope, name } => match fr.scopes[*scope].get(name) {
                Some(Slot::Reg(v)) => Ok(v.ty.clone()),
                _ => internal("dangling register place"),
            },
            IPlace::Mem { ty, .. } => Ok(ty.clone()),
        }
    }

    fn load_place(&mut self, fr: &Frame, p: &IPlace) -> Result<Value, InterpError> {
        match p {
            IPlace::Var { scope, name } => match fr.scopes[*scope].get(name) {
                Some(Slot::Reg(v)) => Ok(v.clone()),
                _ => internal("dangling register place"),
            },
            IPlace::Mem { addr, ty } => {
                Ok(Value { v: self.machine.load(*addr as u64, ty), ty: ty.clone() })
            }
        }
    }

    fn store_place(&mut self, fr: &mut Frame, p: &IPlace, v: Value) -> Result<(), InterpError> {
        match p {
            IPlace::Var { scope, name } => match fr.scopes[*scope].get_mut(name) {
                Some(Slot::Reg(slot)) => {
                    *slot = v;
                    Ok(())
                }
                _ => internal("dangling register place"),
            },
            IPlace::Mem { addr, ty } => {
                self.machine.store(*addr as u64, ty, v.v);
                Ok(())
            }
        }
    }

    // ---- statements ----

    fn stmt(&mut self, fr: &mut Frame, s: &Stmt) -> Result<Flow, InterpError> {
        self.tick()?;
        match s {
            Stmt::Empty | Stmt::Pragma(..) => Ok(Flow::Normal),
            Stmt::Expr(e) => {
                self.expr(fr, e)?;
                Ok(Flow::Normal)
            }
            Stmt::Decl(ds) => {
                for d in ds {
                    self.local_decl(fr, d)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Block(stmts) => {
                fr.scopes.push(HashMap::new());
                let mut flow = Flow::Normal;
                for st in stmts {
                    flow = self.stmt(fr, st)?;
                    if !matches!(flow, Flow::Normal) {
                        break;
                    }
                }
                fr.scopes.pop();
                Ok(flow)
            }
            Stmt::If { c, t, e } => {
                let cv = self.expr(fr, c)?;
                if as_bool(&cv).v != 0 {
                    self.stmt(fr, t)
                } else if let Some(e) = e {
                    self.stmt(fr, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { c, body } => {
                loop {
                    self.tick()?;
                    let cv = self.expr(fr, c)?;
                    if as_bool(&cv).v == 0 {
                        break;
                    }
                    match self.stmt(fr, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, c } => {
                loop {
                    self.tick()?;
                    match self.stmt(fr, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    let cv = self.expr(fr, c)?;
                    if as_bool(&cv).v == 0 {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, step, body } => {
                // The init declaration lives in its own scope, like lowering.
                fr.scopes.push(HashMap::new());
                let r = self.run_for(fr, init.as_deref(), cond.as_ref(), step.as_ref(), body);
                fr.scopes.pop();
                r
            }
            Stmt::Return(e, _) => match e {
                Some(e) => {
                    let v = self.expr(fr, e)?;
                    let rt = fr.ret_ty.clone();
                    Ok(Flow::Return(Some(coerce(v, &rt))))
                }
                None => Ok(Flow::Return(None)),
            },
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
        }
    }

    fn run_for(
        &mut self,
        fr: &mut Frame,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Stmt,
    ) -> Result<Flow, InterpError> {
        if let Some(i) = init {
            match self.stmt(fr, i)? {
                Flow::Normal => {}
                f => return Ok(f),
            }
        }
        loop {
            self.tick()?;
            if let Some(c) = cond {
                let cv = self.expr(fr, c)?;
                if as_bool(&cv).v == 0 {
                    break;
                }
            }
            match self.stmt(fr, body)? {
                Flow::Break => break,
                Flow::Return(v) => return Ok(Flow::Return(v)),
                // `continue` still runs the step expression.
                Flow::Normal | Flow::Continue => {}
            }
            if let Some(st) = step {
                self.expr(fr, st)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn local_decl(&mut self, fr: &mut Frame, d: &LocalDecl) -> Result<(), InterpError> {
        let ty = conv(&d.ty);
        let site = d as *const LocalDecl as usize;
        if d.array_len.is_some() {
            let Some(&id) = self.objmap.get(&site) else {
                return internal(format!("array `{}` has no object", d.name));
            };
            fr.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(d.name.clone(), Slot::Obj { id, elem: ty, is_array: true });
            return Ok(());
        }
        if let Some(&id) = self.objmap.get(&site) {
            // Address-taken scalar. Lowering binds the name *before*
            // evaluating the initializer (so `int x = x + 1;` reads the
            // cell's previous contents), and an uninitialized declaration
            // leaves the static cell untouched on re-entry.
            fr.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(d.name.clone(), Slot::Obj { id, elem: ty.clone(), is_array: false });
            if let Some(e) = &d.init {
                let v = self.expr(fr, e)?;
                let v = coerce(v, &ty);
                let addr = self.machine.obj_base(id);
                self.machine.store(addr, &ty, v.v);
            }
            return Ok(());
        }
        // Register scalar: the initializer is evaluated in the *enclosing*
        // binding environment, then the name is bound (lowering inserts into
        // scope after lowering the initializer). No init re-zeroes.
        let v = match &d.init {
            Some(e) => {
                let v = self.expr(fr, e)?;
                coerce(v, &ty)
            }
            None => val(ty, 0),
        };
        fr.scopes.last_mut().expect("scope stack never empty").insert(d.name.clone(), Slot::Reg(v));
        Ok(())
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
}

/// Collects memory-backed declaration sites (arrays and address-taken
/// scalars) in the order lowering's statement walk reaches them.
fn collect_mem_decls<'a>(
    s: &'a Stmt,
    taken: &std::collections::HashSet<String>,
    out: &mut Vec<&'a LocalDecl>,
) {
    match s {
        Stmt::Decl(ds) => {
            for d in ds {
                if d.array_len.is_some() || taken.contains(&d.name) {
                    out.push(d);
                }
            }
        }
        Stmt::If { t, e, .. } => {
            collect_mem_decls(t, taken, out);
            if let Some(e) = e {
                collect_mem_decls(e, taken, out);
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
            collect_mem_decls(body, taken, out);
        }
        Stmt::For { init, body, .. } => {
            if let Some(i) = init {
                collect_mem_decls(i, taken, out);
            }
            collect_mem_decls(body, taken, out);
        }
        Stmt::Block(ss) => {
            for st in ss {
                collect_mem_decls(st, taken, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ret_of(src: &str, args: &[i64]) -> Option<i64> {
        run_source(src, "main", args, 1 << 20).unwrap().ret
    }

    #[test]
    fn scalar_arithmetic_and_wrapping() {
        assert_eq!(ret_of("int main(int n) { return n * 3 - 1; }", &[5]), Some(14));
        // i32 wrap-around, shared with the circuit via Type::normalize.
        assert_eq!(
            ret_of("int main(int n) { return n + 1; }", &[i64::from(i32::MAX)]),
            Some(i64::from(i32::MIN))
        );
        // Division by zero yields 0 on this machine.
        assert_eq!(ret_of("int main(int n) { return 7 / n + 7 % n; }", &[0]), Some(0));
    }

    #[test]
    fn short_circuit_skips_side_effects() {
        let src = "
            int g;
            int set(void) { g = 1; return 1; }
            int main(int n) { int r = n && set(); return g * 10 + r; }";
        assert_eq!(ret_of(src, &[0]), Some(0)); // set() never ran
        assert_eq!(ret_of(src, &[3]), Some(11));
    }

    #[test]
    fn ternary_evaluates_one_arm() {
        let src = "
            int g;
            int bump(int v) { g = g + 1; return v; }
            int main(int n) { int r = n ? bump(2) : bump(3); return g * 100 + r; }";
        assert_eq!(ret_of(src, &[1]), Some(102));
        assert_eq!(ret_of(src, &[0]), Some(103));
    }

    #[test]
    fn loops_break_continue() {
        let src = "
            int main(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i == 2) continue;
                    if (i == 5) break;
                    s += i;
                }
                return s;
            }";
        assert_eq!(ret_of(src, &[10]), Some(1 + 3 + 4));
    }

    #[test]
    fn arrays_pointers_and_memory_image() {
        let src = "
            int a[8];
            int main(int n) {
                for (int i = 0; i < 8; i++) a[i] = i * n;
                int* p = a + 3;
                return *p + p[1];
            }";
        let out = run_source(src, "main", &[2], 1 << 20).unwrap();
        assert_eq!(out.ret, Some(6 + 8));
        // The machine's byte image reflects the final array contents.
        let module = minic::compile_to_module(src).unwrap();
        let obj = module.objects.iter().position(|o| o.name == "a").unwrap();
        assert_eq!(out.machine.read_elem(&module, ObjId(obj as u32), 7), 14);
    }

    /// The interpreter walks the syntax tree recursively, so the parser's
    /// chain limit is what keeps a long flat sum from overflowing a 2 MB
    /// thread stack: the longest accepted chain runs, a longer one is a
    /// frontend error.
    #[test]
    fn long_operator_chains_run_or_fail_without_aborting() {
        let sum =
            |terms: usize| format!("int main(int n) {{ return {}n; }}", "n + ".repeat(terms - 1));
        assert_eq!(ret_of(&sum(129), &[2]), Some(258));
        for terms in [600, 10_000] {
            let r = run_source(&sum(terms), "main", &[2], 1 << 20);
            assert!(matches!(r, Err(InterpError::Frontend(_))), "{terms} terms must not run");
        }
    }

    #[test]
    fn out_of_bounds_reads_zero_and_writes_drop() {
        // Accessing far past every object: load yields 0, store is dropped —
        // identical to the simulated machine's behavior.
        let src = "
            int a[4];
            int main(int n) {
                int* p = a + n;
                *p = 9;
                return *p;
            }";
        assert_eq!(ret_of(src, &[100000]), Some(0));
        assert_eq!(ret_of(src, &[2]), Some(9));
    }

    #[test]
    fn address_taken_scalar_lives_in_memory() {
        let src = "
            void put(int* p, int v) { *p = v; }
            int main(int n) {
                int x = 1;
                put(&x, n);
                return x;
            }";
        assert_eq!(ret_of(src, &[42]), Some(42));
    }

    #[test]
    fn unsigned_and_narrow_widths() {
        // Unsigned comparison differs from signed.
        let src = "int main(int n) { unsigned u = 0 - 1; if (u < 1) return 1; return 2; }";
        assert_eq!(ret_of(src, &[0]), Some(2));
        // char stores truncate to 8 bits.
        let src = "char c[4]; int main(int n) { c[0] = n; return c[0]; }";
        assert_eq!(ret_of(src, &[300]), Some(44));
    }

    #[test]
    fn incdec_pre_and_post() {
        let src =
            "int main(int n) { int x = n; int a = x++; int b = ++x; return a * 100 + b * 10 + x; }";
        assert_eq!(ret_of(src, &[3]), Some(3 * 100 + 5 * 10 + 5));
    }

    #[test]
    fn fuel_limit_reports_out_of_fuel() {
        let src = "int main(int n) { while (1) { n = n + 1; } return n; }";
        match run_source(src, "main", &[0], 1000) {
            Err(InterpError::OutOfFuel) => {}
            other => panic!("expected OutOfFuel, got {:?}", other.map(|o| o.ret)),
        }
    }

    #[test]
    fn frontend_errors_propagate() {
        assert!(matches!(
            run_source("int main( {", "main", &[], 100),
            Err(InterpError::Frontend(_))
        ));
        assert!(matches!(
            run_source("int main(void) { return 1; }", "nope", &[], 100),
            Err(InterpError::NoEntry(_))
        ));
        assert!(matches!(
            run_source("int main(int n) { return n; }", "main", &[], 100),
            Err(InterpError::MissingArg(_))
        ));
    }

    #[test]
    fn do_while_runs_at_least_once() {
        let src = "int main(int n) { int s = 0; do { s += 5; n--; } while (n > 0); return s; }";
        assert_eq!(ret_of(src, &[0]), Some(5));
        assert_eq!(ret_of(src, &[3]), Some(15));
    }

    #[test]
    fn global_initializers_are_visible() {
        let src = "
            int g = 11;
            const int tab[3] = {5, 6, 7};
            int main(int n) { return g + tab[n]; }";
        assert_eq!(ret_of(src, &[2]), Some(18));
    }
}
