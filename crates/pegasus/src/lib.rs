//! Pegasus: the predicated-SSA dataflow intermediate representation of the
//! CASH spatial compiler.
//!
//! Pegasus unifies four things the paper calls out (§1, §3):
//!
//! - **predication** — every side-effecting operation carries a predicate
//!   input; speculatively-executable operations carry none;
//! - **static single assignment** — scalar values are graph edges; joins
//!   are decoded multiplexors;
//! - **may-dependences through memory** — explicit zero-bit *token* edges
//!   serialize memory operations that may not commute, forming an SSA for
//!   memory;
//! - **dataflow semantics** — the graph *is* the program; its semantics is
//!   that of an asynchronous circuit, which is what `ashsim` executes.
//!
//! The crate provides the graph ([`Graph`], [`NodeKind`]), the builder from
//! a CFG ([`build`]), the structural verifier ([`verify`]), reachability and
//! token-graph transitive reduction ([`reduce`]), and DOT export ([`dot`]).
//!
//! # Examples
//!
//! Build a graph for a hand-written CFG and inspect it:
//!
//! ```
//! use cfgir::func::{BlockId, Function, Instr, Terminator};
//! use cfgir::objects::{MemObject, ObjectSet};
//! use cfgir::types::Type;
//! use cfgir::{AliasOracle, Module};
//!
//! let mut module = Module::new();
//! let obj = module.add_object(MemObject::global("a", Type::int(32), 4));
//! let mut f = Function::new("touch", Type::Void);
//! let addr = f.new_reg(Type::ptr(Type::int(32)));
//! let val = f.new_reg(Type::int(32));
//! let entry = BlockId::ENTRY;
//! f.block_mut(entry).instrs.push(Instr::Addr { dst: addr, obj });
//! f.block_mut(entry).instrs.push(Instr::Const { dst: val, value: 42 });
//! f.block_mut(entry).instrs.push(Instr::Store {
//!     addr,
//!     value: val,
//!     ty: Type::int(32),
//!     may: ObjectSet::only(obj),
//! });
//! f.block_mut(entry).term = Terminator::Ret(None);
//!
//! let oracle = AliasOracle::new(&module);
//! let graph = pegasus::build(&f, &oracle, &pegasus::BuildOptions::default())?;
//! pegasus::verify(&graph)?;
//! assert_eq!(graph.count_memory_ops(), (0, 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod build;
pub mod dot;
pub mod flat;
pub mod graph;
pub mod name;
pub mod reduce;
pub mod verify;

pub use build::{build, BuildError, BuildOptions};
pub use dot::{to_dot, to_dot_crit, to_dot_heat, CritOverlay, NodeHeat};
pub use flat::{FlatPorts, FlatUse};
pub use graph::{Graph, Input, Node, NodeId, NodeKind, Src, Use, VClass};
pub use reduce::{
    direct_token_deps, expand_token_src, prune_dead, set_token_input, token_path, topo_order,
    transitive_reduce_tokens, Reachability,
};
pub use verify::{verify, verify_all, VerifyError};
