//! Static rate analysis: an SDF-style balance check over merge / eta /
//! token-generator cycles.
//!
//! Every value source is assigned a *rate* — how often it delivers:
//!
//! - sticky sources (constants, parameters, addresses) replay on every
//!   wave and can neither flood nor starve anything ([`Rate::Any`]);
//! - the initial token delivers once per execution ([`Rate::Once`]), and
//!   so does anything computed only from once-and-sticky inputs;
//! - a merge or token generator of loop hyperblock `L` delivers once per
//!   wave of `L` (`Wave { hb: L, filter: TRUE }`);
//! - an eta *filters* its context's per-wave rate by its own predicate.
//!
//! Two rules fall out. A node joining two different wave rates floods its
//! slower input channel (`rate_mismatch`). And a merge entry slot fed by
//! an *unfiltered* per-wave stream floods the ring: the ring consumes one
//! entry per execution of its loop, while the feeder produces one value
//! per wave — the producer stalls, the upstream circuit wedges, deadlock.
//! That is precisely the `loop_invariant` bug class of PR 2 (a ring entry
//! rewired straight to another ring's merge instead of its gating eta),
//! which this check reports statically, naming the offending cycle.

use crate::preds::PredBdds;
use crate::{LintDiag, Rule};
use bdd::fx::FxHashMap;
use bdd::Bdd;
use pegasus::{topo_order, Graph, NodeId, NodeKind, Src};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rate {
    /// Sticky: replayed for every consumer wave.
    Any,
    /// At most one delivery per program execution.
    Once,
    /// One delivery per activation wave of hyperblock `hb` on which
    /// `filter` holds.
    Wave { hb: u32, filter: Bdd },
}

pub(crate) fn check(g: &Graph, diags: &mut Vec<LintDiag>) {
    // Filters must keep activations opaque: an eta gated on an activation
    // still delivers once per wave, unlike a per-execution entry steer.
    let mut pm = PredBdds::new(false);
    let mut rates: FxHashMap<Src, Rate> = FxHashMap::default();
    for id in topo_order(g) {
        match g.kind(id) {
            NodeKind::Removed => {}
            NodeKind::Const { .. } | NodeKind::Param { .. } | NodeKind::Addr { .. } => {
                rates.insert(Src::of(id), Rate::Any);
            }
            NodeKind::InitialToken => {
                rates.insert(Src::of(id), Rate::Once);
            }
            NodeKind::Merge { .. } | NodeKind::TokenGen { .. } => {
                rates.insert(Src::of(id), Rate::Wave { hb: g.hb(id), filter: Bdd::TRUE });
            }
            NodeKind::Eta { .. } => {
                let ctx = unify_inputs(g, id, &rates);
                let out = match ctx {
                    Rate::Any | Rate::Once => Rate::Once,
                    Rate::Wave { hb, filter } => {
                        let p = g.input(id, 1).map(|i| pm.of(g, i.src)).unwrap_or(Bdd::TRUE);
                        Rate::Wave { hb, filter: pm.mgr.and(filter, p) }
                    }
                };
                rates.insert(Src::of(id), out);
            }
            k => {
                let r = unify_inputs(g, id, &rates);
                for port in 0..k.num_outputs() {
                    rates.insert(Src { node: id, port }, r);
                }
            }
        }
    }
    // Ring balance: every merge entry slot must deliver at most once per
    // execution of the merge's own loop — i.e. be sticky, once, or gated
    // by some predicate. An unfiltered per-wave stream floods the ring.
    for id in g.live_ids() {
        if !matches!(g.kind(id), NodeKind::Merge { .. }) {
            continue;
        }
        let mut has_entry = false;
        let mut has_back = false;
        let ring: Vec<NodeId> = (0..g.num_inputs(id))
            .filter_map(|p| g.input(id, p as u16).filter(|i| i.back).map(|i| i.src.node))
            .collect();
        for p in 0..g.num_inputs(id) {
            let Some(i) = g.input(id, p as u16) else { continue };
            if i.back {
                has_back = true;
                continue;
            }
            has_entry = true;
            if let Some(&Rate::Wave { hb, filter }) = rates.get(&i.src) {
                if filter == Bdd::TRUE {
                    let cycle: Vec<String> = ring.iter().map(|n| n.to_string()).collect();
                    let mut aux = vec![i.src.node];
                    aux.extend(ring.iter().copied());
                    diags.push(LintDiag {
                        rule: Rule::UngatedEntry,
                        node: id,
                        aux,
                        message: format!(
                            "merge {id} (hb{mhb}) entry slot {p} is fed every wave of hb{hb} \
                             by {src}, but the ring cycle {id} -> [{cyc}] -> {id} consumes one \
                             entry per execution: the channel floods and the circuit deadlocks",
                            mhb = g.hb(id),
                            src = i.src.node,
                            cyc = cycle.join(", "),
                        ),
                    });
                }
            }
        }
        if has_back && !has_entry {
            diags.push(LintDiag {
                rule: Rule::RateMismatch,
                node: id,
                aux: ring,
                message: format!(
                    "merge {id} (hb{}) has only back-edge inputs: it can never receive \
                     an initial value and starves its ring",
                    g.hb(id)
                ),
            });
        }
    }
}

/// Joins the rates of a node's non-back inputs. Sticky inputs adapt to
/// anything, and a once-delivered value latches on its wire, so it can
/// legally feed an operator firing every wave (rewrites routinely leave
/// loop bodies reading loop-invariant values straight from outside the
/// ring) — the join takes the *fastest* input stream. Only the handshake
/// elements — merge rings — can deadlock on rate imbalance, and those are
/// diagnosed at the merge-slot scan, not here.
fn unify_inputs(g: &Graph, id: NodeId, rates: &FxHashMap<Src, Rate>) -> Rate {
    let mut acc = Rate::Any;
    for p in 0..g.num_inputs(id) {
        let Some(i) = g.input(id, p as u16) else { continue };
        if i.back {
            continue;
        }
        let r = rates.get(&i.src).copied().unwrap_or(Rate::Any);
        acc = match (acc, r) {
            (Rate::Any, x) | (x, Rate::Any) => x,
            (Rate::Once, x) | (x, Rate::Once) => x,
            (Rate::Wave { .. }, Rate::Wave { .. }) => acc,
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{compile, lint_fresh};
    use pegasus::VClass;

    /// Reconstructs the PR 2 `loop_invariant` bug: rewire a ring entry
    /// from its gating eta straight to the value the eta steers. The
    /// feeder now produces once per wave of the outer region while the
    /// ring consumes once per execution.
    #[test]
    fn ungated_ring_entry_is_reported_with_its_cycle() {
        let (module, mut g) = compile(
            "int a[8]; int main(int n) { int s = 0; int i;
               for (i = 0; i < n; i = i + 1) {
                 int j;
                 for (j = 0; j < i; j = j + 1) { s = s + a[j]; }
               } return s; }",
        );
        assert!(lint_fresh(&module, &g).is_empty(), "clean nested loop must lint clean");
        // Find a merge whose entry is fed by an eta steering a per-wave
        // value of another hyperblock (an inner-ring entry), and bypass
        // the eta.
        let target = g
            .live_ids()
            .filter(|&id| {
                matches!(g.kind(id), NodeKind::Merge { .. })
                    && (0..g.num_inputs(id)).any(|p| g.input(id, p as u16).is_some_and(|i| i.back))
            })
            .find_map(|m| {
                (0..g.num_inputs(m)).find_map(|p| {
                    let i = g.input(m, p as u16)?;
                    if i.back || !matches!(g.kind(i.src.node), NodeKind::Eta { .. }) {
                        return None;
                    }
                    let steered = g.input(i.src.node, 0)?.src;
                    if matches!(g.kind(steered.node), NodeKind::Merge { .. })
                        && g.hb(steered.node) != g.hb(m)
                    {
                        Some((m, p as u16, steered))
                    } else {
                        None
                    }
                })
            })
            .expect("nested loop has an eta-gated ring entry steering a merge");
        let (merge, port, steered) = target;
        g.replace_input(merge, port, steered);
        let diags = lint_fresh(&module, &g);
        let hit = diags
            .iter()
            .find(|d| d.rule == Rule::UngatedEntry && d.node == merge)
            .unwrap_or_else(|| panic!("flooded ring entry must be flagged: {diags:?}"));
        // The diagnostic names the offending cycle: the feeder and the
        // ring's back steers.
        assert!(hit.aux.contains(&steered.node), "feeder named: {hit:?}");
        assert!(hit.aux.len() >= 2, "ring members named: {hit:?}");
        assert!(hit.message.contains("ring cycle"), "cycle described: {}", hit.message);
    }

    #[test]
    fn merge_with_only_back_edges_starves() {
        let (module, mut g) = compile(
            "int main(int n) { int s = 0; int i;
               for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        );
        // Sever a ring's entry: the merge keeps only its back edge.
        let merge = g
            .live_ids()
            .find(|&id| {
                matches!(g.kind(id), NodeKind::Merge { vc: VClass::Token, .. })
                    && (0..g.num_inputs(id)).any(|p| g.input(id, p as u16).is_some_and(|i| i.back))
            })
            .expect("loop token ring");
        for p in 0..g.num_inputs(merge) {
            if g.input(merge, p as u16).is_some_and(|i| !i.back) {
                g.disconnect(merge, p as u16);
            }
        }
        g.compact_inputs(merge);
        let diags = lint_fresh(&module, &g);
        assert!(
            diags.iter().any(|d| d.rule == Rule::RateMismatch && d.node == merge),
            "starved merge must be flagged: {diags:?}"
        );
        // The cut also severs token supply: reachability agrees.
        assert!(
            diags.iter().any(|d| d.rule == Rule::TokenUnreachable),
            "loop body ops lost their token supply: {diags:?}"
        );
    }

    #[test]
    fn flat_programs_have_no_wave_rates() {
        let (module, g) = compile("int g[4]; int main(int i) { g[0] = i; return g[0]; }");
        assert!(lint_fresh(&module, &g).is_empty());
    }
}
