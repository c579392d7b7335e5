//! Cycle-accurate waveform capture: a compressed columnar change-list
//! store fed by the executor's delivery/fire hooks, exportable as VCD.
//!
//! # Capture model
//!
//! When [`SimConfig::waves`](crate::SimConfig) is on, the executor calls
//! into a [`WaveState`] at five hook points:
//!
//! - **value** — at delivery, per flat *output* port: recorded only when
//!   the value differs from the last recorded one (a change list, not a
//!   sample list);
//! - **occupancy** — per flat *input* port, on every FIFO push and pop;
//! - **fire** — per node, the cycle of every successful firing;
//! - **stall** — per node, transitions of the classified stall cause
//!   (0 = not stalled, then [`StallCause`] codes), deduplicated;
//! - **pred** — per node with a predicate input (eta, load, store,
//!   return), the popped predicate outcome, deduplicated.
//!
//! Each signal owns one append-only vector ("one change vector per
//! signal"), slot-indexed off the same dense flat-port ids as the
//! `PortFifos` slab — no maps, no per-event allocation beyond the vector
//! growth itself. Because the pinned `(cycle, seq)` delivery order leaves
//! no scheduler nondeterminism, the capture — and the VCD it renders — is
//! **byte-stable** across runs (asserted by the `tests/waves.rs` goldens).
//!
//! # VCD rendering
//!
//! [`Wave::to_vcd`] renders through [`obs::vcd::VcdWriter`] with a scope
//! tree mirroring hyperblocks (`hb0`, `hb1_loop`, …, `global`) and
//! per-node variables named off [`pegasus::name::node_stem`]:
//! `<stem>_out<p>` (64-bit value), `<stem>_in<p>_occ` (8-bit occupancy),
//! `<stem>_fire` (32-bit cumulative fire counter), `<stem>_stall` (3-bit
//! cause code) and `<stem>_pred` (1-bit). One simulator cycle maps to one
//! `1ns` tick.

use std::fmt::Write as _;

use pegasus::{FlatPorts, Graph, NodeId, NodeKind};

use crate::profile::StallCause;

/// Stall-cause code as stored in the stall change lists: 0 = not stalled.
pub fn stall_code(cause: Option<StallCause>) -> u8 {
    match cause {
        None => 0,
        Some(StallCause::DataInput) => 1,
        Some(StallCause::PredInput) => 2,
        Some(StallCause::TokenInput) => 3,
        Some(StallCause::LsqPort) => 4,
        Some(StallCause::OutputSpace) => 5,
    }
}

/// Human label for a stall code (for `cashdbg` and the diagnose tail).
pub fn stall_label(code: u8) -> &'static str {
    match code {
        0 => "ready",
        1 => "data",
        2 => "pred",
        3 => "token",
        4 => "lsq",
        5 => "output",
        _ => "?",
    }
}

/// A completed waveform capture: columnar per-signal change lists.
///
/// Indices follow the simulator's dense port numbering: value lists by
/// flat output-port id, occupancy lists by flat input-port id, the rest
/// by node index. Accessors return an empty slice for out-of-range
/// indices so callers need not special-case waves-off results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wave {
    pub(crate) out_changes: Vec<Vec<(u64, i64)>>,
    pub(crate) occ_changes: Vec<Vec<(u64, u16)>>,
    pub(crate) fire_cycles: Vec<Vec<u64>>,
    pub(crate) stall_changes: Vec<Vec<(u64, u8)>>,
    pub(crate) pred_changes: Vec<Vec<(u64, u8)>>,
    pub(crate) cycles: u64,
    pub(crate) changes: u64,
}

impl Wave {
    /// Total recorded change-list entries across all signals.
    pub fn num_changes(&self) -> u64 {
        self.changes
    }

    /// Number of signals that recorded at least one change.
    pub fn num_signals(&self) -> usize {
        self.out_changes.iter().filter(|v| !v.is_empty()).count()
            + self.occ_changes.iter().filter(|v| !v.is_empty()).count()
            + self.fire_cycles.iter().filter(|v| !v.is_empty()).count()
            + self.stall_changes.iter().filter(|v| !v.is_empty()).count()
            + self.pred_changes.iter().filter(|v| !v.is_empty()).count()
    }

    /// Final simulated cycle of the capture.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Value changes of a flat output port: `(cycle, value)`.
    pub fn out_list(&self, oid: usize) -> &[(u64, i64)] {
        self.out_changes.get(oid).map_or(&[], |v| v)
    }

    /// Occupancy changes of a flat input port: `(cycle, depth)`.
    pub fn occ_list(&self, fp: usize) -> &[(u64, u16)] {
        self.occ_changes.get(fp).map_or(&[], |v| v)
    }

    /// Cycles at which a node fired.
    pub fn fire_list(&self, node: usize) -> &[u64] {
        self.fire_cycles.get(node).map_or(&[], |v| v)
    }

    /// Stall-state transitions of a node: `(cycle, code)`, see
    /// [`stall_code`].
    pub fn stall_list(&self, node: usize) -> &[(u64, u8)] {
        self.stall_changes.get(node).map_or(&[], |v| v)
    }

    /// Predicate outcomes popped by a node: `(cycle, 0|1)`, deduplicated.
    pub fn pred_list(&self, node: usize) -> &[(u64, u8)] {
        self.pred_changes.get(node).map_or(&[], |v| v)
    }

    /// The `"waves"` section of `cash-stats-v1` (stable key order, no
    /// whitespace).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"signals\":{},\"changes\":{},\"cycles\":{}}}",
            self.num_signals(),
            self.changes,
            self.cycles
        )
    }

    /// Renders the capture as a byte-stable VCD document for `g` — the
    /// graph this capture was recorded against.
    pub fn to_vcd(&self, g: &Graph) -> String {
        let flat = FlatPorts::new(g);
        let mut w = obs::vcd::VcdWriter::new("cash-wavecap-v1", "1ns");
        // (list kind, list index, var) triples gathered during declaration
        // so the change pass replays them in declaration order — ties at
        // the same timestamp then resolve identically on every render.
        let mut emits: Vec<(u8, usize, obs::vcd::VarId)> = Vec::new();
        w.scope("cash");
        for (scope, nodes) in pegasus::name::scoped_nodes(g) {
            w.scope(&scope);
            for id in nodes {
                let stem = pegasus::name::node_stem(g, id);
                let kind = g.kind(id);
                for p in 0..kind.num_outputs() {
                    let v = w.var(&format!("{stem}_out{p}"), 64);
                    emits.push((0, flat.out_id(id, p) as usize, v));
                }
                for p in 0..g.num_inputs(id) as u16 {
                    let v = w.var(&format!("{stem}_in{p}_occ"), 8);
                    emits.push((1, flat.in_id(id, p) as usize, v));
                }
                let v = w.var(&format!("{stem}_fire"), 32);
                emits.push((2, id.index(), v));
                let v = w.var(&format!("{stem}_stall"), 3);
                emits.push((3, id.index(), v));
                if matches!(
                    kind,
                    NodeKind::Eta { .. }
                        | NodeKind::Load { .. }
                        | NodeKind::Store { .. }
                        | NodeKind::Return { .. }
                ) {
                    let v = w.var(&format!("{stem}_pred"), 1);
                    emits.push((4, id.index(), v));
                }
            }
            w.upscope();
        }
        w.upscope();
        for (kind, idx, var) in emits {
            match kind {
                0 => {
                    for &(t, val) in self.out_list(idx) {
                        w.change(t, var, val as u64);
                    }
                }
                1 => {
                    for &(t, occ) in self.occ_list(idx) {
                        w.change(t, var, u64::from(occ));
                    }
                }
                2 => {
                    for (i, &t) in self.fire_list(idx).iter().enumerate() {
                        w.change(t, var, i as u64 + 1);
                    }
                }
                3 => {
                    for &(t, code) in self.stall_list(idx) {
                        w.change(t, var, u64::from(code));
                    }
                }
                _ => {
                    for &(t, p) in self.pred_list(idx) {
                        w.change(t, var, u64::from(p));
                    }
                }
            }
        }
        w.render()
    }

    /// The last-32-cycles activity report appended to deadlock diagnoses:
    /// for each blocked node, the recent occupancy changes on its input
    /// ports and the recent value changes on the producing outputs.
    pub(crate) fn tail_report(
        &self,
        g: &Graph,
        flat: &FlatPorts,
        blocked: &[NodeId],
        now: u64,
        window: u64,
    ) -> String {
        let since = now.saturating_sub(window);
        let mut s = format!("wave tail (cycles {since}..{now}) on blocked inputs:\n");
        for &id in blocked {
            for p in 0..g.num_inputs(id) as u16 {
                let fp = flat.in_id(id, p) as usize;
                let occ: Vec<_> = self.occ_list(fp).iter().filter(|(t, _)| *t >= since).collect();
                let Some(input) = g.input(id, p) else { continue };
                let oid = flat.out_id(input.src.node, input.src.port) as usize;
                let vals: Vec<_> = self.out_list(oid).iter().filter(|(t, _)| *t >= since).collect();
                let _ = write!(s, "  {id}.in{p} <- {}.out{}: ", input.src.node, input.src.port);
                if occ.is_empty() && vals.is_empty() {
                    s.push_str("quiet\n");
                    continue;
                }
                s.push_str("occ[");
                for (i, (t, d)) in occ.iter().enumerate() {
                    let _ = write!(s, "{}c{t}:{d}", if i > 0 { " " } else { "" });
                }
                s.push_str("] val[");
                for (i, (t, v)) in vals.iter().enumerate() {
                    let _ = write!(s, "{}c{t}:{v}", if i > 0 { " " } else { "" });
                }
                s.push_str("]\n");
            }
        }
        s
    }
}

/// The live recorder owned by an executor. All hooks are branch-free on
/// the happy path and are only reached behind the executor's single
/// `waves_on` test, so the waves-off cost is one predictable branch per
/// hook site (gated by the `obs_smoke` noise-floor check).
#[derive(Debug, Clone, Default)]
pub(crate) struct WaveState {
    w: Wave,
}

impl WaveState {
    /// Recorder with capacity for the graph's flat geometry.
    pub(crate) fn new(num_out: usize, num_in: usize, nodes: usize) -> WaveState {
        WaveState {
            w: Wave {
                out_changes: vec![Vec::new(); num_out],
                occ_changes: vec![Vec::new(); num_in],
                fire_cycles: vec![Vec::new(); nodes],
                stall_changes: vec![Vec::new(); nodes],
                pred_changes: vec![Vec::new(); nodes],
                cycles: 0,
                changes: 0,
            },
        }
    }

    /// Zero-capacity recorder for waves-off runs; hooks must not be
    /// reached (they would index out of bounds), matching `CritState`'s
    /// discipline.
    pub(crate) fn off() -> WaveState {
        WaveState::default()
    }

    #[inline]
    pub(crate) fn record_out(&mut self, oid: usize, t: u64, value: i64) {
        let list = &mut self.w.out_changes[oid];
        if list.last().map(|&(_, v)| v) != Some(value) {
            list.push((t, value));
            self.w.changes += 1;
        }
    }

    #[inline]
    pub(crate) fn record_occ_push(&mut self, fp: usize, t: u64) {
        let list = &mut self.w.occ_changes[fp];
        let occ = list.last().map_or(0, |&(_, d)| d) + 1;
        list.push((t, occ));
        self.w.changes += 1;
    }

    #[inline]
    pub(crate) fn record_occ_pop(&mut self, fp: usize, t: u64) {
        let list = &mut self.w.occ_changes[fp];
        let occ = list.last().map_or(0, |&(_, d)| d).saturating_sub(1);
        list.push((t, occ));
        self.w.changes += 1;
    }

    #[inline]
    pub(crate) fn record_fire(&mut self, node: usize, t: u64) {
        self.w.fire_cycles[node].push(t);
        self.w.changes += 1;
    }

    #[inline]
    pub(crate) fn record_stall(&mut self, node: usize, t: u64, code: u8) {
        let list = &mut self.w.stall_changes[node];
        if list.last().map_or(0, |&(_, c)| c) != code {
            list.push((t, code));
            self.w.changes += 1;
        }
    }

    #[inline]
    pub(crate) fn record_pred(&mut self, node: usize, t: u64, pred: bool) {
        let list = &mut self.w.pred_changes[node];
        let p = u8::from(pred);
        if list.last().map(|&(_, c)| c) != Some(p) {
            list.push((t, p));
            self.w.changes += 1;
        }
    }

    pub(crate) fn wave(&self) -> &Wave {
        &self.w
    }

    /// Packages the capture at end of run, stamping the final cycle.
    pub(crate) fn into_wave(mut self, cycles: u64) -> Wave {
        self.w.cycles = cycles;
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_changes_deduplicate() {
        let mut st = WaveState::new(1, 1, 1);
        st.record_out(0, 1, 5);
        st.record_out(0, 2, 5);
        st.record_out(0, 3, 6);
        st.record_out(0, 4, 5);
        let w = st.into_wave(10);
        assert_eq!(w.out_list(0), &[(1, 5), (3, 6), (4, 5)]);
        assert_eq!(w.num_changes(), 3);
        assert_eq!(w.cycles(), 10);
    }

    #[test]
    fn occupancy_tracks_depth() {
        let mut st = WaveState::new(0, 1, 0);
        st.record_occ_push(0, 1);
        st.record_occ_push(0, 2);
        st.record_occ_pop(0, 3);
        let w = st.into_wave(3);
        assert_eq!(w.occ_list(0), &[(1, 1), (2, 2), (3, 1)]);
    }

    #[test]
    fn stall_transitions_deduplicate_and_start_ready() {
        let mut st = WaveState::new(0, 0, 1);
        st.record_stall(0, 1, 0); // ready → ready: not a transition
        st.record_stall(0, 2, 1);
        st.record_stall(0, 3, 1);
        st.record_stall(0, 4, 0);
        let w = st.into_wave(4);
        assert_eq!(w.stall_list(0), &[(2, 1), (4, 0)]);
    }

    #[test]
    fn out_of_range_accessors_are_empty() {
        let w = Wave::default();
        assert!(w.out_list(3).is_empty());
        assert!(w.fire_list(0).is_empty());
        assert_eq!(w.num_signals(), 0);
        assert_eq!(w.summary_json(), "{\"signals\":0,\"changes\":0,\"cycles\":0}");
    }

    #[test]
    fn stall_codes_round_trip_labels() {
        assert_eq!(stall_code(None), 0);
        assert_eq!(stall_code(Some(StallCause::OutputSpace)), 5);
        assert_eq!(stall_label(4), "lsq");
    }
}
