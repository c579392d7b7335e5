//! obs: the pipeline-wide observability runtime.
//!
//! Every other layer of the reproduction — the MiniC frontend, CFG
//! construction, the optimizer's pass manager, the static lint, the
//! simulator, the differential harness and the bench binaries — reports
//! into this one dependency-free crate. It provides three services:
//!
//! - **Spans** ([`span`]): hierarchical RAII timing guards over a
//!   thread-local stack. A [`span::capture`] around a pipeline run
//!   collects the finished spans (name, depth, start, duration) so the
//!   compile→opt→lint→sim chain can be exported as additive
//!   `cash-stats-v1` fields and merged into a Perfetto timeline.
//! - **Flight recorder** ([`flight`]): an always-on fixed-capacity ring
//!   of recent span/event records per thread, dumped automatically on
//!   panic (via [`flight::install_panic_hook`]) and embedded by hand in
//!   deadlock diagnoses, lint hard errors and oracle mismatches — every
//!   failure report carries its last-N-events context.
//! - **Exporters** ([`perfetto`], [`stream`], [`vcd`]): compiler spans
//!   rendered as Chrome trace events mergeable into the simulator's
//!   existing trace JSON, a line-buffered JSONL sink
//!   (`CASH_STATS_STREAM`) that lets `cashtop` tail a live sweep, and
//!   the VCD writer behind `cashwave`.
//!
//! # Overhead discipline
//!
//! Recording is gated on [`enabled`] (default on; switched per process
//! with [`set_enabled`]). Span guards always read the monotonic clock so
//! wall-time telemetry (`opt.us`, `sim.us`) stays populated even with
//! recording off; capture buffers and flight notes are skipped when
//! disabled. The `obs_smoke` bench binary A/B-tests enabled vs. disabled
//! in one process and gates the delta at 3%.

pub mod flight;
pub mod perfetto;
pub mod span;
pub mod stream;
pub mod vcd;

pub use span::{spans_to_json, SpanRec};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is recording on? On by default; see [`set_enabled`].
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Forces recording on or off for the whole process — the in-process A/B
/// switch used by the `obs_smoke` overhead gate, `cashperf-trace`'s
/// on/off differential, and tests.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kill_switch_toggles() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
