//! Hierarchical RAII timing spans over a thread-local stack.
//!
//! A [`Span`] guard times a region with the monotonic clock; nesting
//! depth is tracked per thread. Wrapping a region in [`capture`] collects
//! every span that *finishes* inside it into a flat `Vec<SpanRec>`
//! (completion order, with depth and start offset), which is what the
//! compiler attaches to `cash-stats-v1` records and feeds to the Perfetto
//! merger. Guards always read the clock — [`Span::end_us`] is the source
//! of truth for `opt.us`-style wall fields even when recording is off —
//! but capture buffers and flight notes are skipped unless
//! [`crate::enabled`] says otherwise.

use std::cell::RefCell;
use std::time::Instant;

use crate::flight;

/// One finished span inside a [`capture`] region. `start_us` is the
/// offset from the capture's start; `depth` is the nesting level at
/// entry (0 = outermost span inside the capture).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub depth: u16,
    pub start_us: u64,
    pub dur_us: u64,
}

struct Tls {
    /// Epoch of the active capture; `None` when not capturing.
    epoch: Option<Instant>,
    /// Unique id of the active capture (0 = none). Restored when a
    /// nested capture ends, so a guard records into the capture that was
    /// active at its entry — and is dropped silently if that capture is
    /// gone by the time the guard ends.
    id: u64,
    /// Id allocator for captures on this thread.
    next_id: u64,
    depth: u16,
    done: Vec<SpanRec>,
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls { epoch: None, id: 0, next_id: 1, depth: 0, done: Vec::new() })
    };
}

/// RAII guard for one timed region. Create with [`enter`]; the span ends
/// when the guard drops (or explicitly via [`Span::end_us`]).
pub struct Span {
    name: &'static str,
    start: Instant,
    /// Capture id + depth snapshotted at entry; recorded on exit only if
    /// the same capture is still the active one.
    capture_id: u64,
    depth: u16,
    start_us: u64,
    ended: bool,
    /// Entered with recording on — exits quietly otherwise.
    live: bool,
}

/// Opens a span named `name` at the current nesting depth.
pub fn enter(name: &'static str) -> Span {
    let start = Instant::now();
    let live = crate::enabled();
    let (capture_id, depth, start_us) = if live {
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let depth = t.depth;
            t.depth = t.depth.saturating_add(1);
            let start_us = t.epoch.map(|e| start.duration_since(e).as_micros() as u64);
            (t.id, depth, start_us)
        })
    } else {
        (0, 0, None)
    };
    Span { name, start, capture_id, depth, start_us: start_us.unwrap_or(0), ended: false, live }
}

impl Span {
    /// Ends the span now and returns its duration in microseconds. This
    /// is the one clock read shared by telemetry (`PassStat.wall_micros`,
    /// `SimResult.wall_us`) and the span record itself.
    pub fn end_us(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        if self.ended {
            return 0;
        }
        self.ended = true;
        let dur_us = self.start.elapsed().as_micros() as u64;
        if self.live {
            TLS.with(|t| {
                let mut t = t.borrow_mut();
                if t.id == self.capture_id {
                    t.depth = t.depth.saturating_sub(1);
                    if t.epoch.is_some() {
                        t.done.push(SpanRec {
                            name: self.name,
                            depth: self.depth,
                            start_us: self.start_us,
                            dur_us,
                        });
                    }
                }
            });
            flight::note("span", self.name, dur_us as i64, self.depth as i64);
        }
        dur_us
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Runs `f` with span capture active on this thread and returns its
/// result plus every span that finished inside, in completion order.
/// Captures nest: an inner capture takes over, and the outer one resumes
/// (without the inner's spans) when it returns.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRec>) {
    if !crate::enabled() {
        return (f(), Vec::new());
    }
    let saved = TLS.with(|t| {
        let mut t = t.borrow_mut();
        let saved = (t.epoch, t.id, t.depth, std::mem::take(&mut t.done));
        t.epoch = Some(Instant::now());
        t.id = t.next_id;
        t.next_id += 1;
        t.depth = 0;
        saved
    });
    let r = f();
    let done = TLS.with(|t| {
        let mut t = t.borrow_mut();
        let done = std::mem::take(&mut t.done);
        (t.epoch, t.id, t.depth, t.done) = saved;
        done
    });
    (r, done)
}

/// Renders spans as a JSON array of `[name, depth, start_us, dur_us]`
/// rows — the additive `spans` field of `cash-stats-v1`. Compact row
/// form keeps sweep lines short; key order concerns don't arise.
pub fn spans_to_json(spans: &[SpanRec]) -> String {
    let mut s = String::with_capacity(16 + spans.len() * 32);
    s.push('[');
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[\"{}\",{},{},{}]", sp.name, sp.depth, sp.start_us, sp.dur_us));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_nested_spans_in_completion_order() {
        crate::set_enabled(true);
        let ((), spans) = capture(|| {
            let outer = enter("outer");
            {
                let _inner = enter("inner");
            }
            outer.end_us();
        });
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].depth), ("inner", 1));
        assert_eq!((spans[1].name, spans[1].depth), ("outer", 0));
        assert!(spans[1].dur_us >= spans[0].dur_us);
    }

    #[test]
    fn spans_outside_capture_do_not_leak_in() {
        crate::set_enabled(true);
        let straddler = enter("straddler");
        let ((), spans) = capture(|| {
            drop(straddler);
            let _in = enter("in");
        });
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "in");
        // The thread-local depth is back to 0: a fresh capture nests from 0.
        let ((), again) = capture(|| {
            let _x = enter("x");
        });
        assert_eq!(again[0].depth, 0);
    }

    #[test]
    fn captures_nest() {
        crate::set_enabled(true);
        let ((), outer) = capture(|| {
            let _a = enter("a");
            let ((), inner) = capture(|| {
                let _b = enter("b");
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].name, "b");
        });
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].name, "a");
    }

    #[test]
    fn json_row_form() {
        let spans = vec![
            SpanRec { name: "compile", depth: 0, start_us: 0, dur_us: 42 },
            SpanRec { name: "opt", depth: 1, start_us: 5, dur_us: 10 },
        ];
        assert_eq!(spans_to_json(&spans), "[[\"compile\",0,0,42],[\"opt\",1,5,10]]");
        assert_eq!(spans_to_json(&[]), "[]");
    }

    #[test]
    fn disabled_spans_still_time() {
        crate::set_enabled(false);
        let s = enter("quiet");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(s.end_us() >= 1000);
        crate::set_enabled(true);
    }
}
