//! Always-on flight recorder: a fixed-capacity per-thread ring of recent
//! span/event records, rendered into failure reports.
//!
//! Recording a note is two array stores and a clock read — cheap enough
//! to leave on everywhere. [`dump`] renders the calling thread's ring
//! oldest-first; [`install_panic_hook`] arranges for the dump to be
//! printed to stderr (and stashed for [`last_dump`]) whenever a thread
//! panics, so crash reports in sweeps and tests carry their last-N-events
//! context without anyone asking for it.

use std::cell::RefCell;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Ring capacity per thread.
pub const CAPACITY: usize = 128;

/// One recorded event. `kind` and `what` are static tags (span name,
/// pass name, node label); `a`/`b` are free-form operands (durations,
/// cycle stamps, node ids) whose meaning follows from `kind`.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    pub seq: u64,
    pub t_us: u64,
    pub kind: &'static str,
    pub what: &'static str,
    pub a: i64,
    pub b: i64,
}

struct Ring {
    buf: Vec<Rec>,
    next: usize,
    seq: u64,
}

thread_local! {
    static RING: RefCell<Ring> =
        const { RefCell::new(Ring { buf: Vec::new(), next: 0, seq: 0 }) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Appends an event to this thread's ring (overwriting the oldest once
/// full). No-op when recording is disabled.
pub fn note(kind: &'static str, what: &'static str, a: i64, b: i64) {
    if !crate::enabled() {
        return;
    }
    let t_us = epoch().elapsed().as_micros() as u64;
    RING.with(|r| {
        // try_borrow: a panic hook reading the ring while unwinding must
        // never double-panic on a re-entrant borrow.
        if let Ok(mut r) = r.try_borrow_mut() {
            let rec = Rec { seq: r.seq, t_us, kind, what, a, b };
            r.seq += 1;
            if r.buf.len() < CAPACITY {
                r.buf.push(rec);
            } else {
                let i = r.next;
                r.buf[i] = rec;
            }
            r.next = (r.next + 1) % CAPACITY;
        }
    });
}

/// Renders this thread's ring oldest-first, one `seq t_us kind what a b`
/// line per record. Empty string when nothing was recorded.
pub fn dump() -> String {
    RING.with(|r| {
        let Ok(r) = r.try_borrow() else {
            return String::new();
        };
        let n = r.buf.len();
        let mut s = String::new();
        if n == 0 {
            return s;
        }
        s.push_str(&format!("flight recorder ({n} most recent events, oldest first):\n"));
        let start = if n < CAPACITY { 0 } else { r.next };
        for i in 0..n {
            let rec = &r.buf[(start + i) % n.max(1)];
            s.push_str(&format!(
                "  #{} +{}us {} {} a={} b={}\n",
                rec.seq, rec.t_us, rec.kind, rec.what, rec.a, rec.b
            ));
        }
        s
    })
}

/// Clears this thread's ring (tests).
pub fn clear() {
    RING.with(|r| {
        if let Ok(mut r) = r.try_borrow_mut() {
            r.buf.clear();
            r.next = 0;
        }
    });
}

fn last_dump_slot() -> &'static Mutex<Option<String>> {
    static SLOT: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// The flight dump captured by the panic hook at the most recent panic,
/// if any. Used by tests and by harnesses that catch unwinds.
pub fn last_dump() -> Option<String> {
    last_dump_slot().lock().unwrap().clone()
}

/// Installs (once) a panic hook that renders the panicking thread's
/// flight ring to stderr and stashes it for [`last_dump`], then chains to
/// the previous hook. Idempotent; safe to call from every binary's main.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let d = dump();
            if !d.is_empty() {
                if let Ok(mut slot) = last_dump_slot().lock() {
                    *slot = Some(d.clone());
                }
                eprintln!("{d}");
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_dumps_oldest_first() {
        crate::set_enabled(true);
        clear();
        for i in 0..(CAPACITY as i64 + 10) {
            note("evt", "tick", i, 0);
        }
        let d = dump();
        assert!(d.contains(&format!("({CAPACITY} most recent events")));
        // Oldest surviving record is #10, newest is #CAPACITY+9.
        assert!(d.contains("#10 "));
        assert!(!d.contains("#9 "));
        let last = d.lines().last().unwrap();
        assert!(last.contains(&format!("#{}", CAPACITY as i64 + 9)), "{last}");
        clear();
        assert!(dump().is_empty());
    }

    #[test]
    fn panic_hook_captures_the_ring() {
        crate::set_enabled(true);
        install_panic_hook();
        let res = std::panic::catch_unwind(|| {
            note("evt", "doomed", 42, 0);
            panic!("boom");
        });
        assert!(res.is_err());
        let d = last_dump().expect("panic hook should stash a dump");
        assert!(d.contains("doomed"));
    }
}
