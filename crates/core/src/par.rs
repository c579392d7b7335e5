//! Minimal data-parallel sweep infrastructure.
//!
//! The build container has no network access, so instead of `rayon` this
//! module provides a self-contained scoped-thread work-stealing map: the
//! benchmark figure sweeps (kernels × memory systems × levels) and the
//! differential-harness corpora (seeds × levels) are embarrassingly
//! parallel, and a shared atomic cursor over the task list is all the
//! scheduling they need.
//!
//! Results are returned **in input order** regardless of which worker ran
//! which task, so callers' output (tables, `BENCH_*.json` telemetry lines,
//! golden files) stays byte-stable under any thread count.
//!
//! Thread count: `CASH_THREADS` if set (use `CASH_THREADS=1` for
//! reproducible wall-clock timing or flat single-threaded profiles),
//! otherwise the number of available cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a parallel sweep will use: `CASH_THREADS` when
/// set (clamped to at least 1), otherwise [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    match std::env::var("CASH_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Applies `f` to every item, in parallel, returning results in input
/// order. Panics in workers are propagated to the caller (the first
/// panic's payload is re-raised after all threads stop picking up work).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Tasks are claimed through a shared cursor; each worker tags results
    // with the input index so the merged output order is deterministic.
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = tasks[i].lock().expect("task slot").take().expect("task taken once");
                    local.push((i, f(item)));
                }
                local
            }));
        }
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(p) => {
                    // Park the cursor past the end so siblings stop
                    // claiming work, then re-raise the first panic.
                    cursor.store(n, Ordering::Relaxed);
                    panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
    slots.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let out = par_map((0..257i64).collect(), |x| x * x);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as i64);
        }
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(par_map(Vec::<i64>::new(), |x| x), Vec::<i64>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panics_propagate() {
        let r = std::panic::catch_unwind(|| {
            par_map((0..64i64).collect(), |x| {
                assert!(x != 33, "boom");
                x
            })
        });
        assert!(r.is_err(), "a worker panic must reach the caller");
    }
}
