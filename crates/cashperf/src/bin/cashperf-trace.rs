//! `cashperf-trace`: the traced run of one workload.
//!
//! Takes the same arguments as `cashperf --workload`. Prints the per-layer
//! metrics as `cashperf` prints the end-to-end ones, writes the spans as
//! Chrome trace-event JSON and the per-layer totals as JSON to `cashperf/`
//! in the build's target directory, and exits with 1 if a replayed circuit
//! or result differed from `Compiler::compile` + `Program::simulate_on`.
//!
//! This binary, unlike `cashperf`, counts allocations.

use cashperf::{Args, USAGE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` needs. The counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller meets `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, which
        // is `System`, and the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() -> ExitCode {
    let (w, seed, seconds) = match Args::parse(std::env::args().skip(1)) {
        Ok(Args { workload: Some(w), seed, seconds, .. }) => (w, seed, seconds),
        Ok(_) => {
            eprintln!("cashperf-trace: runs one workload; give --workload\n{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("cashperf-trace: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let traced = cashperf::trace::run(w, seed, seconds, None, allocations);
    // <target>/release/cashperf-trace -> <target>/cashperf/
    let dir =
        std::env::current_exe().ok().and_then(|exe| Some(exe.parent()?.parent()?.join("cashperf")));
    if let Some(dir) = dir {
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(dir.join(format!("{}.trace.json", w.name())), &traced.chrome_json)?;
            std::fs::write(dir.join(format!("{}.layers.json", w.name())), &traced.layers_json)
        });
        match written {
            Ok(()) => eprintln!("cashperf-trace: spans and layers written to {}", dir.display()),
            Err(e) => eprintln!("cashperf-trace: cannot write to {}: {e}", dir.display()),
        }
    }
    traced.report.print();
    if traced.equivalent {
        ExitCode::SUCCESS
    } else {
        eprintln!("cashperf-trace: the replay differed from Compiler::compile");
        ExitCode::FAILURE
    }
}
