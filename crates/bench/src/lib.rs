//! Benchmark harnesses: see the `bin` targets for table/figure
//! regeneration and the debugging tools built on the same pipeline.

pub mod harness;
