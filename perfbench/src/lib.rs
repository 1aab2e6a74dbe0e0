//! `perfbench`: the KaPPa-rs benchmark.
//!
//! One command builds a workload's input from a seed, partitions it through
//! the public drivers for a fixed time, checks every output and prints the
//! end-to-end metrics. `--trace 1` instead replays the driver's phase
//! sequence with a span around each layer's public functions, checks that
//! the replay reproduces the driver bit for bit, and prints per-layer
//! metrics. See `perfbench/README.md` for the catalogue.

#![forbid(unsafe_code)]

pub mod check;
pub mod json;
pub mod replay;
pub mod run;
pub mod sysinfo;
pub mod trace;
pub mod workload;
