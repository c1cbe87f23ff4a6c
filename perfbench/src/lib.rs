//! Control-loop benchmark for fvsst.
//!
//! One command runs a named workload with a seed and prints the
//! end-to-end metrics (or, traced, the per-layer ones) as one JSON line.
//! The workloads drive the program through its public APIs only and
//! time each call from outside; see `NOTES.md` for why each exists.

pub mod checks;
pub mod fleet;
pub mod loopback;
pub mod report;
pub mod sys;
pub mod trace;

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["fleet-10k", "loopback-quiet", "loopback-burst"];
