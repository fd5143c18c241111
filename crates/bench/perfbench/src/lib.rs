//! End-to-end and per-layer benchmark of the fail-stutter toolkit.
//!
//! One binary, `perfbench`, runs one named workload for a fixed number of
//! wall-clock seconds and prints one JSON line of metrics:
//!
//! * `campaign` — the standard 360-cell oracle campaign on one worker;
//! * `lint` — one `fs-lint` pass over the live source tree.
//!
//! Every pass is checked ([`gate`]) before any of its timings is kept.
//! With `--trace 1` the same inputs also go through a layer-timed pass
//! ([`trace`], [`replica`]) that calls each crate's public functions from
//! this package and reports per-layer self times and counts. See
//! `README.md` next to this crate for the workload rationale, the
//! layer → metric → workload map and the baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod gate;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod replica;
pub mod stats;
pub mod trace;
pub mod workloads;
