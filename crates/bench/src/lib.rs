//! Evaluation harness for the RTPB reproduction.
//!
//! One experiment per figure of the paper's §5, plus the design-choice
//! ablations called out in `DESIGN.md` and the theory-validation table.
//! The `figures` binary renders each experiment as the text table the
//! paper plots, and summarises exported JSONL traces. The `hotpath`
//! binary times the encode / decode / apply loop and gates it against
//! `BENCH_hotpath.json`.
//!
//! End-to-end throughput, the read fleet and recovery are measured by
//! the repository's benchmark, `perfbench/`, on its `stream`,
//! `read_fleet` and `failover` workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod hotpath;
pub mod table;
pub mod trace;

pub use experiments::{
    ablations, distance_vs_loss, distance_vs_objects, inconsistency_vs_loss,
    response_time_vs_objects, theory_validation, FigureDefaults,
};
pub use hotpath::{HotpathConfig, HotpathReport};
pub use table::Table;
pub use trace::TraceSummary;
