//! Structured observability for the RTPB workspace.
//!
//! The paper's entire evaluation (§5) is built on observing protocol
//! internals — response times, primary–backup distance, inconsistency
//! windows. This crate is the substrate those observations ride on, in
//! simulation and in the real-clock runtime alike:
//!
//! - **Typed events** ([`EventKind`], [`ObsEvent`]): a closed taxonomy of
//!   the hot protocol paths — update send/apply, heartbeat send/miss,
//!   failover role transitions, admission decisions, scheduler
//!   invocations, fault-plan lifecycles, link faults.
//! - **Event bus** ([`EventBus`], [`EventWriter`]): ring-buffer backed,
//!   lock-light (one uncontended mutex per writer), with per-thread
//!   writers for the thread runtime and a single writer for the
//!   single-threaded simulator. Disabled buses cost one branch per emit.
//! - **Metrics registry** ([`MetricsRegistry`]): monotonic [`Counter`]s
//!   and fixed-bucket latency [`Histogram`]s over virtual or real
//!   nanoseconds, snapshot-table and JSONL exportable. There are no
//!   gauges: every registry figure is a count or a latency. A counting
//!   writer ([`EventWriter::counting`]) folds each event into the
//!   `cluster.*` instrument that mirrors its kind, so those counts agree
//!   with the trace by construction.
//! - **JSONL export** ([`EventBus::export_jsonl`], [`validate_line`]):
//!   dependency-free flat-JSON lines with a schema validator, consumed by
//!   the bench harness and the CI observability smoke job.
//!
//! # Clock domains
//!
//! Every event is stamped with a [`ClockDomain`]: `Virtual` timestamps
//! come from the discrete-event simulator and are exactly reproducible
//! from the seed; `Real` timestamps come from the thread runtime's
//! monotonic clock. Consumers must not compare instants across domains.
//!
//! # Examples
//!
//! ```
//! use rtpb_obs::{ClockDomain, EventBus, EventKind, MetricsRegistry};
//! use rtpb_types::{NodeId, ObjectId, Time, Version};
//!
//! let bus = EventBus::with_capacity(1024);
//! let writer = bus.writer();
//! writer.emit(
//!     ClockDomain::Virtual,
//!     Time::from_millis(100),
//!     EventKind::UpdateApplied {
//!         object: ObjectId::new(0),
//!         version: Version::new(1),
//!         node: NodeId::new(1),
//!     },
//! );
//!
//! let jsonl = bus.export_jsonl();
//! for line in jsonl.lines() {
//!     rtpb_obs::validate_line(line).expect("schema-valid");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod event;
mod fold;
pub mod json;
mod registry;

pub use bus::{EventBus, EventWriter};
pub use event::{validate_line, ClockDomain, EventKind, ObsEvent, Role, SchemaError};
pub use registry::{Counter, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
