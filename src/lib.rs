//! # RTPB: Real-Time Primary-Backup Replication with Temporal Consistency
//!
//! A from-scratch Rust reproduction of Zou & Jahanian, *"Real-Time
//! Primary-Backup (RTPB) Replication with Temporal Consistency Guarantees"*
//! (ICDCS 1998).
//!
//! This facade crate re-exports the workspace crates so downstream users can
//! depend on a single `rtpb` crate:
//!
//! - [`types`] — time newtypes, ids, object model, temporal constraints.
//! - [`sim`] — deterministic discrete-event simulation kernel.
//! - [`sched`] — real-time scheduling theory and executors: Rate Monotonic,
//!   EDF, Distance-Constrained (pinwheel) scheduling, phase-variance bounds,
//!   and the paper's consistency conditions (Lemmas 1–3, Theorems 1–6).
//! - [`net`] — the lossy bounded-delay link model.
//! - [`obs`] — structured observability: typed protocol events, a ring-buffer
//!   event bus, a metrics registry, and JSONL export.
//! - [`core`] — the RTPB protocol itself: admission control, primary/backup
//!   state machines, update scheduling, failure detection, and failover.
//! - [`rt`] — a real-clock, thread-based runtime driving the same protocol
//!   cores.
//!
//! ## Quickstart
//!
//! All client traffic goes through one session object, [`RtpbClient`]:
//! writes route to the serving primary through the name service, reads
//! are answered locally by backup replicas under a chosen
//! [`ReadConsistency`] level, and every reply carries a
//! [`StalenessCertificate`] bounding how stale the value can be.
//!
//! ```rust
//! use rtpb::core::harness::ClusterConfig;
//! use rtpb::{ReadConsistency, RtpbClient};
//! use rtpb::types::{ObjectSpec, TimeDelta};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One primary, one backup, a 10 ms delay bound, no message loss.
//! let mut client = RtpbClient::new(ClusterConfig::default());
//!
//! // Register an object updated every 100 ms with a 150 ms consistency
//! // window at the primary and 550 ms at the backup.
//! let spec = ObjectSpec::builder("altitude")
//!     .update_period(TimeDelta::from_millis(100))
//!     .primary_bound(TimeDelta::from_millis(150))
//!     .backup_bound(TimeDelta::from_millis(550))
//!     .build()?;
//! let id = client.register(spec)?;
//!
//! // Drive the cluster for two simulated seconds of periodic writes,
//! // then read from a replica within the consistency window.
//! client.run_for(TimeDelta::from_secs(2));
//! let outcome = client.read(id, ReadConsistency::Bounded(TimeDelta::from_millis(550)))?;
//! assert!(outcome.certificate().respects(TimeDelta::from_millis(550)));
//!
//! // The backup never fell outside its consistency window.
//! let report = client.metrics().object_report(id).expect("registered");
//! assert_eq!(report.backup_violations, 0);
//! # Ok(())
//! # }
//! ```

pub use rtpb_core as core;
pub use rtpb_net as net;
pub use rtpb_obs as obs;
pub use rtpb_rt as rt;
pub use rtpb_sched as sched;
pub use rtpb_sim as sim;
pub use rtpb_types as types;

pub use rtpb_core::RtpbClient;
pub use rtpb_types::{
    ReadConsistency, ReadError, ReadOutcome, SessionToken, StalenessCertificate, WriteError,
};
