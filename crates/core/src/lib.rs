//! The RTPB protocol: real-time primary-backup replication with temporal
//! consistency guarantees.
//!
//! This crate is the primary contribution of the reproduced paper (Zou &
//! Jahanian, ICDCS 1998): a passive replication service in which
//!
//! - a **client** periodically pushes fresh images of external-world
//!   objects to a **primary** server,
//! - the primary runs **admission control** ([`admission`], §4.2) so that
//!   every accepted object's temporal-consistency bounds are guaranteed,
//! - a decoupled scheduler transmits updates to a **backup** at periods
//!   derived from each object's consistency window ([`update_sched`],
//!   §4.3, Theorem 5),
//! - both servers exchange **heartbeats** ([`heartbeat`], §4.4) and the
//!   backup **takes over** when the primary dies ([`Backup::promote`]),
//! - lost updates are repaired by **backup-initiated retransmission**
//!   (§4.3) rather than per-update acknowledgements.
//!
//! The protocol cores ([`Primary`], [`Backup`]) are sans-io state
//! machines; drive them through the [`RtpbClient`] session facade (which
//! owns the deterministic simulation harness, [`harness::SimCluster`])
//! or the real-clock thread runtime in `rtpb-rt`. Both drivers count and
//! emit what the cores report through the same steps ([`telemetry`]).
//!
//! # Examples
//!
//! ```
//! use rtpb_core::{harness::ClusterConfig, RtpbClient};
//! use rtpb_types::{ObjectSpec, ReadConsistency, TimeDelta};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut client = RtpbClient::new(ClusterConfig::default());
//! let id = client.register(
//!     ObjectSpec::builder("altitude")
//!         .update_period(TimeDelta::from_millis(100))
//!         .primary_bound(TimeDelta::from_millis(150))
//!         .backup_bound(TimeDelta::from_millis(550))
//!         .build()?,
//! )?;
//! client.run_for(TimeDelta::from_secs(2));
//! // Replica reads come back with a staleness certificate (Theorem 5).
//! let outcome = client.read(id, ReadConsistency::Bounded(TimeDelta::from_millis(550)))?;
//! assert!(outcome.certificate().respects(TimeDelta::from_millis(550)));
//! assert_eq!(client.metrics().object_report(id).unwrap().backup_violations, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backup;
pub mod client;
pub mod config;
pub mod harness;
pub mod heartbeat;
pub mod integrity;
pub mod log;
pub mod metrics;
pub mod monitor;
pub mod name_service;
pub mod primary;
pub mod store;
mod table;
pub mod telemetry;
pub mod update_sched;
pub mod wire;

pub use backup::{Backup, BackupRead};
pub use client::RtpbClient;
pub use config::{ProtocolConfig, SchedulabilityTest, SchedulingMode};
pub use harness::{ClusterConfig, SimCluster};
pub use integrity::{IntegrityEvent, IntegritySource};
pub use metrics::{ClusterMetrics, ObjectReport};
pub use monitor::{MonitorEvent, TemporalMonitor, TimingViolation};
pub use primary::{Primary, PrimaryRead};
pub use wire::WireMessage;
