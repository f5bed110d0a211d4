//! Real-clock, thread-based RTPB runtime.
//!
//! The same sans-io protocol cores that power the deterministic simulation
//! ([`rtpb_core::Primary`], [`rtpb_core::Backup`]) driven by OS threads,
//! hand-rolled MPMC channels, and the wall clock — evidence that nothing in the
//! protocol depends on simulation. The paper's prototype ran as threads on
//! the MK 7.2 microkernel; this is the equivalent on a modern OS.
//!
//! Topology (one process, three threads plus two link threads):
//!
//! ```text
//! client thread ──writes──▶ primary thread ══lossy link══▶ backup thread
//!                                  ◀══════lossy link══════════╛
//! ```
//!
//! The client channel is MPMC: when the backup promotes itself after the
//! primary's death, it simply starts consuming client writes — that is the
//! failover.
//!
//! Each direction is a lossy data link plus a lossless control link; a
//! frame takes the one [`WireMessage::rides_data_link`] names, as in the
//! simulator. Counters and events come from the same telemetry steps the
//! simulator runs ([`rtpb_core::telemetry`]).
//!
//! [`WireMessage::rides_data_link`]: rtpb_core::wire::WireMessage::rides_data_link
//!
//! # Examples
//!
//! ```no_run
//! use rtpb_rt::{RtCluster, RtConfig};
//! use rtpb_types::{ObjectSpec, TimeDelta};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut config = RtConfig::default();
//! config.objects.push(
//!     ObjectSpec::builder("altitude")
//!         .update_period(TimeDelta::from_millis(50))
//!         .primary_bound(TimeDelta::from_millis(100))
//!         .backup_bound(TimeDelta::from_millis(400))
//!         .build()?,
//! );
//! let report = RtCluster::run(config, Duration::from_secs(1))?;
//! assert!(report.writes > 0);
//! assert!(report.updates_applied > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chan;
mod link;
mod runtime;

pub use link::spawn_link;
pub use runtime::{RtCluster, RtConfig, RtError, RtReport};
