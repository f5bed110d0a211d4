//! Real-clock, thread-based RTPB runtime.
//!
//! The same sans-io protocol cores that power the deterministic simulation
//! ([`rtpb_core::Primary`], [`rtpb_core::Backup`]) driven by OS threads,
//! channels, and the wall clock — evidence that nothing in the protocol
//! depends on simulation. The paper's prototype ran as threads on
//! the MK 7.2 microkernel; this is the equivalent on a modern OS.
//!
//! Topology (one process): a primary and `N` backups, one thread each,
//! plus a client thread and an optional reader thread.
//!
//! ```text
//!                      ┌──▶ node 1 (backup) ──┐
//! client ──writes──▶ node 0 (primary)          ├─ heartbeats, requests ─▶ primary
//!   (name service)     └──▶ node N (backup) ──┘
//! ```
//!
//! - **One driver.** Each node thread runs one loop over the shared
//!   [`rtpb_core::steps`] — the simulator's per-host reactions — and
//!   moves between primary, backup and down. Its one
//!   [`rtpb_sim::EventQueue`] holds its timers and the frames in flight
//!   to it.
//! - **Ids.** As in the simulator, the primary is node 0 and the backups
//!   are nodes 1 to `N`; the reader takes node `N + 1`.
//! - **Failover.** The [`NameService`](rtpb_core::name_service::NameService)
//!   decides which node serves; the client sends every write there. The
//!   first backup to declare the primary dead while the name still binds
//!   it rebinds the name to itself and promotes; every other backup
//!   re-joins the new primary.
//! - **Links.** Every frame's fate — loss, duplication, reordering,
//!   corruption, bursts — is drawn from [`rtpb_net::LossyLink`] at send
//!   time, on the data or control lane
//!   [`WireMessage::rides_data_link`] names, as in the simulator. A
//!   corrupted arrival carries its flipped bit to the receiver's CRC
//!   check.
//!
//! [`RtConfig`] is a simulator [`ClusterConfig`](rtpb_core::ClusterConfig)
//! plus the objects to register and the reader's cadence. The fault plan
//! runs at wall-clock offsets. [`RtCluster::run`] refuses, with a typed
//! [`RtError`], what it cannot execute rather than ignore it: an invalid
//! configuration, zero backups, `recruit_backup_after`, and every fault
//! other than `CrashPrimary`, and `CrashBackup`, `RecoverBackup` and
//! `RestartBackup` on an existing host — so no split brain, partitions,
//! clock faults, link-window faults or loss knobs.
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
//! config.cluster.num_backups = 2;
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

mod runtime;

pub use runtime::{RtCluster, RtConfig, RtError, RtReport};
