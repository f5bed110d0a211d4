//! The simulation harness: a full RTPB cluster in virtual time.
//!
//! [`SimCluster`] is the main entry point for experiments and tests; see
//! its docs for a runnable example. [`CpuQueue`] models the primary
//! host's processor, which is what makes the admission-control figures
//! (6/7 and 9/10 in the paper) reproducible: with admission disabled the
//! update workload saturates the CPU and client response times diverge.

mod cluster;
mod cpu;
mod faults;

pub use crate::steps::MAX_DATAGRAM_BYTES;
pub use cluster::{ClusterConfig, SimCluster};
pub use cpu::{CpuQueue, Work};
pub use faults::{FaultEvent, FaultLedger, FaultPlan, Stamp};
pub(crate) use faults::{Pending, Watch};
