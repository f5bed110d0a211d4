//! Real-clock demonstration: the same protocol cores on OS threads.
//!
//! Everything else in this repository runs in deterministic virtual time;
//! this example runs RTPB for two *wall-clock* seconds on threads with a
//! lossy in-process link (`rtpb-rt`), then crashes the primary through a
//! fault plan and shows one of two backups taking over under the real
//! clock.
//!
//! ```text
//! cargo run --example real_time
//! ```

use rtpb::core::harness::{FaultEvent, FaultPlan};
use rtpb::rt::{RtCluster, RtConfig};
use rtpb::types::{ObjectSpec, Time, TimeDelta};
use std::time::Duration;

fn spec(name: &str, period_ms: u64) -> ObjectSpec {
    ObjectSpec::builder(name)
        .update_period(TimeDelta::from_millis(period_ms))
        .primary_bound(TimeDelta::from_millis(period_ms + 60))
        .backup_bound(TimeDelta::from_millis(period_ms + 500))
        .build()
        .expect("valid spec")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Healthy run with 5% update loss.
    let mut config = RtConfig::default();
    config.cluster.link.loss_probability = 0.05;
    config.objects.push(spec("gyro", 20));
    config.objects.push(spec("gps", 50));
    println!("running 2s of real-time replication (5% loss)...");
    let report = RtCluster::run(config, Duration::from_secs(2))?;
    println!("  writes           : {}", report.writes);
    println!("  updates sent     : {}", report.updates_sent);
    println!("  updates applied  : {}", report.updates_applied);
    println!("  retransmits      : {}", report.retransmit_requests);
    println!(
        "  mean response    : {}",
        report.mean_response.expect("writes happened")
    );
    println!(
        "  avg max distance : {}",
        report.average_max_distance.expect("objects tracked")
    );
    assert!(report.updates_applied > 0);
    assert!(!report.failed_over);

    // Crash the primary 500ms in; one of the two backups must take over.
    let mut config = RtConfig::default();
    config.objects.push(spec("gyro", 20));
    config.cluster.num_backups = 2;
    config.cluster.fault_plan =
        FaultPlan::new().at(Time::from_millis(500), FaultEvent::CrashPrimary);
    println!("\ncrashing the primary 500ms into a 2s run with two backups...");
    let report = RtCluster::run(config, Duration::from_secs(2))?;
    println!(
        "  failed over: {}; writes served across the failure: {}",
        report.failed_over, report.writes
    );
    assert!(report.failed_over, "backup must promote itself");
    println!("real-clock failover complete.");
    Ok(())
}
