//! Real-clock demonstration: the same protocol cores on OS threads.
//!
//! Everything else in this repository runs in deterministic virtual time;
//! this example runs RTPB for two *wall-clock* seconds on threads with a
//! lossy in-process link (`rtpb-rt`), then crashes the primary through a
//! fault plan and shows one of two backups taking over under the real
//! clock, with the crash's record: when a backup detected it and when
//! the promotion recovered it.
//!
//! ```text
//! cargo run --example real_time
//! ```

use rtpb::core::harness::{FaultEvent, FaultPlan};
use rtpb::obs::MetricsRegistry;
use rtpb::rt::{RtCluster, RtConfig, RtReport};
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

/// Client writes served and updates applied at the followed backup,
/// over every object.
fn writes_and_applies(report: &RtReport) -> (u64, u64) {
    let m = &report.metrics;
    m.object_ids()
        .filter_map(|id| m.object_report(id))
        .fold((0, 0), |(w, a), r| (w + r.writes, a + r.applies))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Healthy run with 5% update loss, counted into a registry.
    let mut config = RtConfig::default();
    config.cluster.link.loss_probability = 0.05;
    config.cluster.registry = MetricsRegistry::new();
    let registry = config.cluster.registry.clone();
    config.objects.push(spec("gyro", 20));
    config.objects.push(spec("gps", 50));
    println!("running 2s of real-time replication (5% loss)...");
    let report = RtCluster::run(config, Duration::from_secs(2))?;
    let (writes, applies) = writes_and_applies(&report);
    let count = |name: &str| registry.counter(name).get();
    println!("  writes           : {writes}");
    println!("  updates sent     : {}", count("cluster.updates_sent"));
    println!("  updates applied  : {applies}");
    println!(
        "  retransmits      : {}",
        count("cluster.retransmit_requests")
    );
    println!(
        "  mean response    : {}",
        report
            .metrics
            .mean_response_time()
            .expect("writes happened")
    );
    println!(
        "  avg max distance : {}",
        report
            .metrics
            .average_max_distance()
            .expect("objects tracked")
    );
    assert!(applies > 0);
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
        report.failed_over,
        writes_and_applies(&report).0
    );
    assert!(report.failed_over, "backup must promote itself");
    let crash = &report.faults[0];
    let ms = |d: Option<TimeDelta>| d.map_or("-".to_string(), |d| format!("{d}"));
    println!(
        "  primary crash: detected after {}, recovered after {}",
        ms(crash.detection_latency()),
        ms(crash.recovery_time())
    );
    println!("real-clock failover complete.");
    Ok(())
}
