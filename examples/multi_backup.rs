//! Multi-backup replication — the paper's §7 future-work item.
//!
//! Three replicas guard a radar track. The primary dies; the first backup
//! to detect the failure takes over, the survivor re-joins the new
//! primary, and replication continues — then the new primary dies too.
//!
//! ```text
//! cargo run --example multi_backup
//! ```

use rtpb::core::harness::{ClusterConfig, FaultEvent};
use rtpb::types::{ObjectSpec, TimeDelta};
use rtpb::RtpbClient;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ClusterConfig {
        num_backups: 2,
        ..ClusterConfig::default()
    };
    let mut client = RtpbClient::new(config);
    let track = client.register(
        ObjectSpec::builder("radar-track")
            .update_period(TimeDelta::from_millis(50))
            .primary_bound(TimeDelta::from_millis(100))
            .backup_bound(TimeDelta::from_millis(500))
            .build()?,
    )?;

    client.run_for(TimeDelta::from_secs(3));
    println!(
        "healthy: primary {} with backups:",
        client.name_service().resolve()
    );
    for b in client.backups() {
        println!("  {} applied {} updates", b.node(), b.updates_applied());
    }

    println!("\n--- first failure ---");
    client.inject(FaultEvent::CrashPrimary);
    client.run_for(TimeDelta::from_secs(3));
    println!(
        "promoted: {} (failover #{}); surviving backup re-joined: {:?}",
        client.name_service().resolve(),
        client.name_service().failover_count(),
        client.primary().unwrap().backups(),
    );

    println!("\n--- second failure ---");
    client.inject(FaultEvent::CrashPrimary);
    client.run_for(TimeDelta::from_secs(3));
    println!(
        "promoted: {} (failover #{})",
        client.name_service().resolve(),
        client.name_service().failover_count(),
    );

    let report = client.metrics().object_report(track).expect("tracked");
    println!(
        "\nthrough two failures: {} writes served, {} replica applies",
        report.writes, report.applies
    );
    assert_eq!(client.name_service().failover_count(), 2);
    assert!(report.writes > 100);
    println!("the track never went unguarded.");
    Ok(())
}
