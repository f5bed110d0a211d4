//! Process-control scenario: primary failure, takeover, re-integration.
//!
//! A chemical reactor is monitored by pressure/temperature/valve objects.
//! Mid-run the primary host crashes (§4.4): the backup detects the
//! failure through missed heartbeats, promotes itself, rebinds the
//! service name, and keeps serving the control loop; later a replacement
//! backup is recruited by state transfer and replication resumes.
//!
//! ```text
//! cargo run --example process_control
//! ```

use rtpb::core::harness::{ClusterConfig, FaultEvent};
use rtpb::obs::{EventBus, EventKind};
use rtpb::types::{ObjectSpec, TimeDelta};
use rtpb::{ReadConsistency, RtpbClient};

fn sensor(name: &str, period_ms: u64) -> ObjectSpec {
    ObjectSpec::builder(name)
        .update_period(TimeDelta::from_millis(period_ms))
        .primary_bound(TimeDelta::from_millis(period_ms + 50))
        .backup_bound(TimeDelta::from_millis(period_ms + 450))
        .build()
        .expect("valid spec")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ClusterConfig {
        bus: EventBus::with_capacity(1 << 16),
        recruit_backup_after: Some(TimeDelta::from_millis(500)),
        seed: 11,
        ..ClusterConfig::default()
    };
    let mut client = RtpbClient::new(config);

    let pressure = client.register(sensor("reactor-pressure", 50))?;
    let temperature = client.register(sensor("reactor-temperature", 100))?;
    let valve = client.register(sensor("valve-position", 200))?;
    println!("monitoring 3 reactor objects; primary is node#0");

    // Phase 1: healthy operation.
    client.run_for(TimeDelta::from_secs(5));
    let healthy_writes: Vec<u64> = [pressure, temperature, valve]
        .iter()
        .map(|&id| client.metrics().object_report(id).unwrap().writes)
        .collect();
    println!(
        "after 5s: {} pressure writes, no failover",
        healthy_writes[0]
    );
    assert!(!client.has_failed_over());

    // Phase 2: the primary host dies.
    println!("\n--- primary crashes at t = {} ---", client.now());
    client.inject(FaultEvent::CrashPrimary);
    client.run_for(TimeDelta::from_secs(2));

    assert!(client.has_failed_over(), "backup must take over");
    let failover = client
        .metrics()
        .failover_duration()
        .expect("failover recorded");
    println!(
        "backup promoted; name now resolves to {}; detection-to-serving took {failover}",
        client.name_service().resolve()
    );

    // The control loop keeps reading through the takeover: the session
    // token's monotonic floor survives the epoch change.
    let outcome = client.read(pressure, ReadConsistency::Monotonic)?;
    println!(
        "post-failover read served by {} with {}",
        outcome.served_by(),
        outcome.certificate()
    );

    // Phase 3: the new primary serves, a new backup joins, replication
    // resumes.
    client.run_for(TimeDelta::from_secs(5));
    let new_backup = client.backup().expect("replacement backup recruited");
    println!(
        "replacement backup {} holds {} objects and applied {} updates",
        new_backup.node(),
        new_backup.store().len(),
        new_backup.updates_applied()
    );
    assert!(new_backup.updates_applied() > 0);

    for (i, id) in [pressure, temperature, valve].into_iter().enumerate() {
        let r = client.metrics().object_report(id).unwrap();
        println!(
            "{id}: {} writes, {} applies, max distance {}",
            r.writes, r.applies, r.max_distance
        );
        assert!(
            r.writes > healthy_writes[i],
            "control loop kept running through the failure"
        );
    }

    println!("\ntrace highlights:");
    for event in client.bus().collect() {
        match event.kind {
            EventKind::HeartbeatMissed { from, peer } => {
                println!("  [{}] {from} declared {peer} dead", event.at);
            }
            EventKind::RoleTransition { node, from, to } => {
                println!("  [{}] {node}: {} -> {}", event.at, from.name(), to.name());
            }
            _ => {}
        }
    }
    println!("\nthe reactor never lost its monitoring service.");
    Ok(())
}
