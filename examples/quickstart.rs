//! Quickstart: replicate one object, read it back, check its guarantees.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rtpb::core::harness::ClusterConfig;
use rtpb::types::{ObjectSpec, TimeDelta};
use rtpb::{ReadConsistency, RtpbClient};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A session over a cluster with the default LAN model: 1–10 ms
    // delay, no loss.
    let mut client = RtpbClient::new(ClusterConfig::default());

    // One sensor object: the client refreshes it every 100 ms, the
    // primary must stay within 150 ms of the real world, the backup
    // within 550 ms. The consistency window is therefore 400 ms and the
    // primary will push updates to the backup every (400 - 10)/2 = 195 ms.
    let spec = ObjectSpec::builder("altitude")
        .update_period(TimeDelta::from_millis(100))
        .primary_bound(TimeDelta::from_millis(150))
        .backup_bound(TimeDelta::from_millis(550))
        .build()?;
    let id = client.register(spec)?;
    println!(
        "admitted {id}; update task period = {}",
        client
            .primary()
            .expect("serving")
            .send_period(id)
            .expect("scheduled")
    );

    // Run ten simulated seconds of periodic writes.
    client.run_for(TimeDelta::from_secs(10));

    // Read from the backup replica: the reply carries a staleness
    // certificate bounding how old the served value can possibly be.
    let outcome = client.read(id, ReadConsistency::Bounded(TimeDelta::from_millis(550)))?;
    println!(
        "replica read           : node {} served {} (redirect: {})",
        outcome.served_by(),
        outcome.certificate(),
        outcome.is_redirect(),
    );
    assert!(outcome.certificate().respects(TimeDelta::from_millis(550)));

    let report = client.metrics().object_report(id).expect("tracked");
    println!("client writes applied : {}", report.writes);
    println!("updates at backup     : {}", report.applies);
    println!("max p/b distance      : {}", report.max_distance);
    println!("window (δB - δP)      : {}", report.window);
    println!("backup violations     : {}", report.backup_violations);
    println!(
        "mean client response  : {}",
        client
            .metrics()
            .mean_response_time()
            .expect("writes happened")
    );

    assert_eq!(report.backup_violations, 0, "Theorem 5 held");
    println!("temporal consistency maintained — as Theorem 5 guarantees.");
    Ok(())
}
