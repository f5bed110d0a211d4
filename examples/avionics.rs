//! Avionics scenario: inter-object temporal consistency (paper §3).
//!
//! The paper motivates inter-object constraints with a take-off: "there is
//! a time bound between accelerating the plane and the lifting of the
//! plane into air because the runway is of limited length". We replicate
//! an acceleration sensor and a lift (climb-rate) sensor under a 250 ms
//! inter-object bound, plus a slower engine-temperature object, and show:
//!
//! - admission converting the inter-object constraint into external
//!   constraints (tightened update periods, §4.2),
//! - QoS renegotiation after a rejection,
//! - both external and inter-object consistency holding over a lossy run.
//!
//! ```text
//! cargo run --example avionics
//! ```

use rtpb::core::harness::ClusterConfig;
use rtpb::obs::MetricsRegistry;
use rtpb::types::{AdmissionError, ObjectSpec, TimeDelta};
use rtpb::{ReadConsistency, RtpbClient};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ClusterConfig::default();
    config.link.loss_probability = 0.02; // a mildly lossy LAN
    config.seed = 7;
    config.registry = MetricsRegistry::new();
    let mut client = RtpbClient::new(config);

    // Fast flight-dynamics objects.
    let acceleration = client.register(
        ObjectSpec::builder("acceleration")
            .update_period(TimeDelta::from_millis(50))
            .primary_bound(TimeDelta::from_millis(80))
            .backup_bound(TimeDelta::from_millis(380))
            .build()?,
    )?;
    println!("admitted acceleration as {acceleration}");

    // Lift is temporally tied to acceleration: |T_lift - T_accel| ≤ 250 ms
    // at both replicas (Theorem 6).
    let lift = client.register(
        ObjectSpec::builder("lift")
            .update_period(TimeDelta::from_millis(50))
            .primary_bound(TimeDelta::from_millis(80))
            .backup_bound(TimeDelta::from_millis(380))
            .constraint(acceleration, TimeDelta::from_millis(250))
            .build()?,
    )?;
    println!("admitted lift as {lift} with a 250ms bound to acceleration");
    {
        let primary = client.primary().expect("serving");
        println!(
            "  update periods tightened by the constraint: accel {} / lift {}",
            primary.send_period(acceleration).expect("scheduled"),
            primary.send_period(lift).expect("scheduled"),
        );
    }

    // A slow housekeeping object whose first spec is too ambitious: the
    // client can only sample engine temperature every 2 s, but asks for a
    // 1 s primary bound... fine; ask instead for a primary bound below the
    // sampling period to trigger rejection and show negotiation.
    let too_tight = ObjectSpec::builder("engine-temp")
        .update_period(TimeDelta::from_secs(2))
        .primary_bound(TimeDelta::from_millis(500))
        .backup_bound(TimeDelta::from_secs(3))
        .build()?;
    match client.register(too_tight) {
        Err(AdmissionError::PeriodExceedsPrimaryBound { negotiation, .. }) => {
            let relaxed = negotiation
                .min_primary_bound
                .expect("primary suggests a feasible bound");
            println!("engine-temp rejected; primary suggests δP ≥ {relaxed}");
            let renegotiated = ObjectSpec::builder("engine-temp")
                .update_period(TimeDelta::from_secs(2))
                .primary_bound(relaxed)
                .backup_bound(relaxed + TimeDelta::from_secs(1))
                .build()?;
            let id = client.register(renegotiated)?;
            println!("renegotiated engine-temp admitted as {id}");
        }
        other => panic!("expected a QoS rejection, got {other:?}"),
    }

    // Fly for a minute.
    client.run_for(TimeDelta::from_secs(60));

    // The cockpit display reads the replicated state from the backup; a
    // staleness certificate bounds how old each served image can be.
    for id in [acceleration, lift] {
        let outcome = client.read(id, ReadConsistency::Bounded(TimeDelta::from_millis(380)))?;
        println!("replica read {id}: {}", outcome.certificate());
        assert!(outcome.certificate().respects(TimeDelta::from_millis(380)));
    }

    let report = client.report();
    for id in [acceleration, lift] {
        let r = report.object_report(id).expect("tracked");
        println!(
            "{id}: {} writes, {} applies, max distance {}, violations {}",
            r.writes, r.applies, r.max_distance, r.backup_violations
        );
        assert_eq!(r.backup_violations, 0);
    }
    let counts = client.registry().snapshot();
    let count = |name| counts.counter(name).unwrap_or(0);
    println!(
        "updates sent {} (lost {}), retransmit requests {}",
        count("cluster.updates_sent"),
        count("cluster.updates_lost"),
        count("cluster.retransmit_requests")
    );
    println!("take-off telemetry stayed temporally consistent.");
    Ok(())
}
