//! QoS renegotiation (§4.2 feedback) and seeded determinism across the
//! full feature set.

use rtpb::core::harness::ClusterConfig;
use rtpb::obs::MetricsRegistry;
use rtpb::types::{AdmissionError, ObjectSpec, TimeDelta};
use rtpb::RtpbClient;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

#[test]
fn negotiation_hints_lead_to_admission() {
    let mut cluster = RtpbClient::new(ClusterConfig::default());

    // Gate 1 rejection: the hint names the smallest feasible δP.
    let too_tight = ObjectSpec::builder("g1")
        .update_period(ms(200))
        .primary_bound(ms(100))
        .backup_bound(ms(600))
        .build()
        .unwrap();
    let Err(AdmissionError::PeriodExceedsPrimaryBound { negotiation, .. }) =
        cluster.register(too_tight)
    else {
        panic!("expected gate-1 rejection");
    };
    let new_dp = negotiation.min_primary_bound.expect("hint provided");
    let retry = ObjectSpec::builder("g1")
        .update_period(ms(200))
        .primary_bound(new_dp)
        .backup_bound(new_dp + ms(400))
        .build()
        .unwrap();
    assert!(cluster.register(retry).is_ok(), "hinted spec must admit");

    // Gate 2 rejection: the hint names the smallest feasible window.
    let tiny_window = ObjectSpec::builder("g2")
        .update_period(ms(50))
        .primary_bound(ms(100))
        .backup_bound(ms(105))
        .build()
        .unwrap();
    let Err(AdmissionError::WindowTooSmall { negotiation, .. }) = cluster.register(tiny_window)
    else {
        panic!("expected gate-2 rejection");
    };
    let min_window = negotiation.min_window.expect("hint provided");
    let retry = ObjectSpec::builder("g2")
        .update_period(ms(50))
        .primary_bound(ms(100))
        .backup_bound(ms(100) + min_window)
        .build()
        .unwrap();
    assert!(cluster.register(retry).is_ok());

    // Everything admitted behaves.
    cluster.run_for(TimeDelta::from_secs(5));
    for id in cluster.metrics().object_ids().collect::<Vec<_>>() {
        let r = cluster.metrics().object_report(id).unwrap();
        assert_eq!(r.backup_violations, 0);
    }
}

#[test]
fn unschedulable_hint_reports_the_bound() {
    let mut config = ClusterConfig::default();
    config.protocol.send_cost_base = ms(4);
    let mut cluster = RtpbClient::new(config);
    let spec = || {
        ObjectSpec::builder("sat")
            .update_period(ms(100))
            .primary_bound(ms(150))
            .backup_bound(ms(250))
            .build()
            .unwrap()
    };
    let mut last_err = None;
    for _ in 0..64 {
        if let Err(e) = cluster.register(spec()) {
            last_err = Some(e);
            break;
        }
    }
    let Some(AdmissionError::Unschedulable {
        utilization,
        bound,
        negotiation,
    }) = last_err
    else {
        panic!("expected saturation");
    };
    assert!(utilization > bound);
    assert_eq!(negotiation.max_admissible_utilization, Some(bound));
}

#[test]
fn deterministic_replay_across_full_feature_set() {
    // Constraints + compression + loss + multi-backup: still a pure
    // function of the seed.
    let run = |seed| {
        let mut config = ClusterConfig {
            num_backups: 2,
            seed,
            registry: MetricsRegistry::new(),
            ..ClusterConfig::default()
        };
        config.protocol.scheduling_mode = rtpb::core::SchedulingMode::Compressed;
        config.link.loss_probability = 0.1;
        let mut cluster = RtpbClient::new(config);
        let a = cluster
            .register(
                ObjectSpec::builder("a")
                    .update_period(ms(50))
                    .primary_bound(ms(100))
                    .backup_bound(ms(500))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let _b = cluster
            .register(
                ObjectSpec::builder("b")
                    .update_period(ms(50))
                    .primary_bound(ms(100))
                    .backup_bound(ms(500))
                    .constraint(a, ms(300))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        cluster.run_for(TimeDelta::from_secs(10));
        let counts = cluster.registry().snapshot();
        (
            counts.counter("cluster.updates_sent"),
            counts.counter("cluster.updates_lost"),
            cluster.report().average_max_distance(),
            counts.histogram("cluster.response_time").map(|h| h.count),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}
