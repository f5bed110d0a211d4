//! Integration tests for the batched update pipeline: coalesced frames
//! replicate every member within its Theorem-5 bound, a dropped batch
//! frame stales all members *together* (one loss decision per frame),
//! retransmission heals the correlated gap, batching at least doubles
//! the update rate of a saturated primary, and batching preserves the
//! determinism invariant and the event-schema guarantees.

use rtpb::core::config::ProtocolConfig;
use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan, SimCluster};
use rtpb::obs::{validate_line, EventBus, EventKind, MetricsRegistry};
use rtpb::types::{crc32c, AdmissionError, ObjectSpec, Time, TimeDelta};
use rtpb::RtpbClient;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn spec(name: &str, period: u64) -> ObjectSpec {
    ObjectSpec::builder(name)
        .update_period(ms(period))
        .exec_time(TimeDelta::from_micros(100))
        .primary_bound(ms(period + 50))
        .backup_bound(ms(period + 450))
        .build()
        .unwrap()
}

/// `(byte length, crc32c)` of an exported stream, pinned across commits:
/// a change that alters a seeded trace must update the constant and say
/// why.
fn digest(text: &str) -> (usize, u32) {
    (text.len(), crc32c(text.as_bytes()))
}

fn batched_config(window_ms: u64, seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig {
        seed,
        bus: EventBus::with_capacity(1 << 17),
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    config.protocol.coalesce_window = ms(window_ms);
    config
}

/// Steady state under coalescing: every member of every batch lands
/// within its consistency window, frames are genuinely shared (far fewer
/// frames than updates), and the widened watchdog allowance absorbs the
/// coalescing delay without spurious retransmission requests.
#[test]
fn batched_cluster_meets_bounds_and_compresses_frames() {
    let mut config = batched_config(20, 3);
    config.link.loss_probability = 0.0;
    let mut cluster = RtpbClient::new(config);
    // Enough objects that several send timers land inside every 20 ms
    // coalescing window — otherwise frames degenerate to one update each.
    let ids: Vec<_> = (0..32)
        .map(|i| cluster.register(spec(&format!("obj-{i}"), 50)).unwrap())
        .collect();
    cluster.run_for(TimeDelta::from_secs(5));

    let report = cluster.report();
    for &id in &ids {
        let r = report.object_report(id).unwrap();
        assert!(r.applies > 0, "{id}: batched updates must reach the backup");
        assert_eq!(
            r.window_episodes, 0,
            "{id}: Theorem-5 bound must hold under coalescing"
        );
    }
    let snapshot = cluster.registry().snapshot();
    assert_eq!(
        snapshot.counter("cluster.retransmit_requests"),
        Some(0),
        "the watchdog allowance must absorb the coalescing window"
    );
    let updates = snapshot.counter("cluster.updates_sent").unwrap();
    let frames = snapshot.counter("cluster.frames_sent").unwrap();
    assert!(
        frames * 2 < updates,
        "coalescing must share frames ({frames} frames for {updates} updates)"
    );
    assert_eq!(
        snapshot.counter("cluster.send_rejected"),
        Some(0),
        "steady-state frames stay under the datagram cap"
    );
    let occupancy = snapshot.histogram("cluster.batch_occupancy").unwrap();
    assert!(occupancy.count > 0, "batches must be recorded");
    assert!(
        occupancy.mean.unwrap() >= TimeDelta::from_nanos(2),
        "mean occupancy must exceed one update per frame"
    );

    // The trace stays schema-valid with the batch events in it.
    let events = cluster.bus().collect();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::BatchSent { .. })));
    for line in cluster.export_jsonl().lines() {
        validate_line(line).expect("schema-valid line");
    }
}

/// The batching win at saturation. 600 objects written every 50 ms offer
/// 12k sends per second against a 1 ms base cost per transmission, so
/// the unbatched primary's CPU saturates, its send queue grows and the
/// backup falls out of its window. A 10 ms coalescing window pays the
/// base cost once per frame: at least twice the updates leave, and every
/// object stays within δ_i.
#[test]
fn batching_at_least_doubles_saturated_throughput() {
    let spec = ObjectSpec::builder("tp-obj")
        .update_period(ms(50))
        .exec_time(TimeDelta::from_micros(2))
        .primary_bound(ms(150))
        .backup_bound(ms(400))
        .build()
        .unwrap();
    // (updates sent, frames sent, mean batch occupancy, bound held)
    let run = |window_ms: u64| {
        let mut config = ClusterConfig {
            protocol: ProtocolConfig {
                // The offered load must reach the CPU instead of being
                // shed at the admission gate.
                admission_enabled: false,
                send_cost_base: ms(1),
                coalesce_window: ms(window_ms),
                ..ProtocolConfig::default()
            },
            seed: 42,
            registry: MetricsRegistry::new(),
            ..ClusterConfig::default()
        };
        config.link.loss_probability = 0.0;
        let mut cluster = SimCluster::new(config);
        let ids = cluster.register_many(vec![spec.clone(); 600]).unwrap();
        cluster.run_for(TimeDelta::from_secs(2));

        let report = cluster.report();
        let bound_held = ids
            .iter()
            .all(|&id| report.object_report(id).unwrap().window_episodes == 0);
        let snapshot = cluster.registry().snapshot();
        let updates = snapshot.counter("cluster.updates_sent").unwrap();
        let frames = snapshot.counter("cluster.frames_sent").unwrap();
        // Occupancy buckets hold sub-message counts, so the mean reads
        // back as a count of nanoseconds.
        let occupancy = snapshot
            .histogram("cluster.batch_occupancy")
            .and_then(|h| h.mean)
            .map_or(1, |m| m.as_nanos());
        (updates, frames, occupancy, bound_held)
    };
    let (unbatched, _, _, unbatched_held) = run(0);
    let (batched, frames, occupancy, batched_held) = run(10);

    assert!(
        batched >= 2 * unbatched,
        "batching must at least double saturated throughput \
         ({batched} against {unbatched} updates in 2 s)"
    );
    assert!(batched_held, "the batched run must stay within δ_i");
    assert!(
        !unbatched_held,
        "the unbatched run must blow δ_i, or the primary is not saturated"
    );
    assert!(
        frames * 2 < batched,
        "coalescing must share frames ({frames} frames for {batched} updates)"
    );
    assert!(occupancy >= 2, "mean occupancy {occupancy} below 2");
}

/// The chaos scenario of the batching ISSUE: a total loss burst drops
/// whole batch frames, so *every* member goes stale together; the
/// backup's retransmission requests heal the correlated gap, and once
/// healed the Theorem-5 bounds hold again — the only window excess is
/// the transient one the burst itself forced.
#[test]
fn dropped_batch_frames_stale_all_members_then_heal_within_bounds() {
    let mut config = batched_config(20, 5);
    config.fault_plan = FaultPlan::new().at(
        Time::from_millis(2_000),
        FaultEvent::LossBurst {
            host: None,
            duration: ms(300),
            loss: 1.0,
        },
    );
    let mut cluster = RtpbClient::new(config);
    let ids: Vec<_> = (0..4)
        .map(|i| cluster.register(spec(&format!("obj-{i}"), 50)).unwrap())
        .collect();
    // Burst at 2.0–2.3 s; by 6 s retransmission has long healed the gap.
    cluster.run_for(TimeDelta::from_secs(6));
    let healed = cluster.report();
    cluster.run_for(TimeDelta::from_secs(4));
    let fin = cluster.report();

    assert!(!cluster.has_failed_over(), "loss must not kill the service");
    for &id in &ids {
        let mid = healed.object_report(id).unwrap();
        let end = fin.object_report(id).unwrap();
        // Correlated loss: one dropped frame stales every member, so all
        // four objects see the burst-length distance spike.
        assert!(
            mid.max_distance >= ms(250),
            "{id}: a dropped batch must stale every member (distance {})",
            mid.max_distance
        );
        // The burst may force at most one transient window episode...
        assert!(
            end.window_episodes <= 1,
            "{id}: only the burst itself may breach the window"
        );
        assert!(
            end.total_window_violation <= ms(400),
            "{id}: the excess must be bounded by the outage, got {}",
            end.total_window_violation
        );
        // ...and after the retransmit heals it, the bound holds again:
        // four more seconds add no episodes and never top the burst peak.
        assert_eq!(
            end.window_episodes, mid.window_episodes,
            "{id}: no new violations once retransmission caught the backup up"
        );
        assert_eq!(
            end.max_distance, mid.max_distance,
            "{id}: post-heal staleness stays below the burst peak"
        );
    }
    assert!(
        cluster
            .registry()
            .snapshot()
            .counter("cluster.retransmit_requests")
            .unwrap()
            > 0,
        "the gap must be healed by backup-requested retransmission"
    );

    // One loss decision per frame: whenever a batch frame is dropped,
    // every update it carried is reported lost with it.
    let events = cluster.bus().collect();
    let mut lost_batches = 0;
    for (i, e) in events.iter().enumerate() {
        if let EventKind::BatchSent { size, lost, .. } = e.kind {
            let members = &events[i + 1..i + 1 + size as usize];
            for m in members {
                match m.kind {
                    EventKind::UpdateSent { lost: l, .. } => {
                        assert_eq!(l, lost, "members must share their frame's fate")
                    }
                    ref other => panic!("expected the batch's members, got {other:?}"),
                }
            }
            lost_batches += u64::from(lost);
        }
    }
    assert!(lost_batches > 0, "the burst must drop whole batch frames");
}

/// Batching preserves the determinism invariant: a run is a pure
/// function of (config, seed) with coalescing enabled too, down to the
/// exported byte stream — and coalescing visibly changes the stream
/// relative to the unbatched pipeline under the same seed.
#[test]
fn batched_runs_are_deterministic_and_distinct_from_unbatched() {
    let run = |window_ms: u64| {
        let mut cluster = RtpbClient::new(batched_config(window_ms, 9));
        cluster.register(spec("a", 50)).unwrap();
        cluster.register(spec("b", 100)).unwrap();
        cluster.run_for(TimeDelta::from_secs(5));
        cluster
    };
    let a = run(15);
    let b = run(15);
    assert_eq!(
        a.export_jsonl(),
        b.export_jsonl(),
        "same seed + same window must replay identically"
    );
    assert_eq!(a.registry().snapshot(), b.registry().snapshot());
    assert_eq!(
        digest(&a.export_jsonl()),
        (48_706, 0xb9f6_dfe1),
        "pinned trace"
    );
    assert_eq!(
        digest(&a.registry().snapshot().to_jsonl()),
        (1_488, 0xf999_6ad7),
        "pinned registry snapshot"
    );

    let unbatched = run(0);
    assert_ne!(
        a.export_jsonl(),
        unbatched.export_jsonl(),
        "coalescing must change the wire-level stream"
    );
}

/// The admission interplay at the cluster API: a coalescing window wide
/// enough to push `r_i + W + ℓ` past some object's `δ_i` is rejected at
/// `register` with the Theorem-5 gate's error and a feasible-window hint.
#[test]
fn register_rejects_a_coalescing_window_that_breaks_theorem_5() {
    // spec(50): δ_i = 500 ms, r_i = (500 − ℓ)/2 — so W = 300 ms overruns.
    let mut cluster = RtpbClient::new(batched_config(300, 1));
    match cluster.register(spec("too-wide", 50)) {
        Err(AdmissionError::CoalescingWindowTooWide {
            coalesce_window,
            period,
            window,
            negotiation,
            ..
        }) => {
            assert_eq!(coalesce_window, ms(300));
            assert!(
                period + coalesce_window + ms(10) > window,
                "the gate must only fire on a genuine Theorem-5 overrun"
            );
            assert!(
                negotiation.min_window.is_some(),
                "the gate must hint at a feasible window"
            );
        }
        other => panic!("expected the coalescing gate to fire, got {other:?}"),
    }
}

/// Objects in three send-period classes (20, 50 and 120 ms) under 10 ms
/// coalescing, two backups and 2% data loss, through a durable backup
/// restart and a primary crash. Several objects' send timers and
/// watchdogs first fire at one instant although their periods differ, so
/// the run pins the order in which coinciding timers fire, and the
/// watchdogs' 100 ms cadence while no primary serves. It replays
/// byte-identically, and its digest is pinned across commits.
#[test]
fn coinciding_timer_classes_replay_byte_identically() {
    use rtpb::core::steps::{send_phase, watchdog_interval};
    use std::collections::BTreeMap;

    // A window of `2r + ℓ` admits the send period `r` (Theorem 5 with
    // the 2× loss slack): 50, 110 and 250 ms here.
    let class = |r: u64, i: usize| {
        ObjectSpec::builder(format!("c{r}-{i}"))
            .update_period(ms(r))
            .primary_bound(ms(r + 10))
            .backup_bound(ms(r + 10 + 2 * r + 10))
            .build()
            .unwrap()
    };
    let run = || {
        let mut config = batched_config(10, 21);
        config.num_backups = 2;
        config.link.loss_probability = 0.02;
        config.fault_plan = FaultPlan::new()
            .at(
                Time::from_millis(1_000),
                FaultEvent::CrashBackup { host: 0 },
            )
            .at(
                Time::from_millis(1_400),
                FaultEvent::RestartBackup { host: 0 },
            )
            .at(Time::from_millis(2_500), FaultEvent::CrashPrimary);
        let protocol = config.protocol.clone();
        let mut cluster = RtpbClient::new(config);
        let specs = (0..120).map(|i| class([20, 50, 120][i % 3], i)).collect();
        let ids = cluster.register_many(specs).unwrap();
        // Objects of different classes share first firing instants: send
        // phases, and watchdog intervals against send phases.
        let mut kinds_at: BTreeMap<TimeDelta, Vec<(u64, bool)>> = BTreeMap::new();
        for (i, &id) in ids.iter().enumerate() {
            let period = cluster.primary().unwrap().send_period(id).unwrap();
            let r = period.as_millis();
            assert_eq!(r, [20, 50, 120][i % 3]);
            kinds_at
                .entry(send_phase(id, period))
                .or_default()
                .push((r, true));
            kinds_at
                .entry(watchdog_interval(&protocol, Some(period)))
                .or_default()
                .push((r, false));
        }
        let shared = kinds_at
            .values()
            .filter(|members| members.iter().any(|m| m != &members[0]))
            .count();
        assert!(shared >= 4, "only {shared} instants shared across groups");
        cluster.run_for(TimeDelta::from_secs(4));
        assert_eq!(cluster.name_service().failover_count(), 1);
        (
            cluster.export_jsonl(),
            cluster.registry().snapshot().to_jsonl(),
        )
    };
    let (jsonl_a, registry_a) = run();
    let (jsonl_b, registry_b) = run();
    assert_eq!(jsonl_a, jsonl_b, "same seed must replay byte-identically");
    assert_eq!(registry_a, registry_b);
    assert_eq!(digest(&jsonl_a), (5_361_179, 0xfc63_fd5a), "pinned trace");
    assert_eq!(digest(&registry_a), (1_528, 0x5175_ce3c), "pinned registry");
}
