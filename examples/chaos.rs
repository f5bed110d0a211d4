//! Chaos scenario: a deterministic fault plan exercising every fault kind.
//!
//! A `FaultPlan` is a timestamped schedule of faults — loss bursts,
//! partitions, crashes, recoveries, delay spikes — that `SimCluster`
//! executes as ordinary simulation events. Because the plan is part of
//! the config and the simulation is a pure function of config + seed,
//! the whole chaos run (including every detection latency and retry
//! count) replays bit-for-bit.
//!
//! The run is fully instrumented: a structured event bus captures every
//! protocol event (update send/apply, heartbeats, role transitions,
//! fault lifecycles) and a metrics registry tracks hot-path counters and
//! latency histograms. Set `RTPB_TRACE_OUT=/path/to/trace.jsonl` to
//! write the event stream as JSONL.
//!
//! ```text
//! cargo run --example chaos
//! RTPB_TRACE_OUT=trace.jsonl cargo run --example chaos
//! ```

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::core::metrics::FaultRecord;
use rtpb::obs::{EventBus, MetricsRegistry};
use rtpb::types::{ObjectSpec, Time, TimeDelta};
use rtpb::RtpbClient;
use std::collections::BTreeMap;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn plan() -> FaultPlan {
    FaultPlan::new()
        // t=2s: the data path drops everything for 1.5s. The backup's
        // watchdogs notice the staleness and request retransmissions.
        .at(
            Time::from_secs(2),
            FaultEvent::LossBurst {
                host: None,
                duration: ms(1500),
                loss: 1.0,
            },
        )
        // t=5s: the replica pair is partitioned long enough for both
        // sides to declare each other dead; the backup re-joins by
        // state transfer after the heal.
        .at(
            Time::from_secs(5),
            FaultEvent::Partition {
                host: 0,
                duration: ms(1000),
            },
        )
        // t=8s: the backup host fail-stops...
        .at(Time::from_secs(8), FaultEvent::CrashBackup { host: 0 })
        // ...and restarts 1s later with empty state, re-joining via the
        // bounded-retry join path.
        .at(Time::from_secs(9), FaultEvent::RecoverBackup { host: 0 })
        // t=11s: deliveries exceed the nominal link bound ℓ for a while.
        .at(
            Time::from_secs(11),
            FaultEvent::DelaySpike {
                host: None,
                duration: ms(1000),
                extra: ms(80),
            },
        )
}

fn run(seed: u64) -> (RtpbClient, Vec<FaultRecord>) {
    let config = ClusterConfig {
        seed,
        fault_plan: plan(),
        bus: EventBus::with_capacity(1 << 18),
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    let mut client = RtpbClient::new(config);
    client
        .register(
            ObjectSpec::builder("telemetry")
                .update_period(ms(100))
                .primary_bound(ms(150))
                .backup_bound(ms(550))
                .build()
                .expect("valid spec"),
        )
        .expect("admitted");
    client.run_for(TimeDelta::from_secs(14));
    let report = client.fault_report().to_vec();
    (client, report)
}

fn main() {
    let (client, report) = run(42);

    println!("fault report ({} injected faults):\n", report.len());
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>8}",
        "fault", "injected", "detected in", "recovered in", "retries"
    );
    for record in &report {
        println!(
            "{:<16} {:>10} {:>12} {:>12} {:>8}",
            format!("{:?}", record.kind),
            format!("{}", record.injected_at),
            record
                .detection_latency()
                .map_or("—".into(), |d| format!("{d}")),
            record
                .recovery_time()
                .map_or("—".into(), |d| format!("{d}")),
            record.retries,
        );
    }

    assert!(
        report.iter().all(|r| r.recovered_at.is_some()),
        "every injected fault must eventually heal"
    );
    assert!(
        !client.has_failed_over(),
        "no fault here kills the primary — the service never fails over"
    );

    let backup = client.backup().expect("backup re-joined");
    println!(
        "\nafter the storm: backup holds {} object(s), applied {} updates; \
         {} retransmissions requested",
        backup.store().len(),
        backup.updates_applied(),
        client
            .registry()
            .snapshot()
            .counter("cluster.retransmit_requests")
            .unwrap_or(0),
    );

    // Structured-event summary: every protocol event of the run, typed
    // and stamped with the virtual clock.
    let events = client.bus().collect();
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &events {
        *by_kind.entry(event.kind.name()).or_insert(0) += 1;
    }
    println!(
        "\nevent trace: {} events ({} dropped by the ring):\n",
        events.len(),
        client.bus().dropped()
    );
    println!("{:<24} {:>8}", "event kind", "count");
    for (kind, count) in &by_kind {
        println!("{kind:<24} {count:>8}");
    }
    for required in [
        "update_sent",
        "update_applied",
        "heartbeat_sent",
        "fault_injected",
        "fault_recovered",
    ] {
        assert!(
            by_kind.contains_key(required),
            "chaos trace must contain {required} events"
        );
    }

    // Registry summary: counters + latency histograms.
    let snapshot = client.registry().snapshot();
    println!("\nmetrics registry:\n");
    for (name, value) in &snapshot.counters {
        println!("{name:<28} {value:>10}");
    }
    for (name, h) in &snapshot.histograms {
        println!(
            "{name:<28} count={} mean={} p99<={} max={}",
            h.count,
            h.mean.map_or("—".into(), |d| format!("{d}")),
            h.p99_bound.map_or("—".into(), |d| format!("{d}")),
            h.max.map_or("—".into(), |d| format!("{d}")),
        );
    }

    // Export + self-validate the JSONL stream; timestamps must be
    // monotone in the merged order.
    let jsonl = client.export_jsonl();
    let mut last = (0u64, 0u64);
    for line in jsonl.lines() {
        let (seq, t_ns, _kind) = rtpb::obs::validate_line(line).expect("schema-valid trace line");
        assert!(
            (t_ns, seq) >= last,
            "event stream must be (time, seq)-ordered"
        );
        last = (t_ns, seq);
    }
    println!(
        "\ntrace: {} JSONL lines, all schema-valid.",
        jsonl.lines().count()
    );

    if let Ok(path) = std::env::var("RTPB_TRACE_OUT") {
        std::fs::write(&path, &jsonl).expect("write trace");
        println!("trace written to {path}");
    }

    // Same config + seed ⇒ identical chaos, identical outcomes — and a
    // byte-identical event stream.
    let (replay_client, replay) = run(42);
    assert_eq!(report, replay, "chaos runs are deterministic");
    assert_eq!(
        jsonl,
        replay_client.export_jsonl(),
        "event streams replay byte-for-byte"
    );
    println!("replay with the same seed reproduced the report and the trace exactly.");
}
