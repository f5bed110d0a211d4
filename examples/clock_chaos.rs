//! Clock chaos: timing-assumption violations, monitored and survived.
//!
//! RTPB's temporal guarantees rest on an envelope — bounded link delay,
//! bounded clock skew — that real clocks violate: NTP steps, VM
//! migration pauses, firmware stalls. This scenario injects all three
//! clock fault kinds and shows the runtime temporal monitor
//! (DESIGN.md §14) turning the observable evidence into typed
//! violations, degrading the affected node's fast paths, and recovering
//! once the envelope holds again:
//!
//! - t=2s  the backup's clock **steps backward** 120 ms (12× the skew
//!   bound). The backup sees its own clock regress and every shipped
//!   write timestamp arrive from its local future; it refuses reads
//!   with an explicit unsound status instead of minting certificates
//!   that would under-report staleness.
//! - t=5s  the primary's clock **drifts 25% fast** for one second,
//!   accumulating ~250 ms of forward skew; backups watch the primary's
//!   write timestamps run away from their clocks. The discipline
//!   snap-back at t=6s is itself a step — the primary observes its own
//!   clock regress, pessimizes (stops minting certificates, fences its
//!   lease early), and re-enables after the quiet period.
//! - t=8s  the backup's clock **freezes** for 1.5 s; the monitor's
//!   stall detector notices the pinned readings.
//!
//! Clock faults move only the *local readings* handed to each node's
//! state machine — the event queue stays on the global timeline — so
//! the whole run, violations and recoveries included, replays
//! bit-for-bit from config + seed.
//!
//! ```text
//! cargo run --example clock_chaos
//! RTPB_TRACE_OUT=trace.jsonl cargo run --example clock_chaos
//! ```

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::core::metrics::FaultRecord;
use rtpb::obs::{EventBus, EventKind, MetricsRegistry};
use rtpb::types::{ObjectSpec, Time, TimeDelta};
use rtpb::RtpbClient;
use std::collections::BTreeMap;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            Time::from_secs(2),
            FaultEvent::ClockStep {
                host: Some(0),
                offset: ms(120),
                backward: true,
                duration: ms(1_000),
            },
        )
        .at(
            Time::from_secs(5),
            FaultEvent::ClockDrift {
                host: None,
                rate_num: 5,
                rate_den: 4,
                duration: ms(1_000),
            },
        )
        .at(
            Time::from_secs(8),
            FaultEvent::ClockFreeze {
                host: Some(0),
                duration: ms(1_500),
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
    client.run_for(TimeDelta::from_secs(12));
    let report = client.fault_report().to_vec();
    (client, report)
}

fn main() {
    let (client, report) = run(42);

    println!("fault report ({} injected clock faults):\n", report.len());
    println!(
        "{:<16} {:>10} {:>12} {:>12}",
        "fault", "injected", "detected in", "recovered in"
    );
    for record in &report {
        println!(
            "{:<16} {:>10} {:>12} {:>12}",
            format!("{:?}", record.kind),
            format!("{}", record.injected_at),
            record
                .detection_latency()
                .map_or("—".into(), |d| format!("{d}")),
            record
                .recovery_time()
                .map_or("—".into(), |d| format!("{d}")),
        );
    }
    assert_eq!(report.len(), 3, "three clock faults injected");
    assert!(
        report.iter().all(|r| r.recovered_at.is_some()),
        "every clock is eventually disciplined back"
    );
    assert!(
        report.iter().all(|r| r.detected_at.is_some()),
        "every clock fault must be noticed by the monitor"
    );
    assert!(
        !client.has_failed_over(),
        "clock trouble degrades nodes; it must not depose the primary"
    );

    // Violation ledger: which node saw which evidence, how often.
    let events = client.bus().collect();
    let mut ledger: BTreeMap<(String, &str), u64> = BTreeMap::new();
    let mut degraded = 0u64;
    let mut recovered = 0u64;
    for event in &events {
        match &event.kind {
            EventKind::TimingViolation { node, evidence, .. } => {
                *ledger.entry((node.to_string(), *evidence)).or_insert(0) += 1;
            }
            EventKind::MonitorDegraded { .. } => degraded += 1,
            EventKind::MonitorRecovered { .. } => recovered += 1,
            _ => {}
        }
    }
    println!("\nviolation ledger:\n");
    println!("{:<10} {:<24} {:>6}", "node", "evidence", "count");
    for ((node, evidence), count) in &ledger {
        println!("{node:<10} {evidence:<24} {count:>6}");
    }
    println!("\n{degraded} degradation(s), {recovered} recovery(ies)");
    for required in [
        "local_clock_regression", // the backward step, and the drift's snap-back
        "timestamp_from_future",  // write stamps racing ahead of a behind clock
        "clock_stalled",          // the freeze, pinned across consecutive readings
    ] {
        assert!(
            ledger.keys().any(|(_, e)| *e == required),
            "expected {required} evidence in this scenario"
        );
    }
    assert!(
        ledger
            .keys()
            .any(|(n, e)| { n == "node#0" && *e == "local_clock_regression" }),
        "the drift snap-back must be caught by the primary itself"
    );
    assert!(
        degraded >= 2 && recovered >= 2,
        "both roles degrade and recover"
    );
    let violations = client
        .registry()
        .snapshot()
        .counter("cluster.timing_violations")
        .unwrap_or(0);
    assert!(violations > 0, "violations must reach the metrics registry");

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

    // Same config + seed ⇒ identical violations, identical recoveries —
    // and a byte-identical event stream.
    let (replay_client, replay) = run(42);
    assert_eq!(report, replay, "clock chaos runs are deterministic");
    assert_eq!(
        jsonl,
        replay_client.export_jsonl(),
        "event streams replay byte-for-byte"
    );
    println!("replay with the same seed reproduced the report and the trace exactly.");
}
