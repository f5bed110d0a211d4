//! Corruption chaos: end-to-end integrity under bit flips, detected
//! and repaired.
//!
//! RTPB replicates state over hardware that lies: NICs flip bits in
//! frames, disks rot stored images, and a silent flip that reaches a
//! certificate would break the temporal-consistency contract worse
//! than any crash. This scenario injects corruption at every layer the
//! integrity machinery (DESIGN.md §15) protects and shows each
//! corruption being *detected before its bytes act* — then repaired by
//! the same catch-up machinery that handles loss and crashes:
//!
//! - t=2s  every data-path frame gets **one bit flipped** for a
//!   second (a faulty switch buffer). The CRC32C frame trailer catches
//!   every flip at the receiver; corrupted frames are dropped, traced
//!   as `integrity_violation`s, and re-requested by the freshness
//!   watchdogs — corruption degrades into loss, never into bad state.
//! - t=4s  backup host 0 **crashes**, its durable store **rots** (one
//!   stored image gets a byte flipped), and it **restarts** at t=4.6s.
//!   The restart audit re-verifies every image against its
//!   install-time checksum, quarantines the rotted entry, clears the
//!   applied position — a store that lost bytes cannot vouch for its
//!   position — and the rejoin falls to the bottom of the catch-up
//!   ladder: a full transfer re-installs verified images.
//! - t=6s  backup host 1's store rots **silently** — no crash, no
//!   restart, nothing local ever reads the image. The background
//!   scrubber (per-range store digests piggybacked on heartbeats)
//!   flags the diverged range, the backup quarantines what its own
//!   checksums can prove and repairs via anti-entropy resync.
//!
//! Every flip is applied deterministically from the seeded fault plan,
//! so the whole run — detections, quarantines, repairs — replays
//! byte-for-byte.
//!
//! ```text
//! cargo run --example integrity_chaos
//! RTPB_TRACE_OUT=trace.jsonl cargo run --example integrity_chaos
//! ```

use rtpb::core::config::ProtocolConfig;
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
            FaultEvent::CorruptFrame {
                host: None,
                duration: ms(1_000),
                probability: 1.0,
            },
        )
        .at(Time::from_secs(4), FaultEvent::CrashBackup { host: 0 })
        .at(
            Time::from_millis(4_300),
            FaultEvent::CorruptState { host: 0, flips: 1 },
        )
        .at(
            Time::from_millis(4_600),
            FaultEvent::RestartBackup { host: 0 },
        )
}

fn run(seed: u64) -> (RtpbClient, Vec<FaultRecord>) {
    let config = ClusterConfig {
        seed,
        num_backups: 2,
        auto_failover: false,
        protocol: ProtocolConfig {
            scrub_interval: ms(100),
            scrub_ranges: 1,
            ..ProtocolConfig::default()
        },
        fault_plan: plan(),
        bus: EventBus::with_capacity(1 << 18),
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    let mut client = RtpbClient::new(config);
    let id = client
        .register(
            ObjectSpec::builder("sensor-image")
                .update_period(ms(200))
                .primary_bound(ms(250))
                .backup_bound(ms(650))
                .build()
                .expect("valid spec"),
        )
        .expect("admitted");
    client.run_for(TimeDelta::from_secs(6));
    // Silent rot on host 1: one byte flips in a stored image with no
    // crash to trigger the restart audit and no local read to trip over
    // it. Only the background scrubber can find this one.
    assert!(
        client.cluster_mut().rot_backup_store(1, id, 0, 0x20),
        "host 1 must hold an image to rot"
    );
    client.run_for(TimeDelta::from_secs(4));
    let report = client.fault_report().to_vec();
    (client, report)
}

fn main() {
    let (client, report) = run(42);

    println!("fault report ({} injected faults):\n", report.len());
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
    assert_eq!(report.len(), 4, "frame window, crash, rot, restart");
    assert!(
        report.iter().all(|r| r.detected_at.is_some()),
        "every fault must be detected"
    );
    assert!(
        report.iter().all(|r| r.recovered_at.is_some()),
        "every fault must be repaired"
    );
    assert!(
        !client.has_failed_over(),
        "corruption degrades into loss and repair; it must not depose"
    );

    // Violation ledger: which layer's checksum caught what, where.
    let events = client.bus().collect();
    let mut ledger: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
    let mut divergences = 0u64;
    for event in &events {
        match &event.kind {
            EventKind::IntegrityViolation { node, source, .. } => {
                *ledger.entry((node.to_string(), source)).or_insert(0) += 1;
            }
            EventKind::ScrubDivergence { .. } => divergences += 1,
            _ => {}
        }
    }
    println!("\nintegrity ledger:\n");
    println!("{:<10} {:<14} {:>6}", "node", "layer", "count");
    for ((node, source), count) in &ledger {
        println!("{node:<10} {source:<14} {count:>6}");
    }
    println!("\n{divergences} scrub divergence(s)");
    assert!(
        ledger.keys().any(|(_, s)| *s == "frame"),
        "the bit-flip window must be caught at the frame layer"
    );
    assert!(
        ledger.keys().any(|(_, s)| *s == "store_entry"),
        "both rotted images must be caught at the store layer"
    );
    assert!(divergences >= 1, "the scrubber must flag the silent rot");
    let corrupted = client.cluster().corrupt_messages();
    assert!(corrupted > 0, "the window must actually corrupt frames");
    let violations = client
        .registry()
        .snapshot()
        .counter("cluster.integrity_violations")
        .unwrap_or(0);
    assert!(
        violations >= corrupted,
        "every corrupt frame is a counted violation"
    );
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EventKind::CatchUpPlan { path, .. } if *path == "full_transfer"
        )),
        "the rotted restart must fall to the bottom of the ladder"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ResyncStarted { .. })),
        "the scrub divergence must kick off anti-entropy"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ResyncCompleted { .. })),
        "the anti-entropy repair must complete"
    );

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

    // Same config + seed ⇒ the same flips land in the same frames and
    // images, the same checksums catch them, the same repairs land — a
    // byte-identical event stream.
    let (replay_client, replay) = run(42);
    assert_eq!(report, replay, "corruption chaos runs are deterministic");
    assert_eq!(
        jsonl,
        replay_client.export_jsonl(),
        "event streams replay byte-for-byte"
    );
    println!("replay with the same seed reproduced the report and the trace exactly.");
}
