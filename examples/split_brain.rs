//! Split-brain failover: lease expiry, epoch fencing, anti-entropy resync.
//!
//! The serving primary is cut off from every backup while it keeps
//! running — the classic split-brain hazard. Two mechanisms keep the
//! replicas from corrupting each other:
//!
//! 1. **Time-bounded lease.** The primary may only emit updates while
//!    its lease — renewed by backup acknowledgements — is valid. The
//!    lease is sized so that `LEASE_DURATION + clock_skew +
//!    link_delay_bound < DECLARATION_BOUND`: the cut-off primary falls
//!    silent *before* any backup can have declared it dead.
//! 2. **Fencing epochs.** The promotion mints a strictly higher epoch;
//!    every wire frame carries the sender's epoch and every receiver
//!    rejects stale-epoch frames. When the partition heals, the deposed
//!    primary's probes are fenced, it learns of the higher epoch from
//!    the ack, demotes itself, and re-integrates as a backup via
//!    anti-entropy resync (version-vector diff).
//!
//! Set `RTPB_TRACE_OUT=/path/to/trace.jsonl` to write the structured
//! event stream as JSONL.
//!
//! ```text
//! cargo run --example split_brain
//! RTPB_TRACE_OUT=split-brain.jsonl cargo run --example split_brain
//! ```

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::obs::{EventBus, MetricsRegistry};
use rtpb::types::{NodeId, ObjectSpec, Time, TimeDelta};
use rtpb::RtpbClient;
use std::collections::BTreeMap;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn run(seed: u64) -> RtpbClient {
    let config = ClusterConfig {
        seed,
        // Two backups: after the promotion a live replica remains to
        // fence the deposed primary's probes and report the new epoch.
        num_backups: 2,
        bus: EventBus::with_capacity(1 << 18),
        registry: MetricsRegistry::new(),
        // t=2s: the primary is cut off from everyone for 2s — longer
        // than the 300 ms declaration bound, so a backup promotes while
        // the old primary is still alive behind the cut.
        fault_plan: FaultPlan::new().at(
            Time::from_secs(2),
            FaultEvent::PartitionPrimary { duration: ms(2000) },
        ),
        ..ClusterConfig::default()
    };
    let mut client = RtpbClient::new(config);
    client
        .register(
            ObjectSpec::builder("telemetry")
                .update_period(ms(50))
                .primary_bound(ms(100))
                .backup_bound(ms(500))
                .build()
                .expect("valid spec"),
        )
        .expect("admitted");
    client.run_for(TimeDelta::from_secs(8));
    client
}

fn main() {
    let protocol = rtpb::core::config::ProtocolConfig::default();
    println!(
        "lease sizing: lease {} + skew {} < declaration bound {}\n",
        rtpb::core::config::LEASE_DURATION,
        protocol.clock_skew,
        rtpb::core::heartbeat::DECLARATION_BOUND,
    );

    let client = run(42);

    let primary = client.primary().expect("service survived");
    println!(
        "after the storm: {} serves at epoch#{}; name service resolves to {}",
        primary.node(),
        client.cluster().fencing_epoch().expect("serving").value(),
        client.name_service().resolve(),
    );
    assert!(client.has_failed_over(), "the cut must trigger a failover");
    assert_ne!(
        primary.node(),
        NodeId::new(0),
        "the deposed primary must not still be serving"
    );
    assert!(
        client.cluster().deposed_primary().is_none(),
        "the deposed primary must have demoted itself"
    );
    let ex_primary = client
        .backups()
        .into_iter()
        .find(|b| b.node() == NodeId::new(0))
        .expect("the ex-primary re-joined as a backup");
    println!(
        "node#0 demoted and resynced: now a backup at epoch#{} with {} update(s) applied",
        ex_primary.epoch().value(),
        ex_primary.updates_applied(),
    );

    // The fault record: cut at 2s, detected within the declaration
    // bound, recovered (deposed primary resynced) shortly after the 4s
    // heal.
    println!("\nfault record:");
    for record in client.fault_report() {
        println!(
            "  {:?}: injected at {}, detected in {}, recovered in {}, {} retries",
            record.kind,
            record.injected_at,
            record
                .detection_latency()
                .map_or("—".into(), |d| format!("{d}")),
            record
                .recovery_time()
                .map_or("—".into(), |d| format!("{d}")),
            record.retries,
        );
        assert!(record.recovered_at.is_some(), "split-brain must heal");
    }

    // Event summary: the fencing lifecycle must be visible in the trace.
    let events = client.bus().collect();
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &events {
        *by_kind.entry(event.kind.name()).or_insert(0) += 1;
    }
    println!("\nevent trace ({} events):\n", events.len());
    println!("{:<24} {:>8}", "event kind", "count");
    for (kind, count) in &by_kind {
        println!("{kind:<24} {count:>8}");
    }
    for required in [
        "role_transition",
        "stale_epoch_rejected",
        "primary_demoted",
        "resync_started",
        "resync_completed",
    ] {
        assert!(
            by_kind.contains_key(required),
            "split-brain trace must contain {required} events"
        );
    }
    let fenced = client
        .registry()
        .snapshot()
        .counter("cluster.fenced_frames")
        .unwrap_or(0);
    println!("\ncluster.fenced_frames = {fenced}");
    assert!(fenced > 0, "stale-epoch frames must have been fenced");

    // Export + self-validate the JSONL stream.
    let jsonl = client.export_jsonl();
    for line in jsonl.lines() {
        rtpb::obs::validate_line(line).expect("schema-valid trace line");
    }
    println!(
        "trace: {} JSONL lines, all schema-valid.",
        jsonl.lines().count()
    );
    if let Ok(path) = std::env::var("RTPB_TRACE_OUT") {
        std::fs::write(&path, &jsonl).expect("write trace");
        println!("trace written to {path}");
    }

    // Same seed ⇒ the whole split-brain lifecycle replays byte-for-byte.
    let replay = run(42);
    assert_eq!(
        jsonl,
        replay.export_jsonl(),
        "split-brain runs replay byte-identically"
    );
    println!("replay with the same seed reproduced the trace exactly.");
}
