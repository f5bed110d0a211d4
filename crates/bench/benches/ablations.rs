//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! - **Decoupling** client writes from backup updates (§4.3) vs.
//!   write-through (`eager_send`).
//! - **No per-update acks** vs. acking every update (`ack_updates`).
//! - **Admission control** on vs. off.
//! - **Loss slack** (`slack_factor` 2, the paper's choice) vs. none.
//!
//! Each variant runs the same simulated workload; Criterion reports the
//! wall-time cost, and the printed counters show the protocol-level
//! differences (messages, response times).

use rtpb_bench::harness::{BenchmarkId, Criterion};
use rtpb_bench::{criterion_group, criterion_main};
use rtpb_core::config::ProtocolConfig;
use rtpb_core::harness::{ClusterConfig, SimCluster};
use rtpb_obs::MetricsRegistry;
use rtpb_types::{ObjectSpec, TimeDelta};

fn spec() -> ObjectSpec {
    ObjectSpec::builder("ablate")
        .update_period(TimeDelta::from_millis(50))
        .primary_bound(TimeDelta::from_millis(100))
        .backup_bound(TimeDelta::from_millis(500))
        .build()
        .expect("valid spec")
}

fn run_variant(protocol: ProtocolConfig) -> (u64, f64) {
    let config = ClusterConfig {
        protocol,
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    let mut cluster = SimCluster::new(config);
    for _ in 0..8 {
        let _ = cluster.register(spec());
    }
    cluster.run_for(TimeDelta::from_secs(5));
    let mean_response = cluster
        .metrics()
        .mean_response_time()
        .map_or(0.0, TimeDelta::as_millis_f64);
    let sent = cluster
        .registry()
        .snapshot()
        .counter("cluster.updates_sent");
    (sent.unwrap_or(0), mean_response)
}

fn bench_ablations(c: &mut Criterion) {
    let variants: Vec<(&str, ProtocolConfig)> = vec![
        ("paper_design", ProtocolConfig::default()),
        (
            "coupled_writes",
            ProtocolConfig {
                eager_send: true,
                ..ProtocolConfig::default()
            },
        ),
        (
            "acked_updates",
            ProtocolConfig {
                ack_updates: true,
                ..ProtocolConfig::default()
            },
        ),
        (
            "no_admission",
            ProtocolConfig {
                admission_enabled: false,
                ..ProtocolConfig::default()
            },
        ),
        (
            "no_loss_slack",
            ProtocolConfig {
                slack_factor: 1,
                ..ProtocolConfig::default()
            },
        ),
    ];

    // Print the protocol-level counters once, so bench logs double as an
    // ablation table.
    for (name, protocol) in &variants {
        let (updates, response_ms) = run_variant(protocol.clone());
        eprintln!("ablation {name}: updates_sent={updates}, mean_response={response_ms:.3}ms");
    }

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    for (name, protocol) in variants {
        group.bench_with_input(BenchmarkId::new("run_5s", name), &protocol, |b, p| {
            b.iter(|| run_variant(p.clone()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
