//! Micro-benchmarks of the hot protocol paths: wire codec and end-to-end
//! virtual-time simulation throughput.

use rtpb_bench::harness::{BenchmarkId, Criterion, Throughput};
use rtpb_bench::{criterion_group, criterion_main};
use rtpb_core::harness::{ClusterConfig, SimCluster};
use rtpb_core::wire::WireMessage;
use rtpb_obs::MetricsRegistry;
use rtpb_types::{Epoch, ObjectId, ObjectSpec, Time, TimeDelta, Version};

fn update_msg(payload_len: usize) -> WireMessage {
    WireMessage::Update {
        epoch: Epoch::INITIAL,
        object: ObjectId::new(3),
        version: Version::new(42),
        timestamp: Time::from_millis(1234),
        seq: 42,
        payload: vec![0xAB; payload_len],
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    for &len in &[64usize, 1024, 16384] {
        let msg = update_msg(len);
        let bytes = msg.encode();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", len), &msg, |b, m| {
            b.iter(|| m.encode());
        });
        group.bench_with_input(BenchmarkId::new("decode", len), &bytes, |b, bytes| {
            b.iter(|| WireMessage::decode(bytes).expect("valid"));
        });
    }
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("one_object_one_virtual_second", |b| {
        b.iter(|| {
            let mut cluster = SimCluster::new(ClusterConfig {
                registry: MetricsRegistry::new(),
                ..ClusterConfig::default()
            });
            let spec = ObjectSpec::builder("bench")
                .update_period(TimeDelta::from_millis(100))
                .primary_bound(TimeDelta::from_millis(150))
                .backup_bound(TimeDelta::from_millis(550))
                .build()
                .expect("valid");
            cluster.register(spec).expect("admitted");
            cluster.run_for(TimeDelta::from_secs(1));
            cluster
                .registry()
                .snapshot()
                .counter("cluster.updates_sent")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_simulation);
criterion_main!(benches);
