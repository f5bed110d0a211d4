//! Micro-benchmarks of the admission-control pipeline (§4.2).
//!
//! Each iteration evaluates one more object against a schedule already
//! holding `n`. The utilization tests decide from cached aggregates, so
//! their cost stays flat as `n` grows; the exact response-time test
//! builds the whole task set and grows with it.

use rtpb_bench::harness::{BenchmarkId, Criterion};
use rtpb_bench::{criterion_group, criterion_main};
use rtpb_core::admission::evaluate;
use rtpb_core::config::{ProtocolConfig, SchedulabilityTest};
use rtpb_core::store::ObjectStore;
use rtpb_core::update_sched::UpdateSchedule;
use rtpb_types::{ObjectSpec, Time, TimeDelta};

fn spec() -> ObjectSpec {
    ObjectSpec::builder("bench")
        .update_period(TimeDelta::from_millis(100))
        .primary_bound(TimeDelta::from_millis(150))
        .backup_bound(TimeDelta::from_millis(550))
        .build()
        .expect("valid spec")
}

/// A cheap send keeps 10k objects well inside every bound, so each
/// iteration measures an admission rather than a rejection.
fn config(test: SchedulabilityTest) -> ProtocolConfig {
    ProtocolConfig {
        schedulability_test: test,
        send_cost_base: TimeDelta::from_micros(1),
        send_cost_per_byte: TimeDelta::ZERO,
        ..ProtocolConfig::default()
    }
}

fn admitted(n: usize, config: &ProtocolConfig) -> (ObjectStore, UpdateSchedule) {
    let mut store = ObjectStore::new();
    for _ in 0..n {
        store.register(spec(), Time::ZERO);
    }
    let schedule = UpdateSchedule::from_store(&store, &[], config);
    (store, schedule)
}

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_evaluate");
    let sizes = [1usize, 16, 64, 256, 1_000, 10_000];
    for test in [
        SchedulabilityTest::LiuLayland,
        SchedulabilityTest::Hyperbolic,
        SchedulabilityTest::EdfUtilization,
        SchedulabilityTest::ResponseTime,
    ] {
        let config = config(test);
        for &n in &sizes {
            // The exact test is O(n²) per admission at these periods.
            if test == SchedulabilityTest::ResponseTime && n > 1_000 {
                continue;
            }
            let (store, schedule) = admitted(n, &config);
            let new_id = store.peek_next_id();
            let period_of = |id| store.get(id).map(|e| e.spec().update_period());
            group.bench_with_input(BenchmarkId::new(format!("{test:?}"), n), &n, |b, _| {
                b.iter(|| evaluate(&schedule, &[], new_id, &spec(), &[], period_of, &config));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
