//! What the simulator spends per replicated update: dispatched events and
//! heap allocations per backup apply, on the shape of perfbench's
//! `stream` workload. Each object's send timer and watchdog ride sweeps
//! (one event per group of timers due at one instant), and a steady-state
//! write and flush reuse their buffers, so per apply the simulator spends
//! about the client write, its CPU completion and little else.

use rtpb::core::config::ProtocolConfig;
use rtpb::core::harness::{ClusterConfig, SimCluster};
use rtpb::types::{ObjectSpec, TimeDelta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation the process makes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

/// A perfbench-shaped cluster: `objects` objects of 64 B written every
/// `write_ms`, with the given bounds, costs and backups.
struct Shape {
    objects: usize,
    write_ms: u64,
    exec: TimeDelta,
    primary_bound_ms: u64,
    backup_bound_ms: u64,
    protocol: ProtocolConfig,
    backups: usize,
    loss: f64,
}

/// Events and allocations per backup apply over `window`, after `warmup`.
fn per_apply(shape: &Shape, warmup: TimeDelta, window: TimeDelta) -> (f64, f64) {
    let mut config = ClusterConfig {
        protocol: shape.protocol.clone(),
        num_backups: shape.backups,
        seed: 1,
        ..ClusterConfig::default()
    };
    config.link.loss_probability = shape.loss;
    let mut cluster = SimCluster::new(config);
    let spec = ObjectSpec::builder("budget")
        .update_period(ms(shape.write_ms))
        .exec_time(shape.exec)
        .primary_bound(ms(shape.primary_bound_ms))
        .backup_bound(ms(shape.backup_bound_ms))
        .size_bytes(64)
        .build()
        .unwrap();
    cluster
        .register_many(vec![spec; shape.objects])
        .expect("admission is off");
    cluster.run_for(warmup);
    let applies = |c: &SimCluster| -> u64 { c.backups().iter().map(|b| b.updates_applied()).sum() };
    let (events, allocations, applied) = (
        cluster.events_handled(),
        ALLOCATIONS.load(Ordering::Relaxed),
        applies(&cluster),
    );
    cluster.run_for(window);
    let applied = (applies(&cluster) - applied) as f64;
    assert!(applied > 0.0, "the window must replicate");
    (
        (cluster.events_handled() - events) as f64 / applied,
        (ALLOCATIONS.load(Ordering::Relaxed) - allocations) as f64 / applied,
    )
}

#[test]
fn stream_spends_few_events_and_no_allocation_per_apply() {
    let stream = Shape {
        objects: 5_000,
        write_ms: 50,
        exec: TimeDelta::from_micros(2),
        primary_bound_ms: 150,
        backup_bound_ms: 400,
        protocol: ProtocolConfig {
            admission_enabled: false,
            coalesce_window: ms(10),
            send_cost_base: ms(1),
            send_cost_per_byte: TimeDelta::from_nanos(10),
            log_retention: 1_024,
            snapshot_interval: 256,
            ..ProtocolConfig::default()
        },
        backups: 1,
        loss: 0.0,
    };
    let (events, allocations) = per_apply(&stream, ms(1_500), ms(2_000));
    println!("stream: {events:.3} events and {allocations:.3} allocations per apply");
    assert!(events <= 5.0, "{events:.3} events per apply");
    assert!(allocations <= 0.1, "{allocations:.3} allocations per apply");

    // The failover shape, without its faults: reported, not asserted.
    let failover = Shape {
        objects: 10_000,
        write_ms: 400,
        exec: TimeDelta::ZERO,
        primary_bound_ms: 600,
        backup_bound_ms: 1_500,
        protocol: ProtocolConfig {
            admission_enabled: false,
            log_retention: 65_536,
            snapshot_interval: 16_384,
            send_cost_base: TimeDelta::ZERO,
            send_cost_per_byte: TimeDelta::ZERO,
            ..ProtocolConfig::default()
        },
        backups: 2,
        loss: 0.01,
    };
    let (events, allocations) = per_apply(&failover, ms(1_500), ms(2_000));
    println!("failover: {events:.3} events and {allocations:.3} allocations per apply");
}
