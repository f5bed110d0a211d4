//! The three workloads: their object sets, cluster settings, open-loop
//! schedules and fault plans.

use rtpb_core::config::{ProtocolConfig, SchedulingMode};
use rtpb_core::harness::{ClusterConfig, FaultEvent};
use rtpb_obs::{EventBus, MetricsRegistry};
use rtpb_types::{ObjectSpec, TimeDelta};

/// Event-bus retention for traced runs: far above what any workload
/// emits, so `EventBus::dropped` stays 0.
const BUS_CAPACITY: usize = 1 << 26;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream,
    ReadFleet,
    Failover,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::ReadFleet, Workload::Failover];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::ReadFleet => "read_fleet",
            Workload::Failover => "failover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one workload fixes. Times are virtual.
#[derive(Debug, Clone)]
pub struct Shape {
    pub workload: Workload,
    pub objects: usize,
    pub backups: usize,
    pub write_period: TimeDelta,
    pub primary_bound: TimeDelta,
    pub backup_bound: TimeDelta,
    pub coalesce_window: TimeDelta,
    /// Loss probability of every primary→backup data path.
    pub loss: f64,
    pub payload_bytes: usize,
    pub exec_time: TimeDelta,
    pub send_cost_base: TimeDelta,
    pub send_cost_per_byte: TimeDelta,
    pub log_retention: usize,
    pub snapshot_interval: u64,
    /// Shortest warm-up; set-up then runs on until every replica holds
    /// a value for every object.
    pub warmup: TimeDelta,
    /// Length of the measured window, in 1 ms steps.
    pub window_ms: u64,
    /// `RtpbClient::read` calls due at the start of every step.
    pub reads_per_ms: u32,
    /// One session write after this many reads (0: no session writes).
    pub reads_per_write: u32,
    /// `RtpbClient::write` calls due at the start of every step.
    pub writes_per_ms: u32,
    /// Faults injected at the start of the given step.
    pub faults: Vec<(u64, FaultEvent)>,
}

/// Host index of the backup the failover plan crashes and restarts.
pub const RESTARTED_HOST: usize = 0;

impl Shape {
    /// The workload as the benchmark measures it.
    pub fn full(workload: Workload) -> Shape {
        match workload {
            // The update pipeline at 5k objects: about 467 updates of
            // 64 B per batch frame, below the 64 KiB datagram cap.
            Workload::Stream => Shape {
                workload,
                objects: 5_000,
                backups: 1,
                write_period: TimeDelta::from_millis(50),
                primary_bound: TimeDelta::from_millis(150),
                backup_bound: TimeDelta::from_millis(400),
                coalesce_window: TimeDelta::from_millis(10),
                loss: 0.0,
                payload_bytes: 64,
                exec_time: TimeDelta::from_micros(2),
                send_cost_base: TimeDelta::from_millis(1),
                send_cost_per_byte: TimeDelta::from_nanos(10),
                log_retention: 1024,
                snapshot_interval: 256,
                warmup: TimeDelta::from_millis(500),
                window_ms: 4_000,
                reads_per_ms: 0,
                reads_per_write: 0,
                writes_per_ms: 0,
                faults: Vec::new(),
            },
            // 200k certified reads per virtual second over four backups,
            // one session write per 99 reads.
            Workload::ReadFleet => Shape {
                workload,
                objects: 2_000,
                backups: 4,
                write_period: TimeDelta::from_millis(500),
                primary_bound: TimeDelta::from_millis(600),
                backup_bound: TimeDelta::from_millis(1_000),
                coalesce_window: TimeDelta::ZERO,
                loss: 0.0,
                payload_bytes: 64,
                exec_time: TimeDelta::from_micros(1),
                send_cost_base: TimeDelta::from_micros(8),
                send_cost_per_byte: TimeDelta::from_nanos(10),
                log_retention: 1024,
                snapshot_interval: 256,
                warmup: TimeDelta::from_millis(1_000),
                window_ms: 2_000,
                reads_per_ms: 200,
                reads_per_write: 99,
                writes_per_ms: 0,
                faults: Vec::new(),
            },
            // Registration, detection, the catch-up ladder, the log and
            // retransmission at 10k objects under 1% data-path loss.
            //
            // The primary's CPU work costs nothing here: a primary crash
            // while the CPU model has an item in service leaves its
            // completion event behind, which then panics the harness
            // ("completion with idle CPU"; about one seed in twenty at a
            // 1 µs cost). Zero-cost items are in service only at the
            // instant they arrive, and faults land off that grid (see
            // `run::FAULT_OFFSET`).
            Workload::Failover => Shape {
                workload,
                objects: 10_000,
                backups: 2,
                write_period: TimeDelta::from_millis(400),
                primary_bound: TimeDelta::from_millis(600),
                backup_bound: TimeDelta::from_millis(1_500),
                coalesce_window: TimeDelta::ZERO,
                loss: 0.01,
                payload_bytes: 64,
                exec_time: TimeDelta::ZERO,
                send_cost_base: TimeDelta::ZERO,
                send_cost_per_byte: TimeDelta::ZERO,
                log_retention: 65_536,
                snapshot_interval: 16_384,
                warmup: TimeDelta::from_millis(1_000),
                window_ms: 5_000,
                reads_per_ms: 0,
                reads_per_write: 0,
                writes_per_ms: 1,
                faults: vec![
                    (
                        1_000,
                        FaultEvent::CrashBackup {
                            host: RESTARTED_HOST,
                        },
                    ),
                    (
                        1_100,
                        FaultEvent::RestartBackup {
                            host: RESTARTED_HOST,
                        },
                    ),
                    (3_000, FaultEvent::CrashPrimary),
                ],
            },
        }
    }

    /// A small instance with the same structure, for the self-tests.
    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Shape {
        let full = Shape::full(workload);
        match workload {
            Workload::Stream => Shape {
                objects: 40,
                window_ms: 600,
                ..full
            },
            Workload::ReadFleet => Shape {
                objects: 30,
                window_ms: 200,
                reads_per_ms: 20,
                ..full
            },
            Workload::Failover => Shape {
                objects: 60,
                window_ms: 3_000,
                log_retention: 4_096,
                snapshot_interval: 1_024,
                faults: vec![
                    (
                        200,
                        FaultEvent::CrashBackup {
                            host: RESTARTED_HOST,
                        },
                    ),
                    (
                        230,
                        FaultEvent::RestartBackup {
                            host: RESTARTED_HOST,
                        },
                    ),
                    (1_000, FaultEvent::CrashPrimary),
                ],
                ..full
            },
        }
    }

    pub fn spec(&self) -> ObjectSpec {
        ObjectSpec::builder(self.workload.name())
            .update_period(self.write_period)
            .exec_time(self.exec_time)
            .primary_bound(self.primary_bound)
            .backup_bound(self.backup_bound)
            .size_bytes(self.payload_bytes)
            .build()
            .expect("workload spec is valid")
    }

    pub fn protocol(&self) -> ProtocolConfig {
        ProtocolConfig {
            // Every workload measures an admitted set at full size, so
            // the gate must not shed part of it.
            admission_enabled: false,
            scheduling_mode: SchedulingMode::Normal,
            send_cost_base: self.send_cost_base,
            send_cost_per_byte: self.send_cost_per_byte,
            coalesce_window: self.coalesce_window,
            log_retention: self.log_retention,
            snapshot_interval: self.snapshot_interval,
            ..ProtocolConfig::default()
        }
    }

    /// The cluster for `seed`; `traced` turns on the event bus and the
    /// metrics registry.
    pub fn cluster_config(&self, seed: u64, traced: bool) -> ClusterConfig {
        let mut config = ClusterConfig {
            protocol: self.protocol(),
            num_backups: self.backups,
            seed,
            ..ClusterConfig::default()
        };
        config.link.loss_probability = self.loss;
        if traced {
            config.bus = EventBus::with_capacity(BUS_CAPACITY);
            config.registry = MetricsRegistry::new();
        }
        config
    }
}
