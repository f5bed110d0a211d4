//! One experiment per figure of the paper's evaluation (§5), plus the
//! design-choice ablations.
//!
//! Every figure experiment sweeps the paper's x-axis, averages a few
//! seeded runs per point, and returns a [`Table`] whose series match the
//! paper's curves. Absolute values differ from the 1998 testbed (this
//! substrate is a simulator, not MK 7.2 on a 10 Mb/s LAN); the *shapes*
//! are what `EXPERIMENTS.md` compares.

use crate::table::Table;
use rtpb_core::config::{ProtocolConfig, SchedulingMode};
use rtpb_core::harness::{ClusterConfig, SimCluster};
use rtpb_obs::MetricsRegistry;
use rtpb_sched::analysis::dcs;
use rtpb_sched::exec::{run_dcs, run_edf, run_rm, Horizon};
use rtpb_sched::task::{PeriodicTask, TaskSet};
use rtpb_sched::VarianceBound;
use rtpb_types::{ObjectSpec, TimeDelta};

/// Shared experiment parameters (object shape, run length, seeds).
#[derive(Debug, Clone)]
pub struct FigureDefaults {
    /// Client write period `p_i`.
    pub write_period: TimeDelta,
    /// Primary external bound `δ_i^P`.
    pub primary_bound: TimeDelta,
    /// CPU cost of one client write.
    pub exec_time: TimeDelta,
    /// Payload size in bytes.
    pub size_bytes: usize,
    /// CPU cost of one update transmission (base).
    pub send_cost: TimeDelta,
    /// Virtual time simulated per point.
    pub run_time: TimeDelta,
    /// Seeds averaged per point.
    pub seeds: u64,
}

impl Default for FigureDefaults {
    fn default() -> Self {
        FigureDefaults {
            write_period: TimeDelta::from_millis(100),
            primary_bound: TimeDelta::from_millis(150),
            exec_time: TimeDelta::from_micros(500),
            size_bytes: 64,
            send_cost: TimeDelta::from_millis(3),
            run_time: TimeDelta::from_secs(30),
            seeds: 3,
        }
    }
}

impl FigureDefaults {
    /// Quick variant for smoke tests and CI: shorter runs, one seed.
    #[must_use]
    pub fn quick() -> Self {
        FigureDefaults {
            run_time: TimeDelta::from_secs(5),
            seeds: 1,
            ..FigureDefaults::default()
        }
    }

    fn spec(&self, window_ms: u64, write_period: TimeDelta) -> ObjectSpec {
        // The primary bound must admit the offered write period (gate 1:
        // p ≤ δᴾ); sweeping the write rate therefore scales the bound.
        let primary_bound = self
            .primary_bound
            .max(write_period + TimeDelta::from_millis(50));
        ObjectSpec::builder("bench-obj")
            .update_period(write_period)
            .exec_time(self.exec_time)
            .primary_bound(primary_bound)
            .backup_bound(primary_bound + TimeDelta::from_millis(window_ms))
            .size_bytes(self.size_bytes)
            .build()
            .expect("valid bench spec")
    }

    fn protocol(&self, admission: bool, mode: SchedulingMode) -> ProtocolConfig {
        ProtocolConfig {
            admission_enabled: admission,
            scheduling_mode: mode,
            send_cost_base: self.send_cost,
            ..ProtocolConfig::default()
        }
    }
}

struct RunOutcome {
    mean_response_ms: f64,
    avg_max_distance_ms: f64,
    mean_inconsistency_ms: Option<f64>,
}

#[allow(clippy::too_many_arguments)]
fn run_once(
    defaults: &FigureDefaults,
    window_ms: u64,
    write_period: TimeDelta,
    objects: usize,
    loss: f64,
    admission: bool,
    mode: SchedulingMode,
    seed: u64,
) -> RunOutcome {
    let mut config = ClusterConfig {
        protocol: defaults.protocol(admission, mode),
        seed,
        ..ClusterConfig::default()
    };
    config.link.loss_probability = loss;
    let mut cluster = SimCluster::new(config);
    for _ in 0..objects {
        // With admission enabled some registrations may be rejected —
        // that is the experiment (offered vs accepted load).
        let _ = cluster.register(defaults.spec(window_ms, write_period));
    }
    cluster.run_for(defaults.run_time);
    let report = cluster.report();
    RunOutcome {
        mean_response_ms: report
            .mean_response_time()
            .map_or(0.0, TimeDelta::as_millis_f64),
        avg_max_distance_ms: report
            .average_max_distance()
            .map_or(0.0, TimeDelta::as_millis_f64),
        mean_inconsistency_ms: report
            .mean_inconsistency_duration()
            .map(TimeDelta::as_millis_f64),
    }
}

fn averaged(defaults: &FigureDefaults, mut one: impl FnMut(u64) -> f64) -> f64 {
    let n = defaults.seeds.max(1);
    (0..n).map(|s| one(s * 7919 + 1)).sum::<f64>() / n as f64
}

/// Figures 6 and 7: client response time vs. number of *offered* objects,
/// one series per window size, with or without admission control.
#[must_use]
pub fn response_time_vs_objects(
    defaults: &FigureDefaults,
    windows_ms: &[u64],
    object_counts: &[usize],
    admission: bool,
) -> Table {
    let title = if admission {
        "Figure 6: client response time with admission control (ms)"
    } else {
        "Figure 7: client response time without admission control (ms)"
    };
    let mut table = Table::new(
        title,
        "objects",
        windows_ms.iter().map(|w| format!("window {w}ms")).collect(),
    );
    for &count in object_counts {
        let row = windows_ms
            .iter()
            .map(|&w| {
                Some(averaged(defaults, |seed| {
                    run_once(
                        defaults,
                        w,
                        defaults.write_period,
                        count,
                        0.0,
                        admission,
                        SchedulingMode::Normal,
                        seed,
                    )
                    .mean_response_ms
                }))
            })
            .collect();
        table.push_row(count.to_string(), row);
    }
    table.note(format!(
        "write period {}, send cost {}, {} simulated per point",
        defaults.write_period, defaults.send_cost, defaults.run_time
    ));
    table
}

/// Figure 8: average maximum primary–backup distance vs. message-loss
/// probability, one series per client write rate.
#[must_use]
pub fn distance_vs_loss(
    defaults: &FigureDefaults,
    write_periods_ms: &[u64],
    losses: &[f64],
    window_ms: u64,
    objects: usize,
) -> Table {
    let mut table = Table::new(
        "Figure 8: average maximum primary/backup distance (ms)",
        "loss %",
        write_periods_ms
            .iter()
            .map(|p| format!("write {p}ms"))
            .collect(),
    );
    for &loss in losses {
        let row = write_periods_ms
            .iter()
            .map(|&p| {
                Some(averaged(defaults, |seed| {
                    run_once(
                        defaults,
                        window_ms,
                        TimeDelta::from_millis(p),
                        objects,
                        loss,
                        true,
                        SchedulingMode::Normal,
                        seed,
                    )
                    .avg_max_distance_ms
                }))
            })
            .collect();
        table.push_row(format!("{:.0}", loss * 100.0), row);
    }
    table.note(format!("window {window_ms}ms, {objects} objects"));
    table
}

/// Figures 9 and 10: average maximum distance vs. number of offered
/// objects, one series per window, with or without admission control.
#[must_use]
pub fn distance_vs_objects(
    defaults: &FigureDefaults,
    windows_ms: &[u64],
    object_counts: &[usize],
    admission: bool,
    loss: f64,
) -> Table {
    let title = if admission {
        "Figure 9: avg max primary/backup distance with admission control (ms)"
    } else {
        "Figure 10: avg max primary/backup distance without admission control (ms)"
    };
    let mut table = Table::new(
        title,
        "objects",
        windows_ms.iter().map(|w| format!("window {w}ms")).collect(),
    );
    for &count in object_counts {
        let row = windows_ms
            .iter()
            .map(|&w| {
                Some(averaged(defaults, |seed| {
                    run_once(
                        defaults,
                        w,
                        defaults.write_period,
                        count,
                        loss,
                        admission,
                        SchedulingMode::Normal,
                        seed,
                    )
                    .avg_max_distance_ms
                }))
            })
            .collect();
        table.push_row(count.to_string(), row);
    }
    table.note(format!("loss {:.0}%", loss * 100.0));
    table
}

/// Figures 11 and 12: mean duration of backup inconsistency vs. loss,
/// one series per window, under normal or compressed scheduling.
#[must_use]
pub fn inconsistency_vs_loss(
    defaults: &FigureDefaults,
    windows_ms: &[u64],
    losses: &[f64],
    objects: usize,
    mode: SchedulingMode,
) -> Table {
    let title = match mode {
        SchedulingMode::Normal => {
            "Figure 11: duration of backup inconsistency, normal scheduling (ms)"
        }
        SchedulingMode::Compressed => {
            "Figure 12: duration of backup inconsistency, compressed scheduling (ms)"
        }
    };
    let mut table = Table::new(
        title,
        "loss %",
        windows_ms.iter().map(|w| format!("window {w}ms")).collect(),
    );
    for &loss in losses {
        let row = windows_ms
            .iter()
            .map(|&w| {
                let v = averaged(defaults, |seed| {
                    run_once(
                        defaults,
                        w,
                        defaults.write_period,
                        objects,
                        loss,
                        true,
                        mode,
                        seed,
                    )
                    .mean_inconsistency_ms
                    .unwrap_or(0.0)
                });
                Some(v)
            })
            .collect();
        table.push_row(format!("{:.0}", loss * 100.0), row);
    }
    table.note(format!(
        "{objects} objects, write period {}",
        defaults.write_period
    ));
    table
}

/// The design-choice ablations (DESIGN.md §4): one 5 s run of 8 objects
/// (50 ms writes, 100/500 ms bounds, default seed) per variant of the
/// paper's design, reporting the updates sent and the mean client
/// response time. The variants send on every write (`eager_send`, the
/// coupling §4.3 avoids), ack every update (`ack_updates`), turn
/// admission off, and drop the loss slack (`slack_factor` 1).
#[must_use]
pub fn ablations() -> Table {
    let paper = ProtocolConfig::default();
    let variants = [
        ("paper design", paper.clone()),
        (
            "eager_send",
            ProtocolConfig {
                eager_send: true,
                ..paper.clone()
            },
        ),
        (
            "ack_updates",
            ProtocolConfig {
                ack_updates: true,
                ..paper.clone()
            },
        ),
        (
            "admission off",
            ProtocolConfig {
                admission_enabled: false,
                ..paper.clone()
            },
        ),
        (
            "slack_factor 1",
            ProtocolConfig {
                slack_factor: 1,
                ..paper
            },
        ),
    ];
    let spec = ObjectSpec::builder("ablate")
        .update_period(TimeDelta::from_millis(50))
        .primary_bound(TimeDelta::from_millis(100))
        .backup_bound(TimeDelta::from_millis(500))
        .build()
        .expect("valid ablation spec");
    let mut table = Table::new(
        "Ablations: the paper's design choices",
        "variant",
        vec!["updates sent".into(), "mean response (ms)".into()],
    );
    for (name, protocol) in variants {
        let mut cluster = SimCluster::new(ClusterConfig {
            protocol,
            registry: MetricsRegistry::new(),
            ..ClusterConfig::default()
        });
        for _ in 0..8 {
            let _ = cluster.register(spec.clone());
        }
        cluster.run_for(TimeDelta::from_secs(5));
        let sent = cluster.registry().counter("cluster.updates_sent").get();
        let response = cluster.metrics().mean_response_time();
        table.push_row(
            name.into(),
            vec![Some(sent as f64), response.map(TimeDelta::as_millis_f64)],
        );
    }
    table.note("8 objects, 50 ms writes, 100/500 ms bounds, 5 s simulated");
    table
}

/// The theory-validation table: measured phase variance of each scheduler
/// against the analytic bounds of Theorems 2–3.
#[must_use]
pub fn theory_validation() -> Table {
    let tasks = TaskSet::try_from_iter([
        PeriodicTask::new(TimeDelta::from_millis(10), TimeDelta::from_millis(2)),
        PeriodicTask::new(TimeDelta::from_millis(14), TimeDelta::from_millis(3)),
        PeriodicTask::new(TimeDelta::from_millis(40), TimeDelta::from_millis(6)),
    ])
    .expect("valid task set");
    let x = tasks.utilization();
    let n = tasks.len();
    let horizon = Horizon::cycles(100);

    let rm = run_rm(&tasks, horizon);
    let edf = run_edf(&tasks, horizon);
    let dcs_tl = run_dcs(&tasks, horizon).expect("theorem 3 condition holds");
    assert!(dcs::theorem3_condition(&tasks));

    let mut table = Table::new(
        "Theory: measured phase variance vs analytic bounds (ms)",
        "task",
        vec![
            "RM measured".into(),
            "RM bound".into(),
            "EDF measured".into(),
            "EDF bound".into(),
            "DCS measured".into(),
        ],
    );
    for task in tasks.iter() {
        let rm_bound = VarianceBound::rm_effective(task.period(), task.exec(), x, n);
        let edf_bound = VarianceBound::edf(task.period(), task.exec(), x)
            .map_or(VarianceBound::inherent(task.period(), task.exec()), |b| {
                b.min(VarianceBound::inherent(task.period(), task.exec()))
            });
        table.push_row(
            format!("{}", task.id()),
            vec![
                rm.phase_variance(task.id()).map(TimeDelta::as_millis_f64),
                Some(rm_bound.as_millis_f64()),
                edf.phase_variance(task.id()).map(TimeDelta::as_millis_f64),
                Some(edf_bound.as_millis_f64()),
                dcs_tl
                    .phase_variance(task.id())
                    .map(TimeDelta::as_millis_f64),
            ],
        );
    }
    table.note(format!("utilization {x:.3}, horizon 100 cycles"));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theory_table_has_zero_dcs_variance() {
        let t = theory_validation();
        for (_, row) in t.rows() {
            let dcs_measured = row[4].expect("dcs ran");
            assert_eq!(dcs_measured, 0.0);
            // Measured ≤ bound for RM and EDF.
            if let (Some(m), Some(b)) = (row[0], row[1]) {
                assert!(m <= b + 1e-9, "RM measured {m} > bound {b}");
            }
            if let (Some(m), Some(b)) = (row[2], row[3]) {
                assert!(m <= b + 1e-9, "EDF measured {m} > bound {b}");
            }
        }
    }

    #[test]
    fn quick_response_experiment_shows_admission_flatness() {
        let d = FigureDefaults::quick();
        let t = response_time_vs_objects(&d, &[400], &[2, 32], true);
        let first = t.rows()[0].1[0].unwrap();
        let last = t.rows()[1].1[0].unwrap();
        // With admission, response time stays within a small factor.
        assert!(
            last < first.max(1.0) * 20.0,
            "admitted response time exploded: {first} → {last}"
        );
    }

    #[test]
    fn quick_distance_experiment_grows_with_loss() {
        let d = FigureDefaults {
            run_time: TimeDelta::from_secs(20),
            seeds: 1,
            ..FigureDefaults::default()
        };
        let t = distance_vs_loss(&d, &[100], &[0.0, 0.2], 300, 4);
        let clean = t.rows()[0].1[0].unwrap();
        let lossy = t.rows()[1].1[0].unwrap();
        assert!(
            lossy > clean,
            "distance must grow with loss ({clean} vs {lossy})"
        );
    }
}
