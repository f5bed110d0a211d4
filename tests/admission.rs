//! Incremental admission (§4.2) against a from-scratch oracle.
//!
//! The primary keeps its update schedule one admission at a time. The
//! oracle here re-derives every decision and every send period from the
//! whole object set on each registration, so any drift in the cached
//! aggregates, the partner tightening or the gate order shows up as a
//! mismatch.

use rtpb::core::config::{ProtocolConfig, SchedulabilityTest, SchedulingMode};
use rtpb::core::primary::Primary;
use rtpb::core::update_sched::COMPRESSED_TARGET_UTILIZATION;
use rtpb::sched::analysis::response_time::rta_schedulable;
use rtpb::sched::analysis::utilization::{
    edf_schedulable, hyperbolic_schedulable, liu_layland_bound, rm_schedulable,
};
use rtpb::sched::task::{PeriodicTask, TaskSet};
use rtpb::sim::propcheck::{run_cases, Gen};
use rtpb::types::{
    AdmissionError, InterObjectConstraint, NodeId, ObjectId, ObjectSpec, QosNegotiation, Time,
    TimeDelta,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

/// Registers and deregisters like a primary, but decides every admission
/// from scratch over the whole object set.
struct Oracle {
    config: ProtocolConfig,
    specs: BTreeMap<ObjectId, ObjectSpec>,
    constraints: Vec<InterObjectConstraint>,
    periods: BTreeMap<ObjectId, TimeDelta>,
    next_id: u32,
}

impl Oracle {
    fn new(config: ProtocolConfig) -> Self {
        Oracle {
            config,
            specs: BTreeMap::new(),
            constraints: Vec::new(),
            periods: BTreeMap::new(),
            next_id: 0,
        }
    }

    fn register(&mut self, spec: &ObjectSpec) -> Result<ObjectId, AdmissionError> {
        let id = ObjectId::new(self.next_id);
        let new_constraints: Vec<InterObjectConstraint> = spec
            .constraints()
            .iter()
            .map(|&(partner, bound)| InterObjectConstraint::new(id, partner, bound))
            .collect();
        self.periods = self.evaluate(id, spec, &new_constraints)?;
        self.specs.insert(id, spec.clone());
        self.constraints.extend(new_constraints);
        self.next_id += 1;
        Ok(id)
    }

    /// Deregistration drops the object's constraints and its own period;
    /// every other period stays until the next admission.
    fn deregister(&mut self, id: ObjectId) -> bool {
        let removed = self.specs.remove(&id).is_some();
        if removed {
            self.constraints.retain(|c| !c.involves(id));
            self.periods.remove(&id);
        }
        removed
    }

    /// The send period of every object after admitting `new_spec`.
    fn evaluate(
        &self,
        new_id: ObjectId,
        new_spec: &ObjectSpec,
        new_constraints: &[InterObjectConstraint],
    ) -> Result<BTreeMap<ObjectId, TimeDelta>, AdmissionError> {
        let config = &self.config;
        let ell = config.link_delay_bound;
        if config.admission_enabled {
            if new_spec.update_period() > new_spec.primary_bound() {
                return Err(AdmissionError::PeriodExceedsPrimaryBound {
                    period: new_spec.update_period(),
                    primary_bound: new_spec.primary_bound(),
                    negotiation: QosNegotiation {
                        min_primary_bound: Some(new_spec.update_period()),
                        ..QosNegotiation::default()
                    },
                });
            }
            if new_spec.window() <= ell {
                return Err(AdmissionError::WindowTooSmall {
                    window: new_spec.window(),
                    delay_bound: ell,
                    negotiation: QosNegotiation {
                        min_window: Some(ell + ms(1)),
                        ..QosNegotiation::default()
                    },
                });
            }
            for c in new_constraints {
                let partner = c
                    .partner_of(new_id)
                    .ok_or(AdmissionError::UnknownObject(new_id))?;
                let partner_spec = self
                    .specs
                    .get(&partner)
                    .ok_or(AdmissionError::UnknownObject(partner))?;
                for (object, period) in [
                    (new_id, new_spec.update_period()),
                    (partner, partner_spec.update_period()),
                ] {
                    if period > c.bound() {
                        return Err(AdmissionError::InterObjectTooTight {
                            bound: c.bound(),
                            period,
                            object,
                        });
                    }
                }
            }
        }

        let all: Vec<InterObjectConstraint> = self
            .constraints
            .iter()
            .chain(new_constraints)
            .copied()
            .collect();
        // (id, effective window, cost, normal period), newcomer last.
        let tasks: Vec<(ObjectId, TimeDelta, TimeDelta, TimeDelta)> = self
            .specs
            .iter()
            .map(|(&id, spec)| (id, spec))
            .chain(std::iter::once((new_id, new_spec)))
            .map(|(id, spec)| {
                let window = all
                    .iter()
                    .filter(|c| c.involves(id))
                    .map(InterObjectConstraint::bound)
                    .fold(spec.window(), TimeDelta::min);
                let cost = config.send_cost(spec.size_bytes());
                // Theorem 5 with loss slack, r = (δ - ℓ)/k, floored at
                // the send cost and 1 ms.
                let normal = window
                    .checked_sub(ell)
                    .map(|slack| slack / config.slack_factor)
                    .filter(|r| !r.is_zero())
                    .unwrap_or(ms(1));
                (id, window, cost, normal.max(cost).max(ms(1)))
            })
            .collect();
        let utilization: f64 = tasks
            .iter()
            .map(|&(_, _, cost, period)| cost.as_nanos() as f64 / period.as_nanos() as f64)
            .sum();

        if config.admission_enabled {
            let w = config.coalesce_window;
            for &(object, window, _, period) in &tasks {
                if !w.is_zero() && period + w + ell > window {
                    let k = config.slack_factor;
                    let min_window = (k > 1).then(|| {
                        ell + TimeDelta::from_nanos(w.as_nanos().saturating_mul(k) / (k - 1))
                    });
                    return Err(AdmissionError::CoalescingWindowTooWide {
                        object,
                        period,
                        coalesce_window: w,
                        window,
                        negotiation: QosNegotiation {
                            min_window,
                            ..QosNegotiation::default()
                        },
                    });
                }
            }
            let reject = |bound: f64| AdmissionError::Unschedulable {
                utilization,
                bound,
                negotiation: QosNegotiation {
                    max_admissible_utilization: Some(bound),
                    ..QosNegotiation::default()
                },
            };
            let Ok(set) = TaskSet::try_from_iter(
                tasks
                    .iter()
                    .map(|&(_, _, cost, period)| PeriodicTask::new(period, cost)),
            ) else {
                return Err(reject(1.0));
            };
            let n = tasks.len();
            let (schedulable, bound) = match config.schedulability_test {
                SchedulabilityTest::LiuLayland => (rm_schedulable(&set), liu_layland_bound(n)),
                SchedulabilityTest::Hyperbolic => {
                    (hyperbolic_schedulable(&set), liu_layland_bound(n))
                }
                SchedulabilityTest::ResponseTime => (rta_schedulable(&set), liu_layland_bound(n)),
                SchedulabilityTest::EdfUtilization => (edf_schedulable(&set), 1.0),
            };
            if !schedulable {
                return Err(reject(bound));
            }
        }

        let target = COMPRESSED_TARGET_UTILIZATION;
        let ratio = (config.scheduling_mode == SchedulingMode::Compressed
            && utilization > 0.0
            && utilization < target)
            .then(|| {
                (
                    (utilization * 1_000_000.0) as u64,
                    ((target * 1_000_000.0) as u64).max(1),
                )
            });
        Ok(tasks
            .iter()
            .map(|&(id, _, cost, period)| {
                let period = match ratio {
                    Some((num, den)) => period.mul_ratio(num, den).max(cost).max(ms(1)),
                    None => period,
                };
                (id, period)
            })
            .collect())
    }
}

fn random_spec(g: &mut Gen, next_id: u32) -> ObjectSpec {
    let period = g.u64_in(10, 120);
    // Sometimes below the update period (gate 1) or a window at or below
    // the 10 ms delay bound (gate 2).
    let primary = period + g.u64_in(0, 40) - 5;
    let window = g.u64_in(5, 500);
    let mut builder = ObjectSpec::builder("obj")
        .update_period(ms(period))
        .primary_bound(ms(primary))
        .backup_bound(ms(primary + window))
        .size_bytes(g.usize_in(1, 4096));
    if g.chance(0.3) {
        for _ in 0..g.usize_in(1, 3) {
            // Registered, deregistered, the newcomer's own id, or one not
            // registered yet.
            let partner = ObjectId::new(g.u64_in(0, u64::from(next_id) + 2) as u32);
            builder = builder.constraint(partner, ms(g.u64_in(15, 300)));
        }
    }
    builder.build().expect("valid spec")
}

fn configs() -> Vec<ProtocolConfig> {
    let mut configs = Vec::new();
    for test in [
        SchedulabilityTest::LiuLayland,
        SchedulabilityTest::Hyperbolic,
        SchedulabilityTest::ResponseTime,
        SchedulabilityTest::EdfUtilization,
    ] {
        for scheduling_mode in [SchedulingMode::Normal, SchedulingMode::Compressed] {
            for admission_enabled in [true, false] {
                for coalesce_window in [TimeDelta::ZERO, ms(40)] {
                    configs.push(ProtocolConfig {
                        schedulability_test: test,
                        scheduling_mode,
                        admission_enabled,
                        coalesce_window,
                        ..ProtocolConfig::default()
                    });
                }
            }
        }
    }
    configs
}

#[test]
fn incremental_admission_matches_a_from_scratch_oracle() {
    run_cases("incremental_admission", 24, |g| {
        for base in configs() {
            let config = ProtocolConfig {
                slack_factor: g.u64_in(1, 4),
                send_cost_base: TimeDelta::from_micros(g.u64_in(50, 8_000)),
                ..base
            };
            // The exact test is O(n²) per admission: keep its sets small.
            let steps = if config.schedulability_test == SchedulabilityTest::ResponseTime {
                30
            } else {
                60
            };
            let mut primary = Primary::new(NodeId::new(0), config.clone());
            let mut oracle = Oracle::new(config);
            for _ in 0..steps {
                if g.chance(0.2) {
                    let id = ObjectId::new(g.u64_in(0, u64::from(oracle.next_id) + 1) as u32);
                    assert_eq!(primary.deregister(id), oracle.deregister(id));
                } else {
                    let spec = random_spec(g, oracle.next_id);
                    assert_eq!(
                        primary.register(spec.clone(), Time::ZERO),
                        oracle.register(&spec),
                        "{spec}"
                    );
                }
                for id in (0..=oracle.next_id).map(ObjectId::new) {
                    assert_eq!(
                        primary.send_period(id),
                        oracle.periods.get(&id).copied(),
                        "{id}"
                    );
                }
            }
        }
    });
}

#[test]
fn registering_ten_thousand_objects_is_not_quadratic() {
    let config = ProtocolConfig {
        send_cost_base: TimeDelta::from_micros(1),
        send_cost_per_byte: TimeDelta::ZERO,
        ..ProtocolConfig::default()
    };
    assert!(config.admission_enabled);
    assert_eq!(config.schedulability_test, SchedulabilityTest::LiuLayland);
    let spec = ObjectSpec::builder("scale")
        .update_period(ms(100))
        .primary_bound(ms(150))
        .backup_bound(ms(550))
        .build()
        .unwrap();
    let mut primary = Primary::new(NodeId::new(0), config);
    let started = Instant::now();
    for _ in 0..10_000 {
        primary.register(spec.clone(), Time::ZERO).unwrap();
    }
    let elapsed = started.elapsed();
    assert_eq!(primary.store().len(), 10_000);
    assert!(
        elapsed < Duration::from_secs(10),
        "10k registrations took {elapsed:?}"
    );
}
