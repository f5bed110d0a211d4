//! Admission control (paper §4.2).
//!
//! Before an object joins the service the primary checks, in order:
//!
//! 1. `p_i ≤ δ_i^P` — the client's own update rate can keep the primary
//!    image within its external bound (Theorem 1 with `v_i = 0`).
//! 2. `δ_i = δ_i^B - δ_i^P > ℓ` — the consistency window exceeds the
//!    communication-delay bound, otherwise backup consistency is
//!    unattainable.
//! 3. Every inter-object constraint `δ_ij` named in the request admits
//!    both members' client periods (Theorem 6 with zero variance:
//!    `p ≤ δ_ij`).
//! 4. The update-transmission task set — every existing object plus the
//!    newcomer, each with period `r_i` derived from its *effective* window
//!    (its own window, tightened by any inter-object constraint) — passes
//!    the configured schedulability test.
//!
//! On rejection the error carries [`QosNegotiation`] hints so the client
//! can renegotiate (§4.2: "The primary can provide feedback so that the
//! client can negotiate for an alternative quality of service").
//!
//! The task set is the primary's [`UpdateSchedule`], kept one admission
//! at a time, so a decision touches only the newcomer and the partners its
//! constraints tighten. One admission costs O(log n) under the
//! utilization tests (Liu & Layland, EDF, hyperbolic), which decide from
//! the cached aggregates, plus a scan of the constraints in force for any
//! naming the newcomer. It costs O(n) when a constraint retimes a partner
//! (the aggregates are re-summed in id order), and O(n) or more under
//! [`SchedulabilityTest::ResponseTime`], whose exact test needs every task.

use crate::config::{ProtocolConfig, SchedulabilityTest};
use crate::update_sched::{tightest_bounds, ScheduleChange, UpdateSchedule, UpdateTask};
use rtpb_sched::analysis::response_time::rta_schedulable;
use rtpb_sched::analysis::utilization::{
    edf_utilization_schedulable, exceeds_unit_utilization, hyperbolic_product_schedulable,
    liu_layland_bound, rm_utilization_schedulable,
};
use rtpb_sched::task::{PeriodicTask, TaskSet};
use rtpb_types::{
    AdmissionError, InterObjectConstraint, ObjectId, ObjectSpec, QosNegotiation, TimeDelta,
};

/// Evaluates an admission request.
///
/// `schedule` holds the already-admitted objects and must not be
/// [stale](UpdateSchedule::is_stale); `constraints` are the inter-object
/// constraints already in force, `new_id` the id the object will receive,
/// and `new_constraints` any constraints between the newcomer and existing
/// objects. `update_period_of` gives a registered object's client update
/// period, `None` for an unknown id (gate 3).
///
/// With `config.admission_enabled == false`, all gates are skipped and the
/// change is computed unconditionally (the paper's Figures 7 and 10).
///
/// On success, returns the change for [`UpdateSchedule::apply`].
///
/// # Errors
///
/// Returns the first failing gate as an [`AdmissionError`].
pub fn evaluate(
    schedule: &UpdateSchedule,
    constraints: &[InterObjectConstraint],
    new_id: ObjectId,
    new_spec: &ObjectSpec,
    new_constraints: &[InterObjectConstraint],
    update_period_of: impl Fn(ObjectId) -> Option<TimeDelta>,
    config: &ProtocolConfig,
) -> Result<ScheduleChange, AdmissionError> {
    if config.admission_enabled {
        check_primary_bound(new_spec)?;
        check_window(new_spec, config)?;
        check_inter_object(update_period_of, new_id, new_spec, new_constraints)?;
    }

    // The newcomer's effective window honours every constraint naming it:
    // with admission off, an earlier registration may have named this id
    // before it existed.
    let window = constraints
        .iter()
        .chain(new_constraints)
        .filter(|c| c.involves(new_id))
        .map(InterObjectConstraint::bound)
        .fold(new_spec.window(), TimeDelta::min);
    let newcomer = UpdateTask::new(window, config.send_cost(new_spec.size_bytes()), config);

    // The only existing tasks an admission can change: scheduled partners
    // whose window a new constraint tightens. A partner not registered yet
    // (admission off) picks the constraint up when it registers.
    let partners = tightest_bounds(
        new_constraints
            .iter()
            .filter_map(|c| Some((c.partner_of(new_id)?, c.bound()))),
    )
    .into_iter()
    .filter_map(|(id, bound)| {
        let task = schedule.task(id)?;
        (bound < task.window()).then(|| (id, UpdateTask::new(bound, task.cost(), config)))
    })
    .collect();
    let change = schedule.propose(new_id, newcomer, partners);

    if config.admission_enabled {
        check_coalescing_window(&change, config)?;
        check_schedulability(schedule, &change, config)?;
    }
    Ok(change)
}

/// Gate 1: `p_i ≤ δ_i^P`.
fn check_primary_bound(spec: &ObjectSpec) -> Result<(), AdmissionError> {
    if spec.update_period() > spec.primary_bound() {
        return Err(AdmissionError::PeriodExceedsPrimaryBound {
            period: spec.update_period(),
            primary_bound: spec.primary_bound(),
            negotiation: QosNegotiation {
                min_primary_bound: Some(spec.update_period()),
                ..QosNegotiation::default()
            },
        });
    }
    Ok(())
}

/// Gate 2: `δ_i > ℓ`.
fn check_window(spec: &ObjectSpec, config: &ProtocolConfig) -> Result<(), AdmissionError> {
    let window = spec.window();
    if window <= config.link_delay_bound {
        return Err(AdmissionError::WindowTooSmall {
            window,
            delay_bound: config.link_delay_bound,
            negotiation: QosNegotiation {
                min_window: Some(config.link_delay_bound + TimeDelta::from_millis(1)),
                ..QosNegotiation::default()
            },
        });
    }
    Ok(())
}

/// Gate 3: Theorem 6 (zero-variance form) for every new constraint.
fn check_inter_object(
    update_period_of: impl Fn(ObjectId) -> Option<TimeDelta>,
    new_id: ObjectId,
    new_spec: &ObjectSpec,
    new_constraints: &[InterObjectConstraint],
) -> Result<(), AdmissionError> {
    for c in new_constraints {
        let partner = c
            .partner_of(new_id)
            .ok_or(AdmissionError::UnknownObject(new_id))?;
        let partner_period =
            update_period_of(partner).ok_or(AdmissionError::UnknownObject(partner))?;
        if new_spec.update_period() > c.bound() {
            return Err(AdmissionError::InterObjectTooTight {
                bound: c.bound(),
                period: new_spec.update_period(),
                object: new_id,
            });
        }
        if partner_period > c.bound() {
            return Err(AdmissionError::InterObjectTooTight {
                bound: c.bound(),
                period: partner_period,
                object: partner,
            });
        }
    }
    Ok(())
}

/// Batching gate: with a coalescing window `W`, an update produced at the
/// start of a send period can sit in the coalescing buffer for up to `W`
/// before its frame leaves, so Theorem 5 tightens to `r_i + W + ℓ ≤ δ_i`
/// for every admitted object (each judged against its *effective* window).
///
/// Only the changed tasks are checked, in id order: the partners, then
/// the newcomer. Every other scheduled task passed this gate when it was
/// admitted or last tightened, and since then its window can only have
/// widened (a deregistration drops constraints). A wider window never
/// fails: `r = (δ - ℓ)/k` grows by at most the widening, and the floors
/// do not grow at all.
fn check_coalescing_window(
    change: &ScheduleChange,
    config: &ProtocolConfig,
) -> Result<(), AdmissionError> {
    let w = config.coalesce_window;
    if w.is_zero() {
        return Ok(());
    }
    for (id, task) in change.tasks() {
        let period = task.normal_period();
        let window = task.window();
        if period + w + config.link_delay_bound > window {
            // The smallest window that fits: r = (δ - ℓ)/k, so the
            // condition (δ - ℓ)/k + W + ℓ ≤ δ solves to
            // δ ≥ ℓ + W·k/(k − 1) — unattainable when k = 1.
            let k = config.slack_factor;
            let min_window = (k > 1).then(|| {
                let extra = w.as_nanos().saturating_mul(k) / (k - 1);
                config.link_delay_bound + TimeDelta::from_nanos(extra)
            });
            return Err(AdmissionError::CoalescingWindowTooWide {
                object: id,
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
    Ok(())
}

/// Gate 4: the update-task set after `change` is schedulable under the
/// configured test. The schedulability gate always judges the
/// guarantee-bearing *normal* periods (Theorem 5 + loss slack); compressed
/// scheduling only packs extra sends into admitted capacity afterwards.
fn check_schedulability(
    schedule: &UpdateSchedule,
    change: &ScheduleChange,
    config: &ProtocolConfig,
) -> Result<(), AdmissionError> {
    let utilization = change.utilization();
    let n = schedule.len() + 1;
    let reject = |bound: f64| AdmissionError::Unschedulable {
        utilization,
        bound,
        negotiation: QosNegotiation {
            max_admissible_utilization: Some(bound),
            ..QosNegotiation::default()
        },
    };
    if exceeds_unit_utilization(utilization) {
        // Unschedulable under every test.
        return Err(reject(1.0));
    }
    let ok = match config.schedulability_test {
        SchedulabilityTest::LiuLayland => rm_utilization_schedulable(utilization, n),
        SchedulabilityTest::Hyperbolic => {
            hyperbolic_product_schedulable(change.hyperbolic_product())
        }
        SchedulabilityTest::EdfUtilization => edf_utilization_schedulable(utilization),
        SchedulabilityTest::ResponseTime => TaskSet::try_from_iter(
            schedule
                .tasks_after(change)
                .map(|t| PeriodicTask::new(t.normal_period(), t.cost())),
        )
        .is_ok_and(|tasks| rta_schedulable(&tasks)),
    };
    if ok {
        Ok(())
    } else {
        let bound = match config.schedulability_test {
            SchedulabilityTest::EdfUtilization => 1.0,
            SchedulabilityTest::LiuLayland
            | SchedulabilityTest::Hyperbolic
            | SchedulabilityTest::ResponseTime => liu_layland_bound(n),
        };
        Err(reject(bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ObjectStore;
    use rtpb_types::Time;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn spec(period: u64, dp: u64, db: u64) -> ObjectSpec {
        ObjectSpec::builder("t")
            .update_period(ms(period))
            .primary_bound(ms(dp))
            .backup_bound(ms(db))
            .build()
            .unwrap()
    }

    /// The admitted objects and their schedule, as a primary keeps them.
    #[derive(Default)]
    struct Admitted {
        store: ObjectStore,
        schedule: UpdateSchedule,
    }

    impl Admitted {
        fn evaluate(
            &self,
            spec: &ObjectSpec,
            new_constraints: &[InterObjectConstraint],
            config: &ProtocolConfig,
        ) -> Result<ScheduleChange, AdmissionError> {
            evaluate(
                &self.schedule,
                &[],
                self.store.peek_next_id(),
                spec,
                new_constraints,
                |id| self.store.get(id).map(|e| e.spec().update_period()),
                config,
            )
        }

        /// The schedule `change` would leave behind.
        fn after(&self, change: ScheduleChange, config: &ProtocolConfig) -> UpdateSchedule {
            let mut schedule = self.schedule.clone();
            schedule.apply(change, config);
            schedule
        }

        fn admit(
            &mut self,
            spec: &ObjectSpec,
            config: &ProtocolConfig,
        ) -> Result<ObjectId, AdmissionError> {
            let change = self.evaluate(spec, &[], config)?;
            self.schedule.apply(change, config);
            Ok(self.store.register(spec.clone(), Time::ZERO))
        }
    }

    #[test]
    fn admits_a_reasonable_object() {
        let admitted = Admitted::default();
        let config = ProtocolConfig::default();
        let change = admitted
            .evaluate(&spec(100, 150, 550), &[], &config)
            .unwrap();
        assert!(change.utilization() < 0.1);
        let schedule = admitted.after(change, &config);
        assert_eq!(schedule.period(ObjectId::new(0)), Some(ms(195)));
    }

    #[test]
    fn gate1_period_exceeding_primary_bound() {
        let err = Admitted::default()
            .evaluate(&spec(200, 150, 550), &[], &ProtocolConfig::default())
            .unwrap_err();
        match err {
            AdmissionError::PeriodExceedsPrimaryBound { negotiation, .. } => {
                assert_eq!(negotiation.min_primary_bound, Some(ms(200)));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn gate2_window_not_exceeding_delay_bound() {
        // Window = 8 ms ≤ ℓ = 10 ms.
        let err = Admitted::default()
            .evaluate(&spec(100, 150, 158), &[], &ProtocolConfig::default())
            .unwrap_err();
        match err {
            AdmissionError::WindowTooSmall {
                window,
                delay_bound,
                negotiation,
            } => {
                assert_eq!(window, ms(8));
                assert_eq!(delay_bound, ms(10));
                assert_eq!(negotiation.min_window, Some(ms(11)));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn gate3_inter_object_constraint_too_tight() {
        let config = ProtocolConfig::default();
        let mut admitted = Admitted::default();
        let existing = admitted.admit(&spec(100, 150, 550), &config).unwrap();
        // δ_ij = 80 ms < the newcomer's 100 ms period.
        let c = InterObjectConstraint::new(ObjectId::new(1), existing, ms(80));
        let err = admitted
            .evaluate(&spec(100, 150, 550), &[c], &config)
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InterObjectTooTight { .. }));
    }

    #[test]
    fn gate3_partner_period_checked_too() {
        let config = ProtocolConfig::default();
        let mut admitted = Admitted::default();
        // Existing object writes every 300 ms.
        let existing = admitted.admit(&spec(300, 400, 900), &config).unwrap();
        // Constraint 250 ms: newcomer (100 ms) fine, partner (300 ms) violates.
        let c = InterObjectConstraint::new(ObjectId::new(1), existing, ms(250));
        let err = admitted
            .evaluate(&spec(100, 150, 550), &[c], &config)
            .unwrap_err();
        match err {
            AdmissionError::InterObjectTooTight { object, period, .. } => {
                assert_eq!(object, existing);
                assert_eq!(period, ms(300));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn gate3_unknown_partner() {
        let ghost = ObjectId::new(77);
        let c = InterObjectConstraint::new(ObjectId::new(0), ghost, ms(500));
        let err = Admitted::default()
            .evaluate(&spec(100, 150, 550), &[c], &ProtocolConfig::default())
            .unwrap_err();
        assert_eq!(err, AdmissionError::UnknownObject(ghost));
    }

    #[test]
    fn gate4_rejects_when_task_set_saturates() {
        // 20 ms windows → 5 ms send periods; at 200 µs per send the
        // utilization climbs 4% per object, so the LL bound trips after a
        // handful of admissions.
        let config = ProtocolConfig {
            send_cost_base: TimeDelta::from_micros(200),
            ..ProtocolConfig::default()
        };
        let mut admitted = Admitted::default();
        let s = ObjectSpec::builder("t")
            .update_period(ms(15))
            .primary_bound(ms(20))
            .backup_bound(ms(40)) // window 20 → period (20-10)/2 = 5 ms
            .exec_time(TimeDelta::from_micros(50))
            .build()
            .unwrap();
        let mut count = 0;
        let mut rejected = None;
        for _ in 0..64 {
            match admitted.admit(&s, &config) {
                Ok(_) => count += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let err = rejected.expect("admission must eventually reject");
        assert!(matches!(err, AdmissionError::Unschedulable { .. }));
        assert!(count > 2, "admitted only {count}");
        if let AdmissionError::Unschedulable {
            utilization, bound, ..
        } = err
        {
            assert!(utilization > bound);
        }
    }

    #[test]
    fn capacity_grows_with_window_size() {
        let config = ProtocolConfig {
            send_cost_base: TimeDelta::from_millis(4),
            ..ProtocolConfig::default()
        };
        let capacity = |window_ms: u64| {
            let mut admitted = Admitted::default();
            let s = spec(100, 150, 150 + window_ms);
            let mut n = 0;
            while admitted.admit(&s, &config).is_ok() {
                n += 1;
                if n > 512 {
                    break;
                }
            }
            n
        };
        let small = capacity(60);
        let large = capacity(400);
        assert!(
            large > small,
            "larger windows must admit more objects ({small} vs {large})"
        );
    }

    #[test]
    fn coalescing_window_within_slack_admits() {
        // Window 400 ms → period 195 ms; 195 + 150 + 10 ≤ 400 holds.
        let config = ProtocolConfig {
            coalesce_window: ms(150),
            ..ProtocolConfig::default()
        };
        let admitted = Admitted::default();
        let change = admitted
            .evaluate(&spec(100, 150, 550), &[], &config)
            .unwrap();
        let schedule = admitted.after(change, &config);
        assert_eq!(schedule.period(ObjectId::new(0)), Some(ms(195)));
    }

    #[test]
    fn coalescing_window_violating_theorem5_rejected() {
        // Window 400 ms → period 195 ms; 195 + 200 + 10 > 400 violates.
        let config = ProtocolConfig {
            coalesce_window: ms(200),
            ..ProtocolConfig::default()
        };
        let err = Admitted::default()
            .evaluate(&spec(100, 150, 550), &[], &config)
            .unwrap_err();
        match err {
            AdmissionError::CoalescingWindowTooWide {
                period,
                coalesce_window,
                window,
                negotiation,
                ..
            } => {
                assert_eq!(period, ms(195));
                assert_eq!(coalesce_window, ms(200));
                assert_eq!(window, ms(400));
                // δ ≥ ℓ + W·k/(k−1) = 10 + 200·2 = 410 ms.
                assert_eq!(negotiation.min_window, Some(ms(410)));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn coalescing_gate_guards_existing_objects_too() {
        // An already-admitted tight-window object must also survive the
        // newcomer's evaluation under the configured coalescing window.
        let config = ProtocolConfig {
            coalesce_window: ms(60),
            ..ProtocolConfig::default()
        };
        let mut admitted = Admitted::default();
        // Window 150 ms → period 70 ms; 70 + 60 + 10 ≤ 150 (just fits).
        let tight = admitted.admit(&spec(100, 150, 300), &config).unwrap();
        // A roomy newcomer is fine and must not dislodge the tight object.
        let change = admitted
            .evaluate(&spec(100, 150, 550), &[], &config)
            .unwrap();
        assert_eq!(admitted.after(change, &config).period(tight), Some(ms(70)));

        // But an inter-object constraint that tightens the pair below the
        // coalescing headroom is rejected, naming the partner first.
        // Effective window 120 ms → period 55 ms; 55 + 60 + 10 > 120.
        let c = InterObjectConstraint::new(ObjectId::new(1), tight, ms(120));
        let err = admitted
            .evaluate(&spec(100, 150, 550), &[c], &config)
            .unwrap_err();
        match err {
            AdmissionError::CoalescingWindowTooWide { object, window, .. } => {
                assert_eq!(object, tight);
                assert_eq!(window, ms(120));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn disabled_admission_skips_all_gates() {
        let config = ProtocolConfig {
            admission_enabled: false,
            ..ProtocolConfig::default()
        };
        let admitted = Admitted::default();
        // Violates gates 1 and 2; admitted anyway.
        let change = admitted
            .evaluate(&spec(200, 150, 155), &[], &config)
            .unwrap();
        assert!(admitted
            .after(change, &config)
            .period(ObjectId::new(0))
            .is_some());
    }

    #[test]
    fn inter_object_constraint_tightens_send_periods() {
        let config = ProtocolConfig::default();
        let mut admitted = Admitted::default();
        let a = admitted.admit(&spec(100, 150, 550), &config).unwrap();
        let b_id = ObjectId::new(1);
        let c = InterObjectConstraint::new(b_id, a, ms(200));
        let change = admitted
            .evaluate(&spec(100, 150, 550), &[c], &config)
            .unwrap();
        let schedule = admitted.after(change, &config);
        // Both members' effective window is min(400, 200) = 200 →
        // period (200 - 10)/2 = 95 ms.
        assert_eq!(schedule.period(a), Some(ms(95)));
        assert_eq!(schedule.period(b_id), Some(ms(95)));
    }

    #[test]
    fn earlier_constraint_on_an_unregistered_id_applies_when_it_registers() {
        // With admission off, object 0 may name id 1 before it exists.
        let config = ProtocolConfig {
            admission_enabled: false,
            ..ProtocolConfig::default()
        };
        let early = [InterObjectConstraint::new(
            ObjectId::new(0),
            ObjectId::new(1),
            ms(200),
        )];
        let schedule = UpdateSchedule::new();
        let first = evaluate(
            &schedule,
            &[],
            ObjectId::new(0),
            &spec(100, 150, 550),
            &early,
            |_| None,
            &config,
        )
        .unwrap();
        let mut schedule = schedule;
        schedule.apply(first, &config);
        let second = evaluate(
            &schedule,
            &early,
            ObjectId::new(1),
            &spec(100, 150, 550),
            &[],
            |_| None,
            &config,
        )
        .unwrap();
        schedule.apply(second, &config);
        assert_eq!(schedule.period(ObjectId::new(0)), Some(ms(95)));
        assert_eq!(schedule.period(ObjectId::new(1)), Some(ms(95)));
    }

    #[test]
    fn response_time_test_admits_more_than_liu_layland() {
        // Window 14 ms → normal period (14 - 10)/1 = 4 ms at a 2 ms cost:
        // U = 0.5 per object. RTA is exact where the LL bound is only
        // sufficient.
        let base = ProtocolConfig {
            send_cost_base: TimeDelta::from_millis(2),
            send_cost_per_byte: TimeDelta::ZERO,
            slack_factor: 1,
            ..ProtocolConfig::default()
        };
        let ll = ProtocolConfig {
            schedulability_test: SchedulabilityTest::LiuLayland,
            ..base.clone()
        };
        let rta = ProtocolConfig {
            schedulability_test: SchedulabilityTest::ResponseTime,
            ..base
        };
        let count_admitted = |config: &ProtocolConfig| {
            let mut admitted = Admitted::default();
            let s = ObjectSpec::builder("t")
                .update_period(ms(8))
                .exec_time(TimeDelta::from_micros(10))
                .primary_bound(ms(8))
                .backup_bound(ms(22))
                .build()
                .unwrap();
            let mut n = 0;
            while admitted.admit(&s, config).is_ok() {
                n += 1;
                if n > 10 {
                    break;
                }
            }
            n
        };
        let n_ll = count_admitted(&ll);
        let n_rta = count_admitted(&rta);
        assert!(
            n_rta >= n_ll,
            "RTA ({n_rta}) must admit at least LL ({n_ll})"
        );
    }
}
