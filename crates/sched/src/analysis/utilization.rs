//! Utilization-based schedulability tests.

use crate::task::TaskSet;

/// The Liu & Layland rate-monotonic utilization bound `n(2^{1/n} - 1)`.
///
/// A set of `n` implicit-deadline periodic tasks is RM-schedulable if its
/// total utilization does not exceed this bound (sufficient, not
/// necessary). As `n → ∞` the bound tends to `ln 2 ≈ 0.6931`.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// use rtpb_sched::analysis::utilization::liu_layland_bound;
///
/// assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
/// assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-4);
/// assert!(liu_layland_bound(100) > 0.69);
/// ```
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n > 0, "bound undefined for zero tasks");
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Sufficient RM test: `U ≤ n(2^{1/n} - 1)`.
///
/// This is the test the paper's admission controller runs ("the primary
/// will perform a schedulability test based on the rate-monotonic
/// scheduling algorithm", §4.2).
///
/// # Examples
///
/// ```
/// use rtpb_sched::analysis::utilization::rm_schedulable;
/// use rtpb_sched::task::{PeriodicTask, TaskSet};
/// use rtpb_types::TimeDelta;
///
/// # fn main() -> Result<(), rtpb_sched::task::TaskSetError> {
/// let light = TaskSet::try_from_iter([
///     PeriodicTask::new(TimeDelta::from_millis(10), TimeDelta::from_millis(3)),
///     PeriodicTask::new(TimeDelta::from_millis(20), TimeDelta::from_millis(6)),
/// ])?;
/// assert!(rm_schedulable(&light));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn rm_schedulable(tasks: &TaskSet) -> bool {
    rm_utilization_schedulable(tasks.utilization(), tasks.len())
}

/// [`rm_schedulable`] on aggregates: `n` tasks of total utilization
/// `utilization`. Lets a caller that maintains the sum incrementally
/// decide without building a [`TaskSet`].
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn rm_utilization_schedulable(utilization: f64, n: usize) -> bool {
    utilization <= liu_layland_bound(n) + 1e-12
}

/// The hyperbolic RM bound (Bini & Buttazzo): `Π (U_i + 1) ≤ 2`.
///
/// Strictly dominates the Liu & Layland test: anything the LL test admits,
/// this admits too, and it admits more. Offered as the
/// `SchedulabilityTest::Hyperbolic` admission option.
///
/// # Examples
///
/// ```
/// use rtpb_sched::analysis::utilization::hyperbolic_schedulable;
/// use rtpb_sched::task::{PeriodicTask, TaskSet};
/// use rtpb_types::TimeDelta;
///
/// # fn main() -> Result<(), rtpb_sched::task::TaskSetError> {
/// // U = 0.9 split evenly: fails LL (0.828) but the product
/// // (1.45)(1.45) = 2.1 > 2 also fails hyperbolic; harmonic-ish splits pass.
/// let set = TaskSet::try_from_iter([
///     PeriodicTask::new(TimeDelta::from_millis(10), TimeDelta::from_millis(5)),
///     PeriodicTask::new(TimeDelta::from_millis(30), TimeDelta::from_millis(9)),
/// ])?;
/// assert!(hyperbolic_schedulable(&set));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn hyperbolic_schedulable(tasks: &TaskSet) -> bool {
    hyperbolic_product_schedulable(tasks.iter().map(|t| t.utilization() + 1.0).product())
}

/// [`hyperbolic_schedulable`] on the aggregate `Π (U_i + 1)`.
#[must_use]
pub fn hyperbolic_product_schedulable(product: f64) -> bool {
    product <= 2.0 + 1e-12
}

/// Necessary-and-sufficient EDF test for implicit deadlines: `U ≤ 1`.
///
/// # Examples
///
/// ```
/// use rtpb_sched::analysis::utilization::edf_schedulable;
/// use rtpb_sched::task::{PeriodicTask, TaskSet};
/// use rtpb_types::TimeDelta;
///
/// # fn main() -> Result<(), rtpb_sched::task::TaskSetError> {
/// let full = TaskSet::try_from_iter([
///     PeriodicTask::new(TimeDelta::from_millis(10), TimeDelta::from_millis(5)),
///     PeriodicTask::new(TimeDelta::from_millis(10), TimeDelta::from_millis(5)),
/// ])?;
/// assert!(edf_schedulable(&full));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn edf_schedulable(tasks: &TaskSet) -> bool {
    edf_utilization_schedulable(tasks.utilization())
}

/// [`edf_schedulable`] on the aggregate utilization.
#[must_use]
pub fn edf_utilization_schedulable(utilization: f64) -> bool {
    utilization <= 1.0 + 1e-12
}

/// Whether a total utilization exceeds one CPU (`U > 1`, with a float
/// tolerance): such a set is unschedulable under every policy, which is
/// why [`TaskSet::try_from_iter`] refuses it.
#[must_use]
pub fn exceeds_unit_utilization(utilization: f64) -> bool {
    utilization > 1.0 + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::PeriodicTask;
    use rtpb_types::TimeDelta;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn ll_bound_known_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.828_427).abs() < 1e-6);
        assert!((liu_layland_bound(3) - 0.779_763).abs() < 1e-6);
        // Monotone decreasing towards ln 2.
        let ln2 = std::f64::consts::LN_2;
        let mut prev = liu_layland_bound(1);
        for n in 2..64 {
            let b = liu_layland_bound(n);
            assert!(b < prev);
            assert!(b > ln2);
            prev = b;
        }
    }

    #[test]
    #[should_panic(expected = "zero tasks")]
    fn ll_bound_zero_tasks_panics() {
        let _ = liu_layland_bound(0);
    }

    #[test]
    fn rm_test_accepts_below_bound() {
        // U = 0.3 + 0.3 = 0.6 < 0.828.
        let set = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(3)),
            PeriodicTask::new(ms(10), ms(3)),
        ])
        .unwrap();
        assert!(rm_schedulable(&set));
    }

    #[test]
    fn rm_test_rejects_above_bound() {
        // U = 0.45 + 0.45 = 0.9 > 0.828.
        let set = TaskSet::try_from_iter([
            PeriodicTask::new(ms(100), ms(45)),
            PeriodicTask::new(ms(100), ms(45)),
        ])
        .unwrap();
        assert!(!rm_schedulable(&set));
    }

    #[test]
    fn single_task_is_rm_schedulable_up_to_full_utilization() {
        let set = TaskSet::try_from_iter([PeriodicTask::new(ms(10), ms(10))]).unwrap();
        assert!(rm_schedulable(&set));
    }

    #[test]
    fn hyperbolic_dominates_liu_layland() {
        // Random-ish sets: whatever LL admits, hyperbolic admits.
        for (p1, e1, p2, e2, p3, e3) in [
            (10u64, 2u64, 20u64, 4u64, 40u64, 8u64),
            (5, 1, 7, 2, 11, 3),
            (100, 30, 150, 40, 300, 50),
        ] {
            let set = TaskSet::try_from_iter([
                PeriodicTask::new(ms(p1), ms(e1)),
                PeriodicTask::new(ms(p2), ms(e2)),
                PeriodicTask::new(ms(p3), ms(e3)),
            ])
            .unwrap();
            if rm_schedulable(&set) {
                assert!(hyperbolic_schedulable(&set), "hyperbolic must dominate LL");
            }
        }
    }

    #[test]
    fn hyperbolic_admits_sets_the_ll_bound_rejects() {
        // U = 0.5 + 0.33 = 0.83 > 0.8284 (LL rejects), but the product
        // 1.5 × 1.33 = 1.995 ≤ 2 (hyperbolic admits).
        let set = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(5)),
            PeriodicTask::new(ms(100), ms(33)),
        ])
        .unwrap();
        assert!(hyperbolic_schedulable(&set));
        assert!(!rm_schedulable(&set));
    }

    #[test]
    fn edf_admits_exactly_up_to_one() {
        let full = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(5)),
            PeriodicTask::new(ms(20), ms(10)),
        ])
        .unwrap();
        assert!(edf_schedulable(&full));
    }
}
