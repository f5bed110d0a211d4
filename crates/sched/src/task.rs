//! The periodic task model.
//!
//! A task `τ_i = (p_i, e_i)` releases an invocation every `p_i` time units,
//! each needing `e_i` units of CPU. Tasks may have a release phase (offset
//! of the first release) and an explicit relative deadline (defaults to the
//! period, the classic Liu & Layland model).

use crate::analysis::utilization::exceeds_unit_utilization;
use core::fmt;
use rtpb_types::{TaskId, TimeDelta};
use std::error::Error;

/// A periodic real-time task.
///
/// # Examples
///
/// ```
/// use rtpb_sched::task::PeriodicTask;
/// use rtpb_types::TimeDelta;
///
/// let t = PeriodicTask::new(TimeDelta::from_millis(10), TimeDelta::from_millis(2));
/// assert!((t.utilization() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicTask {
    id: TaskId,
    period: TimeDelta,
    exec: TimeDelta,
    phase: TimeDelta,
    deadline: TimeDelta,
}

impl PeriodicTask {
    /// Creates a task with implicit deadline (= period) and zero phase.
    ///
    /// The id is assigned when the task joins a [`TaskSet`]; a standalone
    /// task has id 0.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `exec > period` — such a task can
    /// never be scheduled and indicates a caller bug.
    #[must_use]
    pub fn new(period: TimeDelta, exec: TimeDelta) -> Self {
        assert!(!period.is_zero(), "task period must be positive");
        assert!(exec <= period, "execution time must not exceed period");
        PeriodicTask {
            id: TaskId::new(0),
            period,
            exec,
            phase: TimeDelta::ZERO,
            deadline: period,
        }
    }

    /// Sets the release phase (offset of the first release).
    #[must_use]
    pub fn with_phase(mut self, phase: TimeDelta) -> Self {
        self.phase = phase;
        self
    }

    /// Sets an explicit relative deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is smaller than the execution time.
    #[must_use]
    pub fn with_deadline(mut self, deadline: TimeDelta) -> Self {
        assert!(
            deadline >= self.exec,
            "deadline must be at least the execution time"
        );
        self.deadline = deadline;
        self
    }

    pub(crate) fn with_id(mut self, id: TaskId) -> Self {
        self.id = id;
        self
    }

    pub(crate) fn with_period(mut self, period: TimeDelta) -> Self {
        assert!(self.exec <= period);
        self.period = period;
        if self.deadline > period {
            self.deadline = period;
        }
        self
    }

    /// The task id within its [`TaskSet`].
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The period `p_i`.
    #[must_use]
    pub fn period(&self) -> TimeDelta {
        self.period
    }

    /// The worst-case execution time `e_i`.
    #[must_use]
    pub fn exec(&self) -> TimeDelta {
        self.exec
    }

    /// The release phase (first release instant).
    #[must_use]
    pub fn phase(&self) -> TimeDelta {
        self.phase
    }

    /// The relative deadline (defaults to the period).
    #[must_use]
    pub fn deadline(&self) -> TimeDelta {
        self.deadline
    }

    /// The utilization `e_i / p_i`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.exec.as_nanos() as f64 / self.period.as_nanos() as f64
    }
}

impl fmt::Display for PeriodicTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(p={}, e={})", self.id, self.period, self.exec)
    }
}

/// Why a [`TaskSet`] could not be formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSetError {
    /// The set would be empty.
    Empty,
    /// Total utilization exceeds 1: no single CPU can run it.
    Overutilized {
        /// The offending total utilization (thousandths, for exactness in
        /// an `Eq` type).
        utilization_millis: u32,
    },
}

impl fmt::Display for TaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSetError::Empty => write!(f, "task set is empty"),
            TaskSetError::Overutilized { utilization_millis } => write!(
                f,
                "task set utilization {:.3} exceeds 1.0",
                *utilization_millis as f64 / 1000.0
            ),
        }
    }
}

impl Error for TaskSetError {}

/// An ordered collection of periodic tasks sharing one CPU.
///
/// Ids are assigned in insertion order. The constructor rejects empty sets
/// and sets whose total utilization exceeds 1 (unschedulable on one CPU
/// under any policy).
///
/// # Examples
///
/// ```
/// use rtpb_sched::task::{PeriodicTask, TaskSet};
/// use rtpb_types::TimeDelta;
///
/// # fn main() -> Result<(), rtpb_sched::task::TaskSetError> {
/// let set = TaskSet::try_from_iter([
///     PeriodicTask::new(TimeDelta::from_millis(10), TimeDelta::from_millis(2)),
///     PeriodicTask::new(TimeDelta::from_millis(20), TimeDelta::from_millis(5)),
/// ])?;
/// assert_eq!(set.len(), 2);
/// assert!((set.utilization() - 0.45).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<PeriodicTask>,
}

impl TaskSet {
    /// Builds a task set, assigning ids in iteration order.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSetError::Empty`] for an empty iterator and
    /// [`TaskSetError::Overutilized`] if `Σ e_i/p_i > 1`.
    pub fn try_from_iter(
        tasks: impl IntoIterator<Item = PeriodicTask>,
    ) -> Result<Self, TaskSetError> {
        let tasks: Vec<PeriodicTask> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.with_id(TaskId::new(i as u32)))
            .collect();
        if tasks.is_empty() {
            return Err(TaskSetError::Empty);
        }
        let u: f64 = tasks.iter().map(PeriodicTask::utilization).sum();
        if exceeds_unit_utilization(u) {
            return Err(TaskSetError::Overutilized {
                utilization_millis: (u * 1000.0).round() as u32,
            });
        }
        Ok(TaskSet { tasks })
    }

    /// Number of tasks `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total utilization `x = Σ e_i/p_i`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(PeriodicTask::utilization).sum()
    }

    /// The task with the given id, if present.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&PeriodicTask> {
        self.tasks.get(id.as_usize())
    }

    /// Iterates over the tasks in id order.
    pub fn iter(&self) -> impl Iterator<Item = &PeriodicTask> {
        self.tasks.iter()
    }

    /// The tasks as a slice, in id order.
    #[must_use]
    pub fn as_slice(&self) -> &[PeriodicTask] {
        &self.tasks
    }

    /// The largest period in the set.
    #[must_use]
    pub fn max_period(&self) -> TimeDelta {
        self.tasks
            .iter()
            .map(PeriodicTask::period)
            .fold(TimeDelta::ZERO, TimeDelta::max)
    }

    /// The smallest period in the set.
    #[must_use]
    pub fn min_period(&self) -> TimeDelta {
        self.tasks
            .iter()
            .map(PeriodicTask::period)
            .fold(TimeDelta::MAX, TimeDelta::min)
    }

    /// A copy of this set with one task's period replaced (used by the
    /// DCS specializer).
    #[must_use]
    pub(crate) fn with_periods(&self, periods: &[TimeDelta]) -> TaskSet {
        assert_eq!(periods.len(), self.tasks.len());
        TaskSet {
            tasks: self
                .tasks
                .iter()
                .zip(periods)
                .map(|(t, &p)| t.with_period(p))
                .collect(),
        }
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a PeriodicTask;
    type IntoIter = std::slice::Iter<'a, PeriodicTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn task_accessors() {
        let t = PeriodicTask::new(ms(10), ms(2))
            .with_phase(ms(1))
            .with_deadline(ms(8));
        assert_eq!(t.period(), ms(10));
        assert_eq!(t.exec(), ms(2));
        assert_eq!(t.phase(), ms(1));
        assert_eq!(t.deadline(), ms(8));
        assert!((t.utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = PeriodicTask::new(TimeDelta::ZERO, TimeDelta::ZERO);
    }

    #[test]
    #[should_panic(expected = "must not exceed period")]
    fn exec_longer_than_period_panics() {
        let _ = PeriodicTask::new(ms(1), ms(2));
    }

    #[test]
    #[should_panic(expected = "at least the execution time")]
    fn deadline_below_exec_panics() {
        let _ = PeriodicTask::new(ms(10), ms(5)).with_deadline(ms(4));
    }

    #[test]
    fn task_set_assigns_ids_in_order() {
        let set = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(1)),
            PeriodicTask::new(ms(20), ms(1)),
        ])
        .unwrap();
        let ids: Vec<u32> = set.iter().map(|t| t.id().index()).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(set.get(TaskId::new(1)).unwrap().period(), ms(20));
        assert!(set.get(TaskId::new(2)).is_none());
    }

    #[test]
    fn task_set_rejects_empty() {
        assert_eq!(TaskSet::try_from_iter([]), Err(TaskSetError::Empty));
    }

    #[test]
    fn task_set_rejects_overutilization() {
        let err = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(6)),
            PeriodicTask::new(ms(10), ms(6)),
        ])
        .unwrap_err();
        assert!(matches!(err, TaskSetError::Overutilized { .. }));
        assert!(err.to_string().contains("1.200"));
    }

    #[test]
    fn task_set_accepts_full_utilization() {
        let set = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(5)),
            PeriodicTask::new(ms(10), ms(5)),
        ])
        .unwrap();
        assert!((set.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn period_extremes() {
        let set = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(1)),
            PeriodicTask::new(ms(40), ms(1)),
            PeriodicTask::new(ms(20), ms(1)),
        ])
        .unwrap();
        assert_eq!(set.min_period(), ms(10));
        assert_eq!(set.max_period(), ms(40));
    }

    #[test]
    fn display_formats() {
        let t = PeriodicTask::new(ms(10), ms(2));
        assert_eq!(t.to_string(), "task#0(p=10ms, e=2ms)");
        assert_eq!(TaskSetError::Empty.to_string(), "task set is empty");
    }

    #[test]
    fn with_periods_replaces_and_clamps_deadline() {
        let set = TaskSet::try_from_iter([PeriodicTask::new(ms(10), ms(2))]).unwrap();
        let set2 = set.with_periods(&[ms(8)]);
        let t = set2.get(TaskId::new(0)).unwrap();
        assert_eq!(t.period(), ms(8));
        assert_eq!(t.deadline(), ms(8));
    }
}
