//! Recorded execution timelines and their analysis.

use crate::phase_variance::PhaseVarianceTracker;
use crate::task::TaskSet;
use rtpb_types::{TaskId, Time, TimeDelta};

/// One completed invocation of a periodic task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// The task this invocation belongs to.
    pub task: TaskId,
    /// Zero-based invocation index within the task.
    pub index: u64,
    /// Release (arrival) time.
    pub release: Time,
    /// First time the invocation received the CPU.
    pub start: Time,
    /// Completion time — the paper's `I_k`.
    pub finish: Time,
    /// Absolute deadline (`release + relative deadline`).
    pub deadline: Time,
}

impl Invocation {
    /// Whether this invocation completed by its deadline.
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.finish <= self.deadline
    }

    /// Response time (release to finish).
    #[must_use]
    pub fn response_time(&self) -> TimeDelta {
        self.finish - self.release
    }
}

/// A complete record of one executor run.
///
/// Invocations are stored in completion order. The analysis methods
/// implement the quantities the paper's theory speaks about: per-task
/// phase variance, worst completion gaps (= worst staleness), and pairwise
/// timestamp skew for inter-object constraints.
#[derive(Debug, Clone)]
pub struct Timeline {
    invocations: Vec<Invocation>,
    tasks: TaskSet,
    horizon: Time,
}

impl Timeline {
    pub(crate) fn new(invocations: Vec<Invocation>, tasks: TaskSet, horizon: Time) -> Self {
        Timeline {
            invocations,
            tasks,
            horizon,
        }
    }

    /// All invocations, in completion order.
    #[must_use]
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// The task set this timeline was produced from. For
    /// [`run_dcs`](crate::exec::run_dcs) these are the *specialized*
    /// (harmonic) tasks.
    #[must_use]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The end of the recorded window.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Invocations of one task, in completion order.
    pub fn of_task(&self, id: TaskId) -> impl Iterator<Item = &Invocation> {
        self.invocations.iter().filter(move |i| i.task == id)
    }

    /// Number of invocations that missed their deadline.
    #[must_use]
    pub fn deadline_misses(&self) -> usize {
        self.invocations
            .iter()
            .filter(|i| !i.met_deadline())
            .count()
    }

    /// Empirical phase variance of a task (Definition 2): the maximum
    /// deviation of completion-to-completion gaps from the task's period.
    /// `None` if the task completed fewer than two invocations or is
    /// unknown.
    #[must_use]
    pub fn phase_variance(&self, id: TaskId) -> Option<TimeDelta> {
        let period = self.tasks.get(id)?.period();
        let mut tracker = PhaseVarianceTracker::new(period);
        for inv in self.of_task(id) {
            tracker.record_finish(inv.finish);
        }
        tracker.variance()
    }

    /// The largest completion-to-completion gap of a task — the supremum
    /// of its image staleness `t - T_i(t)` over the run (the quantity
    /// bounded by `δ_i` in the external-consistency requirement).
    #[must_use]
    pub fn max_finish_gap(&self, id: TaskId) -> Option<TimeDelta> {
        self.tasks.get(id)?;
        let mut tracker = PhaseVarianceTracker::new(self.tasks.get(id)?.period());
        for inv in self.of_task(id) {
            tracker.record_finish(inv.finish);
        }
        tracker.max_gap()
    }

    /// Whether the recorded run keeps task `id`'s staleness within
    /// `delta` — the empirical external-consistency check.
    #[must_use]
    pub fn satisfies_external(&self, id: TaskId, delta: TimeDelta) -> bool {
        self.max_finish_gap(id).is_some_and(|gap| gap <= delta)
    }

    /// The worst observed timestamp skew `max_t |T_i(t) - T_j(t)|` between
    /// two tasks, evaluated over the portion of the run where both have
    /// completed at least once — the empirical inter-object-consistency
    /// quantity (§3). `None` if either task never completed.
    #[must_use]
    pub fn max_pair_skew(&self, a: TaskId, b: TaskId) -> Option<TimeDelta> {
        let mut last_a: Option<Time> = None;
        let mut last_b: Option<Time> = None;
        let mut max_skew: Option<TimeDelta> = None;
        // Invocations are stored in completion order, so one pass suffices;
        // T_i and T_j are step functions that only change at completions.
        for inv in &self.invocations {
            if inv.task == a {
                last_a = Some(inv.finish);
            } else if inv.task == b {
                last_b = Some(inv.finish);
            } else {
                continue;
            }
            if let (Some(ta), Some(tb)) = (last_a, last_b) {
                let skew = ta.abs_diff(tb);
                max_skew = Some(max_skew.map_or(skew, |m| m.max(skew)));
            }
        }
        max_skew
    }

    /// Mean response time of one task's invocations.
    #[must_use]
    pub fn mean_response(&self, id: TaskId) -> Option<TimeDelta> {
        let mut count = 0u64;
        let mut total = 0u128;
        for inv in self.of_task(id) {
            count += 1;
            total += u128::from(inv.response_time().as_nanos());
        }
        (count > 0).then(|| TimeDelta::from_nanos((total / u128::from(count)) as u64))
    }

    /// Worst-case observed response time of one task.
    #[must_use]
    pub fn max_response(&self, id: TaskId) -> Option<TimeDelta> {
        self.of_task(id)
            .map(Invocation::response_time)
            .reduce(TimeDelta::max)
    }

    /// Total CPU time consumed during the run.
    #[must_use]
    pub fn busy_time(&self) -> TimeDelta {
        self.invocations
            .iter()
            .filter_map(|i| self.tasks.get(i.task).map(|t| t.exec()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::PeriodicTask;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn t(v: u64) -> Time {
        Time::from_millis(v)
    }

    fn inv(
        task: u32,
        index: u64,
        release: u64,
        start: u64,
        finish: u64,
        deadline: u64,
    ) -> Invocation {
        Invocation {
            task: TaskId::new(task),
            index,
            release: t(release),
            start: t(start),
            finish: t(finish),
            deadline: t(deadline),
        }
    }

    fn timeline(invs: Vec<Invocation>) -> Timeline {
        let tasks = TaskSet::try_from_iter([
            PeriodicTask::new(ms(10), ms(2)),
            PeriodicTask::new(ms(20), ms(3)),
        ])
        .unwrap();
        Timeline::new(invs, tasks, t(100))
    }

    #[test]
    fn invocation_deadline_and_response() {
        let ok = inv(0, 0, 0, 0, 2, 10);
        assert!(ok.met_deadline());
        assert_eq!(ok.response_time(), ms(2));
        let late = inv(0, 1, 10, 18, 21, 20);
        assert!(!late.met_deadline());
    }

    #[test]
    fn deadline_miss_count() {
        let tl = timeline(vec![inv(0, 0, 0, 0, 2, 10), inv(0, 1, 10, 18, 21, 20)]);
        assert_eq!(tl.deadline_misses(), 1);
    }

    #[test]
    fn phase_variance_of_exact_schedule_is_zero() {
        let tl = timeline(vec![
            inv(0, 0, 0, 0, 2, 10),
            inv(0, 1, 10, 10, 12, 20),
            inv(0, 2, 20, 20, 22, 30),
        ]);
        assert_eq!(tl.phase_variance(TaskId::new(0)), Some(TimeDelta::ZERO));
        assert_eq!(tl.max_finish_gap(TaskId::new(0)), Some(ms(10)));
    }

    #[test]
    fn phase_variance_detects_jitter() {
        let tl = timeline(vec![
            inv(0, 0, 0, 0, 2, 10),
            inv(0, 1, 10, 13, 15, 20), // gap 13
            inv(0, 2, 20, 20, 22, 30), // gap 7
        ]);
        assert_eq!(tl.phase_variance(TaskId::new(0)), Some(ms(3)));
        assert_eq!(tl.max_finish_gap(TaskId::new(0)), Some(ms(13)));
        assert!(tl.satisfies_external(TaskId::new(0), ms(13)));
        assert!(!tl.satisfies_external(TaskId::new(0), ms(12)));
    }

    #[test]
    fn unknown_or_sparse_tasks_return_none() {
        let tl = timeline(vec![inv(0, 0, 0, 0, 2, 10)]);
        assert_eq!(tl.phase_variance(TaskId::new(0)), None); // one completion
        assert_eq!(tl.phase_variance(TaskId::new(9)), None); // unknown id
        assert_eq!(tl.max_pair_skew(TaskId::new(0), TaskId::new(1)), None);
    }

    #[test]
    fn pair_skew_tracks_step_functions() {
        let tl = timeline(vec![
            inv(0, 0, 0, 0, 2, 10),    // T0 = 2
            inv(1, 0, 0, 2, 5, 20),    // T1 = 5 → skew 3
            inv(0, 1, 10, 10, 12, 20), // T0 = 12 → skew 7
            inv(1, 1, 20, 20, 23, 40), // T1 = 23 → skew 11
        ]);
        assert_eq!(
            tl.max_pair_skew(TaskId::new(0), TaskId::new(1)),
            Some(ms(11))
        );
        // Symmetric.
        assert_eq!(
            tl.max_pair_skew(TaskId::new(1), TaskId::new(0)),
            tl.max_pair_skew(TaskId::new(0), TaskId::new(1))
        );
    }

    #[test]
    fn response_statistics() {
        let tl = timeline(vec![
            inv(0, 0, 0, 0, 2, 10),    // response 2
            inv(0, 1, 10, 12, 16, 20), // response 6
        ]);
        assert_eq!(tl.mean_response(TaskId::new(0)), Some(ms(4)));
        assert_eq!(tl.max_response(TaskId::new(0)), Some(ms(6)));
        assert_eq!(tl.mean_response(TaskId::new(1)), None);
    }

    #[test]
    fn busy_time_sums_exec_times() {
        let tl = timeline(vec![
            inv(0, 0, 0, 0, 2, 10),
            inv(0, 1, 10, 10, 12, 20),
            inv(1, 0, 0, 2, 5, 20),
        ]);
        assert_eq!(tl.busy_time(), ms(2 + 2 + 3));
    }
}
