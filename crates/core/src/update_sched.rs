//! Update-transmission period selection (§4.3, §5.3).
//!
//! The primary sends each admitted object to the backup periodically. The
//! period is derived from the object's primary–backup consistency window
//! `δ_i = δ_i^B - δ_i^P` via Theorem 5 (`r_i ≤ δ_i - ℓ`), divided by the
//! configured slack factor to tolerate message loss — the paper uses
//! `r_i = (δ_i - ℓ)/2`.
//!
//! Under *compressed scheduling* (Mehra et al. \[22\]), all periods are then
//! uniformly shrunk until the update-task set consumes
//! [`COMPRESSED_TARGET_UTILIZATION`] of the CPU: "the primary schedules as
//! many updates to backup as the resources allow".
//!
//! [`UpdateSchedule`] is the admitted task set, kept one admission at a
//! time. Per object it holds the effective window, the send cost and the
//! normal period. Over the set it holds the id-order sum of
//! `cost / period` (the utilization) and the id-order product of
//! `1 + cost / period` (what the hyperbolic test reads). An admission
//! proposes a [`ScheduleChange`] — the newcomer plus the partners its
//! constraints tighten — and the primary
//! [applies](UpdateSchedule::apply) it once every gate has passed.
//!
//! - **Append-exact aggregates.** A newcomer always has the largest id, so
//!   `cached + u_new` is bit-for-bit the in-order sum a from-scratch build
//!   computes, and likewise for the product. A change that retimes a
//!   partner recomputes both in id order, in O(n).
//! - **Compression** is a ratio derived from the cached utilization and
//!   applied when a period is read, so admitting costs no rescale.
//! - **Removal** drops the object's own entry at once. The aggregates, the
//!   other periods and the compression ratio keep their values (the
//!   schedule is [stale](UpdateSchedule::is_stale)) until the next
//!   admission starts from [`UpdateSchedule::from_store`].

use crate::config::{ProtocolConfig, SchedulingMode};
use crate::store::ObjectStore;
use crate::table::IdTable;
use rtpb_types::{InterObjectConstraint, ObjectId, TimeDelta};
use std::collections::BTreeMap;

/// No period is shorter than this (pathological windows under disabled
/// admission).
const PERIOD_FLOOR: TimeDelta = TimeDelta::from_millis(1);

/// The CPU utilization compressed scheduling raises the update-task set
/// to.
pub const COMPRESSED_TARGET_UTILIZATION: f64 = 0.9;

const _: () = assert!(COMPRESSED_TARGET_UTILIZATION > 0.0 && COMPRESSED_TARGET_UTILIZATION <= 1.0);

/// One scheduled object's update task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UpdateTask {
    window: TimeDelta,
    cost: TimeDelta,
    normal: TimeDelta,
}

impl UpdateTask {
    /// The task for an object with effective window `window` and send
    /// cost `cost`. Its normal period is [`normal_period`], floored at the
    /// send cost (a task cannot run faster than its execution time) and at
    /// 1 ms.
    #[must_use]
    pub(crate) fn new(window: TimeDelta, cost: TimeDelta, config: &ProtocolConfig) -> Self {
        let normal = normal_period(window, config.link_delay_bound, config.slack_factor)
            .unwrap_or(PERIOD_FLOOR)
            .max(cost)
            .max(PERIOD_FLOOR);
        UpdateTask {
            window,
            cost,
            normal,
        }
    }

    /// The effective window: the object's own window, tightened by every
    /// inter-object constraint that names it.
    #[must_use]
    pub(crate) fn window(&self) -> TimeDelta {
        self.window
    }

    /// The CPU cost of one send.
    #[must_use]
    pub(crate) fn cost(&self) -> TimeDelta {
        self.cost
    }

    /// The guarantee-bearing period, before any compression.
    #[must_use]
    pub(crate) fn normal_period(&self) -> TimeDelta {
        self.normal
    }

    /// `cost / normal period`.
    #[must_use]
    pub(crate) fn utilization(&self) -> f64 {
        self.cost.as_nanos() as f64 / self.normal.as_nanos() as f64
    }
}

/// The update tasks currently admitted at the primary, with their
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateSchedule {
    tasks: IdTable<UpdateTask>,
    utilization: f64,
    product: f64,
    /// `(num, den)` scaling every normal period under compressed mode;
    /// `None` when scheduling normally or already at the target.
    compression: Option<(u64, u64)>,
    stale: bool,
}

impl Default for UpdateSchedule {
    fn default() -> Self {
        UpdateSchedule::new()
    }
}

impl UpdateSchedule {
    /// Creates an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        UpdateSchedule {
            tasks: IdTable::default(),
            utilization: 0.0,
            product: 1.0,
            compression: None,
            stale: false,
        }
    }

    /// Builds the schedule of every object in `store` from scratch, each
    /// with its own window tightened by every constraint in `constraints`
    /// that names it (the §4.2 conversion of inter-object constraints into
    /// external ones).
    #[must_use]
    pub fn from_store(
        store: &ObjectStore,
        constraints: &[InterObjectConstraint],
        config: &ProtocolConfig,
    ) -> Self {
        let tightest = tightest_bounds(
            constraints
                .iter()
                .flat_map(|c| [(c.first(), c.bound()), (c.second(), c.bound())]),
        );
        UpdateSchedule::build(
            store.iter().map(|(id, entry)| {
                let spec = entry.spec();
                let window = tightest
                    .get(&id)
                    .map_or(spec.window(), |&bound| spec.window().min(bound));
                (id, window, config.send_cost(spec.size_bytes()))
            }),
            config,
        )
    }

    /// Appends `(id, effective window, send cost)` triples, which must
    /// come in ascending id order, through the same step an admission
    /// takes.
    fn build(
        objects: impl IntoIterator<Item = (ObjectId, TimeDelta, TimeDelta)>,
        config: &ProtocolConfig,
    ) -> Self {
        let mut schedule = UpdateSchedule::new();
        for (id, window, cost) in objects {
            let change = schedule.propose(id, UpdateTask::new(window, cost, config), Vec::new());
            schedule.apply(change, config);
        }
        schedule
    }

    /// What adding `task` under `id` would do, after retasking each of
    /// `partners` (already scheduled objects, in ascending id order).
    ///
    /// Costs one lookup per partner, unless a partner's normal period
    /// changes: then the aggregates are re-summed in O(n).
    ///
    /// `id` must exceed every scheduled id, and the schedule must not be
    /// [stale](UpdateSchedule::is_stale).
    #[must_use]
    pub(crate) fn propose(
        &self,
        id: ObjectId,
        task: UpdateTask,
        partners: Vec<(ObjectId, UpdateTask)>,
    ) -> ScheduleChange {
        debug_assert!(!self.stale, "rebuild a stale schedule before admitting");
        debug_assert!(self
            .tasks
            .iter()
            .next_back()
            .is_none_or(|(last, _)| last < id));
        debug_assert!(partners.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(partners.iter().all(|&(p, _)| self.tasks.contains(p)));
        let retimed = partners
            .iter()
            .any(|&(p, t)| self.tasks.get(p).is_some_and(|old| old.normal != t.normal));
        let mut change = ScheduleChange {
            partners,
            newcomer: (id, task),
            utilization: self.utilization + task.utilization(),
            product: self.product * (task.utilization() + 1.0),
        };
        if retimed {
            // A retimed partner changes a term mid-sequence: re-sum in id
            // order so the aggregates stay equal to a from-scratch build.
            (change.utilization, change.product) =
                self.tasks_after(&change).fold((0.0, 1.0), |(u, p), t| {
                    (u + t.utilization(), p * (t.utilization() + 1.0))
                });
        }
        change
    }

    /// Installs a change [`evaluate`](crate::admission::evaluate) returned
    /// for this schedule under the same `config`.
    pub fn apply(&mut self, change: ScheduleChange, config: &ProtocolConfig) {
        let (id, task) = change.newcomer;
        for (partner, retasked) in change.partners {
            self.tasks.insert(partner, retasked);
        }
        self.tasks.insert(id, task);
        self.utilization = change.utilization;
        self.product = change.product;
        // Shrinking every period by utilization/target raises total
        // utilization to exactly the target; periods never lengthen.
        self.compression = (config.scheduling_mode == SchedulingMode::Compressed
            && self.utilization > 0.0
            && self.utilization < COMPRESSED_TARGET_UTILIZATION)
            .then(|| {
                let num = (self.utilization * 1_000_000.0) as u64;
                let den = (COMPRESSED_TARGET_UTILIZATION * 1_000_000.0) as u64;
                (num, den)
            });
    }

    /// Removes `id`'s own entry. Everything else keeps describing the set
    /// before the removal until the next admission rebuilds.
    pub(crate) fn remove(&mut self, id: ObjectId) {
        self.stale |= self.tasks.remove(id).is_some();
    }

    /// Whether an object was removed since the last build: the aggregates
    /// still count it, and partners it constrained keep their tightened
    /// windows.
    #[must_use]
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The send period of `id`, if scheduled: its normal period, scaled by
    /// the compression ratio and floored at its cost and 1 ms.
    #[must_use]
    pub fn period(&self, id: ObjectId) -> Option<TimeDelta> {
        self.tasks.get(id).map(|task| self.compressed(task))
    }

    fn compressed(&self, task: &UpdateTask) -> TimeDelta {
        match self.compression {
            Some((num, den)) => task
                .normal
                .mul_ratio(num, den)
                .max(task.cost)
                .max(PERIOD_FLOOR),
            None => task.normal,
        }
    }

    /// The update task of `id`, if scheduled.
    #[must_use]
    pub(crate) fn task(&self, id: ObjectId) -> Option<&UpdateTask> {
        self.tasks.get(id)
    }

    /// Number of scheduled objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates `(object, period)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, TimeDelta)> + '_ {
        self.tasks
            .iter()
            .map(|(id, task)| (id, self.compressed(task)))
    }

    /// Every task as it would stand after `change`, in id order.
    pub(crate) fn tasks_after<'a>(
        &'a self,
        change: &'a ScheduleChange,
    ) -> impl Iterator<Item = UpdateTask> + 'a {
        let mut partners = change.partners.iter().peekable();
        self.tasks
            .iter()
            .map(move |(id, &task)| {
                partners
                    .next_if(|&&(p, _)| p == id)
                    .map_or(task, |&(_, retasked)| retasked)
            })
            .chain(std::iter::once(change.newcomer.1))
    }
}

/// What one admission would change: the newcomer, the partners its
/// constraints tighten, and the aggregates after both.
#[derive(Debug, Clone)]
pub struct ScheduleChange {
    partners: Vec<(ObjectId, UpdateTask)>,
    newcomer: (ObjectId, UpdateTask),
    utilization: f64,
    product: f64,
}

impl ScheduleChange {
    /// The changed tasks in id order: the retasked partners, then the
    /// newcomer.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = (ObjectId, UpdateTask)> + '_ {
        self.partners
            .iter()
            .copied()
            .chain(std::iter::once(self.newcomer))
    }

    /// Total utilization under the normal periods after the change.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// `Π (1 + u_i)` after the change.
    #[must_use]
    pub(crate) fn hyperbolic_product(&self) -> f64 {
        self.product
    }
}

/// The tightest bound per object among `(object, bound)` pairs.
pub(crate) fn tightest_bounds(
    pairs: impl IntoIterator<Item = (ObjectId, TimeDelta)>,
) -> BTreeMap<ObjectId, TimeDelta> {
    let mut tightest = BTreeMap::new();
    for (id, bound) in pairs {
        tightest
            .entry(id)
            .and_modify(|b: &mut TimeDelta| *b = (*b).min(bound))
            .or_insert(bound);
    }
    tightest
}

/// The send period Theorem 5 (plus loss slack) assigns to a window:
/// `r = (δ - ℓ) / slack_factor`, or `None` if the window does not exceed
/// the delay bound (such objects are rejected by admission; with admission
/// disabled the caller clamps instead).
#[must_use]
pub fn normal_period(
    window: TimeDelta,
    link_delay_bound: TimeDelta,
    slack_factor: u64,
) -> Option<TimeDelta> {
    let slack = window.checked_sub(link_delay_bound)?;
    if slack.is_zero() {
        return None;
    }
    let period = slack / slack_factor.max(1);
    (!period.is_zero()).then_some(period)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::default()
    }

    fn build(
        objects: &[(ObjectId, TimeDelta, TimeDelta)],
        config: &ProtocolConfig,
    ) -> UpdateSchedule {
        UpdateSchedule::build(objects.iter().copied(), config)
    }

    #[test]
    fn normal_period_matches_paper_formula() {
        // (400 - 10) / 2 = 195 ms.
        assert_eq!(normal_period(ms(400), ms(10), 2), Some(ms(195)));
        // Slack factor 1: the full Theorem 5 bound.
        assert_eq!(normal_period(ms(400), ms(10), 1), Some(ms(390)));
    }

    #[test]
    fn normal_period_rejects_window_at_or_below_delay() {
        assert_eq!(normal_period(ms(10), ms(10), 2), None);
        assert_eq!(normal_period(ms(5), ms(10), 2), None);
    }

    #[test]
    fn schedule_uses_normal_periods() {
        let objects = vec![
            (ObjectId::new(0), ms(400), TimeDelta::from_micros(200)),
            (ObjectId::new(1), ms(210), TimeDelta::from_micros(200)),
        ];
        let s = build(&objects, &cfg());
        assert_eq!(s.period(ObjectId::new(0)), Some(ms(195)));
        assert_eq!(s.period(ObjectId::new(1)), Some(ms(100)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn degenerate_windows_are_floored() {
        let objects = vec![(ObjectId::new(0), ms(5), TimeDelta::from_micros(100))];
        let s = build(&objects, &cfg());
        assert_eq!(s.period(ObjectId::new(0)), Some(ms(1)));
    }

    #[test]
    fn period_never_below_send_cost() {
        let objects = vec![(ObjectId::new(0), ms(12), ms(3))];
        let s = build(&objects, &cfg());
        // Normal period would be 1 ms; floored at the 3 ms cost.
        assert_eq!(s.period(ObjectId::new(0)), Some(ms(3)));
    }

    #[test]
    fn compression_raises_frequency_to_target() {
        let config = ProtocolConfig {
            scheduling_mode: SchedulingMode::Compressed,
            ..ProtocolConfig::default()
        };
        // Costs large enough that the compressed periods stay above the
        // 1 ms floor (which would otherwise cap the achieved target).
        let cost = TimeDelta::from_millis(2);
        let objects = vec![
            (ObjectId::new(0), ms(400), cost),
            (ObjectId::new(1), ms(400), cost),
        ];
        let normal = build(&objects, &cfg());
        let compressed = build(&objects, &config);
        for (id, p) in compressed.iter() {
            assert!(p < normal.period(id).unwrap());
        }
        // Utilization after compression ≈ target.
        let u: f64 = compressed
            .iter()
            .map(|(_, p)| cost.as_nanos() as f64 / p.as_nanos() as f64)
            .sum();
        assert!((u - 0.9).abs() < 0.05, "compressed utilization {u}");
    }

    #[test]
    fn compression_never_lengthens_periods() {
        // Already above target: periods unchanged.
        let config = ProtocolConfig {
            scheduling_mode: SchedulingMode::Compressed,
            ..ProtocolConfig::default()
        };
        // Two objects with 12 ms windows → 1 ms normal periods and high
        // cost: utilization 1.0, above the 0.9 target.
        let objects = vec![
            (ObjectId::new(0), ms(12), TimeDelta::from_micros(500)),
            (ObjectId::new(1), ms(12), TimeDelta::from_micros(500)),
        ];
        let normal = build(&objects, &cfg());
        let compressed = build(&objects, &config);
        for (id, p) in compressed.iter() {
            assert!(p >= normal.period(id).unwrap());
        }
    }

    #[test]
    fn empty_schedule() {
        let s = build(&[], &cfg());
        assert!(s.is_empty());
        assert_eq!(s.period(ObjectId::new(0)), None);
    }

    #[test]
    fn larger_windows_mean_longer_normal_periods() {
        let cost = TimeDelta::from_micros(200);
        let objects = vec![
            (ObjectId::new(0), ms(200), cost),
            (ObjectId::new(1), ms(800), cost),
        ];
        let s = build(&objects, &cfg());
        assert!(s.period(ObjectId::new(0)).unwrap() < s.period(ObjectId::new(1)).unwrap());
    }

    #[test]
    fn retimed_partner_recomputes_aggregates_in_id_order() {
        let config = cfg();
        let cost = TimeDelta::from_micros(300);
        let objects: Vec<_> = (0..5)
            .map(|i| (ObjectId::new(i), ms(100 + 37 * u64::from(i)), cost))
            .collect();
        let mut s = build(&objects, &config);
        // Tighten object 1 to a 60 ms window while adding object 5: the
        // aggregates must equal a from-scratch build's.
        let task = UpdateTask::new(ms(60), cost, &config);
        let change = s.propose(ObjectId::new(5), task, vec![(ObjectId::new(1), task)]);
        s.apply(change, &config);
        let mut expected = objects;
        expected[1].1 = ms(60);
        expected.push((ObjectId::new(5), ms(60), cost));
        assert_eq!(s, build(&expected, &config));
    }

    #[test]
    fn removal_keeps_everything_else_until_rebuilt() {
        let config = ProtocolConfig {
            scheduling_mode: SchedulingMode::Compressed,
            ..ProtocolConfig::default()
        };
        let cost = ms(2);
        let objects: Vec<_> = (0..3).map(|i| (ObjectId::new(i), ms(400), cost)).collect();
        let mut s = build(&objects, &config);
        let before = s.period(ObjectId::new(0));
        s.remove(ObjectId::new(7));
        assert!(!s.is_stale(), "removing an unscheduled id changes nothing");
        s.remove(ObjectId::new(2));
        assert!(s.is_stale());
        assert_eq!(s.period(ObjectId::new(2)), None);
        assert_eq!(s.period(ObjectId::new(0)), before);
    }
}
