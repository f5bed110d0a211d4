//! The lossy, bounded-delay link model.
//!
//! The paper's network assumptions (§4.1): link failures are masked by
//! physical redundancy (no partitions), an upper bound `ℓ` exists on the
//! communication delay, and missed deadlines are performance failures.
//! The evaluation then sweeps the probability of message loss (§5.2–5.3).
//! [`LossyLink`] models exactly that: per-message Bernoulli loss and a
//! uniformly distributed delay within `[delay_min, delay_max = ℓ]`, plus
//! an optional per-byte serialization cost.
//!
//! Beyond the paper's nominal assumptions, the link carries a *fault
//! model* for robustness experiments:
//!
//! - [`LinkConfig::duplicate_probability`]: datagram duplication — the
//!   message arrives twice, at independent delays.
//! - [`LinkConfig::reorder_probability`]: reordering — the message is
//!   held back by an extra delay so later messages can overtake it.
//! - [`FaultWindow`]: time-windowed faults pushed onto a live link —
//!   total outage (partition), an elevated loss rate (a correlated loss
//!   burst), or a delay spike.
//!
//! Everything stays a deterministic function of the seed, so fault-plan
//! runs replay exactly.

use core::fmt;
use rtpb_obs::{ClockDomain, EventKind, EventWriter};
use rtpb_sim::SimRng;
use rtpb_types::{Time, TimeDelta};

/// The kind of fault a [`FaultWindow`] imposes while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Total outage: every message offered is lost (a partition of this
    /// direction of the link).
    Outage,
    /// Elevated loss: messages drop with this probability (overrides the
    /// configured rate if higher).
    Loss(f64),
    /// Delay spike: every delivered message takes this much extra time,
    /// on top of its sampled propagation delay.
    DelaySpike(TimeDelta),
    /// Corruption: delivered messages have one bit flipped in transit
    /// with this probability (overrides the configured rate if higher).
    Corrupt(f64),
}

/// A time-windowed fault on one link direction: active for transmissions
/// with `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// First instant at which the fault applies.
    pub from: Time,
    /// First instant at which the fault no longer applies.
    pub until: Time,
    /// What the fault does to traffic.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers instant `now`.
    #[must_use]
    pub fn covers(&self, now: Time) -> bool {
        self.from <= now && now < self.until
    }
}

/// Configuration of one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Probability that a message is silently lost (0.0–1.0).
    pub loss_probability: f64,
    /// Minimum propagation delay.
    pub delay_min: TimeDelta,
    /// Maximum propagation delay — the paper's bound `ℓ`.
    pub delay_max: TimeDelta,
    /// Serialization rate in bytes per second; `None` for infinite
    /// bandwidth (size-independent delay).
    pub bytes_per_second: Option<u64>,
    /// Probability that a delivered message arrives *twice*, the copies
    /// taking independent delays (0.0–1.0).
    pub duplicate_probability: f64,
    /// Probability that a delivered message is held back by an extra
    /// delay in `(0, delay_max]`, letting later traffic overtake it
    /// (0.0–1.0). Reordered messages may arrive after the nominal bound
    /// `ℓ` — that is the fault being modeled.
    pub reorder_probability: f64,
    /// Probability that a delivered message has one bit flipped in
    /// transit (0.0–1.0) — a faulty NIC, cable, or switch buffer. The
    /// link stays oblivious to payload semantics: it reports *which* bit
    /// flipped via [`LinkOutcome::Corrupted`] and the harness applies
    /// the flip to its copy of the bytes. While zero (the default), the
    /// corruption path draws no randomness, so seeded runs replay
    /// byte-identically with or without the feature compiled in.
    pub corrupt_probability: f64,
}

impl Default for LinkConfig {
    /// A quiet LAN: no loss, 1–10 ms delay, infinite bandwidth, no
    /// duplication or reordering.
    fn default() -> Self {
        LinkConfig {
            loss_probability: 0.0,
            delay_min: TimeDelta::from_millis(1),
            delay_max: TimeDelta::from_millis(10),
            bytes_per_second: None,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            corrupt_probability: 0.0,
        }
    }
}

impl LinkConfig {
    /// This link's delays and bandwidth without its faults: no loss,
    /// duplication, reordering or corruption. Both
    /// drivers carry loss-exempt control traffic on such a lane, the
    /// physically redundant path of §4.1.
    #[must_use]
    pub fn fault_free(&self) -> LinkConfig {
        LinkConfig {
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            corrupt_probability: 0.0,
            ..*self
        }
    }

    fn serialization_delay(&self, size_bytes: usize) -> TimeDelta {
        match self.bytes_per_second {
            Some(rate) if rate > 0 => {
                TimeDelta::from_nanos((size_bytes as u128 * 1_000_000_000 / rate as u128) as u64)
            }
            _ => TimeDelta::ZERO,
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.loss_probability),
            "loss probability must be within [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.duplicate_probability),
            "duplicate probability must be within [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.reorder_probability),
            "reorder probability must be within [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.corrupt_probability),
            "corrupt probability must be within [0, 1]"
        );
        assert!(
            self.delay_min <= self.delay_max,
            "delay_min must not exceed delay_max"
        );
    }
}

/// The fate of one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The message arrives at this absolute time.
    Delivered(Time),
    /// The message was duplicated in flight: two copies arrive, at these
    /// absolute times (not necessarily ordered).
    Duplicated(Time, Time),
    /// The message arrives at this absolute time with the given bit
    /// (counting from bit 0 of byte 0) flipped in transit. The harness
    /// owns the bytes, so the link reports the flip for the harness to
    /// apply; receivers then see a frame whose CRC trailer no longer
    /// matches.
    Corrupted(Time, u64),
    /// The message is silently lost.
    Lost,
}

impl LinkOutcome {
    /// The first arrival time, if delivered at all.
    #[must_use]
    pub fn arrival(self) -> Option<Time> {
        match self {
            LinkOutcome::Delivered(t) | LinkOutcome::Corrupted(t, _) => Some(t),
            LinkOutcome::Duplicated(a, b) => Some(a.min(b)),
            LinkOutcome::Lost => None,
        }
    }

    /// Every arrival this transmission produces (none if lost, two if
    /// duplicated). A corrupted arrival is still an arrival — the bytes
    /// land, just damaged.
    pub fn arrivals(self) -> impl Iterator<Item = Time> {
        let (a, b) = match self {
            LinkOutcome::Delivered(t) | LinkOutcome::Corrupted(t, _) => (Some(t), None),
            LinkOutcome::Duplicated(t, u) => (Some(t), Some(u)),
            LinkOutcome::Lost => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// The flipped bit index, when the message was corrupted in transit.
    #[must_use]
    pub fn corrupted_bit(self) -> Option<u64> {
        match self {
            LinkOutcome::Corrupted(_, bit) => Some(bit),
            _ => None,
        }
    }

    /// Whether the message was lost.
    #[must_use]
    pub fn is_lost(self) -> bool {
        matches!(self, LinkOutcome::Lost)
    }
}

/// One direction of a point-to-point link with Bernoulli loss, bounded
/// uniform delay, and optional duplication, reordering, corruption and
/// time-windowed faults.
///
/// Deterministic: the fate of the `k`-th transmission is a function of the
/// seed, so simulation runs replay exactly.
///
/// # Examples
///
/// ```
/// use rtpb_net::{LinkConfig, LossyLink};
/// use rtpb_types::{Time, TimeDelta};
///
/// let mut link = LossyLink::new(LinkConfig::default(), 42);
/// let outcome = link.transmit(Time::from_millis(100), 64);
/// let arrival = outcome.arrival().expect("default link never loses");
/// let delay = arrival - Time::from_millis(100);
/// assert!(delay >= TimeDelta::from_millis(1) && delay <= TimeDelta::from_millis(10));
/// ```
#[derive(Debug, Clone)]
pub struct LossyLink {
    config: LinkConfig,
    rng: SimRng,
    windows: Vec<FaultWindow>,
    observer: EventWriter,
    label: String,
}

impl LossyLink {
    /// Creates a link with the given behaviour and random seed.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (a probability outside [0, 1]
    /// or `delay_min > delay_max`).
    #[must_use]
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        config.validate();
        LossyLink {
            config,
            rng: SimRng::seed_from(seed),
            windows: Vec::new(),
            observer: EventWriter::disabled(),
            label: String::new(),
        }
    }

    /// Attaches a structured-event writer; the link then reports every
    /// drop ([`EventKind::LinkDropped`]) and delivery perturbation
    /// ([`EventKind::LinkPerturbed`]) under `label`. Emission never
    /// consumes randomness, so instrumented links keep the exact fate
    /// sequence of uninstrumented ones.
    pub fn attach_observer(&mut self, writer: EventWriter, label: impl Into<String>) {
        self.observer = writer;
        self.label = label.into();
    }

    /// Decides the fate of a message of `size_bytes` sent at `now`.
    pub fn transmit(&mut self, now: Time, size_bytes: usize) -> LinkOutcome {
        // Windowed faults active at the send instant.
        let mut extra_delay = TimeDelta::ZERO;
        let mut window_loss: f64 = 0.0;
        let mut window_corrupt: f64 = 0.0;
        let mut outage = false;
        for w in &self.windows {
            if !w.covers(now) {
                continue;
            }
            match w.kind {
                FaultKind::Outage => outage = true,
                FaultKind::Loss(p) => window_loss = window_loss.max(p),
                FaultKind::DelaySpike(d) => extra_delay = extra_delay.max(d),
                FaultKind::Corrupt(p) => window_corrupt = window_corrupt.max(p),
            }
        }
        if outage {
            self.emit_drop(now, size_bytes);
            return LinkOutcome::Lost;
        }
        let effective = self.config.loss_probability.max(window_loss);
        if self.rng.chance(effective) {
            self.emit_drop(now, size_bytes);
            return LinkOutcome::Lost;
        }
        if extra_delay > TimeDelta::ZERO {
            self.emit_perturbed(now, "delay_spike");
        }
        // Corruption decision. `chance(0.0)` draws no randomness, so runs
        // with corruption disabled keep the exact fate sequence they had
        // before the feature existed.
        let corrupt = window_corrupt.max(self.config.corrupt_probability);
        if self.rng.chance(corrupt) {
            self.emit_perturbed(now, "corrupt");
            let bit = self.rng.index(size_bytes.max(1) * 8) as u64;
            let at = now + self.sample_delay(size_bytes) + extra_delay;
            return LinkOutcome::Corrupted(at, bit);
        }
        if self.rng.chance(self.config.reorder_probability) {
            // Hold the message back so later traffic can overtake it.
            self.emit_perturbed(now, "reorder");
            extra_delay += self
                .rng
                .delay_between(TimeDelta::from_nanos(1), self.config.delay_max);
        }
        let first = now + self.sample_delay(size_bytes) + extra_delay;
        if self.rng.chance(self.config.duplicate_probability) {
            self.emit_perturbed(now, "duplicate");
            let second = now + self.sample_delay(size_bytes) + extra_delay;
            return LinkOutcome::Duplicated(first, second);
        }
        LinkOutcome::Delivered(first)
    }

    fn emit_drop(&self, now: Time, size_bytes: usize) {
        if !self.observer.is_enabled() {
            return;
        }
        self.observer.emit(
            ClockDomain::Virtual,
            now,
            EventKind::LinkDropped {
                bytes: size_bytes as u64,
                link: self.label.clone(),
            },
        );
    }

    fn emit_perturbed(&self, now: Time, effect: &'static str) {
        if !self.observer.is_enabled() {
            return;
        }
        self.observer.emit(
            ClockDomain::Virtual,
            now,
            EventKind::LinkPerturbed {
                effect,
                link: self.label.clone(),
            },
        );
    }

    fn sample_delay(&mut self, size_bytes: usize) -> TimeDelta {
        let propagation = self
            .rng
            .delay_between(self.config.delay_min, self.config.delay_max);
        propagation + self.config.serialization_delay(size_bytes)
    }

    /// Schedules a time-windowed fault on this link direction.
    pub fn push_window(&mut self, window: FaultWindow) {
        match window.kind {
            FaultKind::Loss(p) => assert!(
                (0.0..=1.0).contains(&p),
                "loss probability must be within [0, 1]"
            ),
            FaultKind::Corrupt(p) => assert!(
                (0.0..=1.0).contains(&p),
                "corrupt probability must be within [0, 1]"
            ),
            _ => {}
        }
        self.windows.push(window);
    }

    /// Drops windows that can never apply again (`until <= now`), keeping
    /// long sweeps from scanning dead windows.
    pub fn expire_windows(&mut self, now: Time) {
        self.windows.retain(|w| w.until > now);
    }

    /// The link configuration.
    #[must_use]
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Replaces the loss probability mid-run (used by sweep harnesses).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside [0, 1].
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be within [0, 1]"
        );
        self.config.loss_probability = p;
    }
}

impl fmt::Display for LossyLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link(loss={:.1}%, delay=[{}, {}])",
            self.config.loss_probability * 100.0,
            self.config.delay_min,
            self.config.delay_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(loss: f64) -> LinkConfig {
        LinkConfig {
            loss_probability: loss,
            ..LinkConfig::default()
        }
    }

    #[test]
    fn lossless_link_delivers_everything_within_bound() {
        let mut link = LossyLink::new(cfg(0.0), 1);
        for k in 0..1000u64 {
            let now = Time::from_millis(k * 10);
            let outcome = link.transmit(now, 64);
            let arrival = outcome.arrival().expect("no loss configured");
            let delay = arrival - now;
            assert!(delay >= TimeDelta::from_millis(1));
            assert!(delay <= link.config().delay_max);
        }
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut link = LossyLink::new(cfg(1.0), 1);
        for _ in 0..100 {
            assert!(link.transmit(Time::ZERO, 1).is_lost());
        }
    }

    #[test]
    fn loss_rate_approximates_configuration() {
        let mut link = LossyLink::new(cfg(0.1), 7);
        let lost = (0..10_000)
            .filter(|_| link.transmit(Time::ZERO, 1).is_lost())
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((0.08..=0.12).contains(&rate), "observed {rate}");
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let run = |seed| {
            let mut link = LossyLink::new(cfg(0.3), seed);
            (0..200)
                .map(|_| link.transmit(Time::ZERO, 8))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let config = LinkConfig {
            bytes_per_second: Some(1_000_000), // 1 MB/s → 1 µs per byte
            delay_min: TimeDelta::from_millis(1),
            delay_max: TimeDelta::from_millis(1),
            ..LinkConfig::default()
        };
        let mut link = LossyLink::new(config, 1);
        let a = link.transmit(Time::ZERO, 1000).arrival().unwrap();
        // 1 ms propagation + 1 ms serialization.
        assert_eq!(a, Time::from_millis(2));
    }

    #[test]
    fn fault_free_keeps_the_timing_and_drops_every_fault() {
        let faulty = LinkConfig {
            loss_probability: 0.3,
            delay_min: TimeDelta::from_millis(2),
            delay_max: TimeDelta::from_millis(7),
            bytes_per_second: Some(1_000_000),
            duplicate_probability: 0.2,
            reorder_probability: 0.1,
            corrupt_probability: 0.05,
        };
        assert_eq!(
            faulty.fault_free(),
            LinkConfig {
                delay_min: faulty.delay_min,
                delay_max: faulty.delay_max,
                bytes_per_second: faulty.bytes_per_second,
                ..LinkConfig::default()
            }
        );
    }

    #[test]
    fn set_loss_probability_takes_effect() {
        let mut link = LossyLink::new(cfg(0.0), 3);
        assert!(!link.transmit(Time::ZERO, 1).is_lost());
        link.set_loss_probability(1.0);
        assert!(link.transmit(Time::ZERO, 1).is_lost());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        let _ = LossyLink::new(cfg(1.5), 1);
    }

    #[test]
    #[should_panic(expected = "delay_min")]
    fn inverted_delay_range_panics() {
        let config = LinkConfig {
            delay_min: TimeDelta::from_millis(10),
            delay_max: TimeDelta::from_millis(1),
            ..LinkConfig::default()
        };
        let _ = LossyLink::new(config, 1);
    }

    #[test]
    fn display_shows_parameters() {
        let link = LossyLink::new(cfg(0.25), 1);
        assert_eq!(link.to_string(), "link(loss=25.0%, delay=[1ms, 10ms])");
    }

    #[test]
    fn outcome_accessors() {
        assert_eq!(
            LinkOutcome::Delivered(Time::from_millis(5)).arrival(),
            Some(Time::from_millis(5))
        );
        assert_eq!(LinkOutcome::Lost.arrival(), None);
        assert!(LinkOutcome::Lost.is_lost());
        let dup = LinkOutcome::Duplicated(Time::from_millis(9), Time::from_millis(4));
        assert_eq!(dup.arrival(), Some(Time::from_millis(4)));
        assert_eq!(dup.arrivals().count(), 2);
        assert_eq!(LinkOutcome::Lost.arrivals().count(), 0);
    }

    #[test]
    fn duplication_produces_two_arrivals() {
        let config = LinkConfig {
            duplicate_probability: 1.0,
            ..LinkConfig::default()
        };
        let mut link = LossyLink::new(config, 11);
        let outcome = link.transmit(Time::from_millis(50), 16);
        assert!(matches!(outcome, LinkOutcome::Duplicated(_, _)));
        assert_eq!(outcome.arrivals().count(), 2);
        for at in outcome.arrivals() {
            assert!(at >= Time::from_millis(51));
            assert!(at <= Time::from_millis(60));
        }
    }

    #[test]
    fn reordering_can_exceed_the_nominal_bound() {
        let config = LinkConfig {
            reorder_probability: 1.0,
            ..LinkConfig::default()
        };
        let bus = rtpb_obs::EventBus::with_capacity(256);
        let mut link = LossyLink::new(config, 13);
        link.attach_observer(bus.writer(), "p->b1");
        let mut beyond = 0;
        for _ in 0..100 {
            let at = link.transmit(Time::ZERO, 8).arrival().unwrap();
            assert!(at <= Time::from_millis(20)); // delay + extra ≤ 2·ℓ
            if at > Time::from_millis(10) {
                beyond = 1;
            }
        }
        let held = bus.collect().into_iter().filter(|e| {
            matches!(
                e.kind,
                rtpb_obs::EventKind::LinkPerturbed {
                    effect: "reorder",
                    ..
                }
            )
        });
        assert_eq!(held.count(), 100);
        assert_eq!(beyond, 1, "some message should exceed the nominal bound");
    }

    #[test]
    fn outage_window_drops_only_inside_its_span() {
        let mut link = LossyLink::new(cfg(0.0), 5);
        link.push_window(FaultWindow {
            from: Time::from_millis(100),
            until: Time::from_millis(200),
            kind: FaultKind::Outage,
        });
        assert!(!link.transmit(Time::from_millis(50), 8).is_lost());
        assert!(link.transmit(Time::from_millis(100), 8).is_lost());
        assert!(link.transmit(Time::from_millis(199), 8).is_lost());
        assert!(!link.transmit(Time::from_millis(200), 8).is_lost());
    }

    #[test]
    fn loss_window_elevates_the_rate() {
        let mut link = LossyLink::new(cfg(0.0), 29);
        link.push_window(FaultWindow {
            from: Time::ZERO,
            until: Time::from_secs(1),
            kind: FaultKind::Loss(1.0),
        });
        assert!(link.transmit(Time::from_millis(10), 8).is_lost());
        assert!(!link.transmit(Time::from_secs(2), 8).is_lost());
    }

    #[test]
    fn delay_spike_window_adds_latency() {
        let mut link = LossyLink::new(cfg(0.0), 31);
        link.push_window(FaultWindow {
            from: Time::ZERO,
            until: Time::from_secs(1),
            kind: FaultKind::DelaySpike(TimeDelta::from_millis(100)),
        });
        let spiked = link.transmit(Time::ZERO, 8).arrival().unwrap();
        assert!(spiked >= Time::from_millis(101));
        let normal = link.transmit(Time::from_secs(2), 8).arrival().unwrap();
        assert!(normal <= Time::from_secs(2) + TimeDelta::from_millis(10));
    }

    #[test]
    fn observer_sees_drops_and_perturbations_without_changing_fates() {
        use rtpb_obs::EventBus;

        let config = LinkConfig {
            loss_probability: 0.3,
            duplicate_probability: 0.2,
            reorder_probability: 0.2,
            ..LinkConfig::default()
        };
        let run = |observe: bool| {
            let bus = EventBus::with_capacity(4096);
            let mut link = LossyLink::new(config, 41);
            if observe {
                link.attach_observer(bus.writer(), "p->b1");
            }
            let fates: Vec<_> = (0..500)
                .map(|k| link.transmit(Time::from_millis(k), 8))
                .collect();
            (fates, bus.collect())
        };
        let (plain, none) = run(false);
        let (observed, events) = run(true);
        // Instrumentation must not consume randomness.
        assert_eq!(plain, observed);
        assert!(none.is_empty());
        let drops = events
            .iter()
            .filter(|e| matches!(e.kind, rtpb_obs::EventKind::LinkDropped { .. }))
            .count();
        let perturbs = events
            .iter()
            .filter(|e| matches!(e.kind, rtpb_obs::EventKind::LinkPerturbed { .. }))
            .count();
        assert_eq!(
            drops as u64,
            observed.iter().filter(|o| o.is_lost()).count() as u64
        );
        assert!(perturbs > 0);
    }

    #[test]
    fn corruption_reports_a_bit_within_the_frame() {
        let config = LinkConfig {
            corrupt_probability: 1.0,
            ..LinkConfig::default()
        };
        let mut link = LossyLink::new(config, 43);
        for _ in 0..100 {
            let outcome = link.transmit(Time::ZERO, 16);
            let bit = outcome.corrupted_bit().expect("always corrupts");
            assert!(bit < 16 * 8);
            assert!(outcome.arrival().is_some(), "corrupted frames still land");
            assert!(!outcome.is_lost());
        }
    }

    #[test]
    fn corrupt_window_applies_only_inside_its_span() {
        let mut link = LossyLink::new(cfg(0.0), 47);
        link.push_window(FaultWindow {
            from: Time::from_millis(100),
            until: Time::from_millis(200),
            kind: FaultKind::Corrupt(1.0),
        });
        assert!(link
            .transmit(Time::from_millis(50), 8)
            .corrupted_bit()
            .is_none());
        assert!(link
            .transmit(Time::from_millis(150), 8)
            .corrupted_bit()
            .is_some());
        assert!(link
            .transmit(Time::from_millis(250), 8)
            .corrupted_bit()
            .is_none());
    }

    #[test]
    fn disabled_corruption_consumes_no_randomness() {
        // The fate sequence with corrupt_probability: 0.0 must be
        // byte-identical to one from a build that predates the feature —
        // i.e. to a run that never consults the corruption path at all.
        let run = |corrupt| {
            let config = LinkConfig {
                loss_probability: 0.3,
                duplicate_probability: 0.2,
                reorder_probability: 0.2,
                corrupt_probability: corrupt,
                ..LinkConfig::default()
            };
            let mut link = LossyLink::new(config, 53);
            (0..500)
                .map(|k| link.transmit(Time::from_millis(k), 8))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0.0), run(0.0));
        assert_ne!(run(0.0), run(0.5));
    }

    #[test]
    fn expired_windows_are_garbage_collected() {
        let mut link = LossyLink::new(cfg(0.0), 37);
        link.push_window(FaultWindow {
            from: Time::ZERO,
            until: Time::from_millis(10),
            kind: FaultKind::Outage,
        });
        link.expire_windows(Time::from_millis(10));
        assert!(!link.transmit(Time::from_millis(5), 8).is_lost());
    }
}
