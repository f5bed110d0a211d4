//! Runtime temporal-envelope monitoring (clock-fault detection).
//!
//! Every guarantee in this crate — lease-based split-brain exclusion
//! (§4.4), staleness certificates (Theorem 5) — is proved *conditional on
//! a timing envelope*: clocks agree to within `clock_skew`, messages
//! arrive within `link_delay_bound`, local clocks advance monotonically.
//! The proofs say nothing about what happens when the envelope breaks;
//! a stepped or drifting clock silently converts "guaranteed fresh" into
//! "confidently wrong". The [`TemporalMonitor`] closes that gap: each
//! node cross-checks the timing evidence it can observe locally against
//! the configured envelope and, on contradiction, raises a typed
//! [`TimingViolation`] and *degrades* — the node stops vouching for
//! staleness until the evidence has been clean for a quiet period.
//!
//! Observable evidence (all checks are local; no extra messages):
//!
//! - **Round trips**: a probe acknowledged later than two link-delay
//!   bounds (plus slack) after it was sent contradicts the delay bound.
//! - **Remote timestamps**: an update stamped more than `clock_skew`
//!   ahead of the local clock contradicts the skew bound — one of the
//!   two clocks is outside the envelope.
//! - **Renewals from the future**: a probe whose recorded send instant is
//!   *later* than the local now means the local clock regressed between
//!   send and ack; extending a lease from that instant would extend it
//!   past the true monotone bound.
//! - **Local regression / stall**: the local clock read earlier than a
//!   previous reading, or failed to advance across many frames.
//!
//! Detection is inherently after-the-fact: a clock stepped backwards
//! while a node is idle cannot be noticed until the next reading or
//! message. The degradation contract is therefore *fail-explicit*, not
//! fail-proof — once evidence surfaces, no further certificate is minted
//! (reads refuse with [`rtpb_types::ReadError::Unsound`] semantics)
//! until the envelope holds again.

use rtpb_types::{NodeId, Time, TimeDelta};

use crate::config::ProtocolConfig;

/// How long the envelope must hold after the last violation before a
/// degraded node re-enables certificate minting, admissions, and lease
/// renewal.
const MONITOR_QUIET_PERIOD: TimeDelta = TimeDelta::from_millis(500);

/// Slack added to the probe round-trip bound on top of `2 ×
/// link_delay_bound`, absorbing benign jitter (reordering hold-back in
/// the sim, scheduling noise under a real clock) so only genuine envelope
/// violations trip the monitor.
const MONITOR_RTT_SLACK: TimeDelta = TimeDelta::from_millis(10);

/// Consecutive inbound frames handled without the local clock advancing
/// before the monitor declares the clock stalled. Event cascades
/// legitimately deliver several frames at one instant; a frozen clock
/// pins *every* subsequent frame to one reading, so a generous threshold
/// separates the two.
const MONITOR_STALL_THRESHOLD: u32 = 32;

// A zero quiet period would let a degraded node recover at once, so the
// degradation would protect nothing.
const _: () = assert!(!MONITOR_QUIET_PERIOD.is_zero());

/// A detected contradiction between observed timing evidence and the
/// configured temporal envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingViolation {
    /// A probe/ack round trip exceeded twice the link delay bound (plus
    /// the configured slack).
    RoundTripExceeded {
        /// The peer the probe was exchanged with.
        peer: NodeId,
        /// The observed round-trip time.
        observed: TimeDelta,
        /// The bound it was checked against (`2 × link_delay_bound` plus
        /// a 10 ms slack).
        bound: TimeDelta,
    },
    /// A message carried a timestamp more than `clock_skew` ahead of the
    /// local clock.
    TimestampFromFuture {
        /// The node whose timestamp was ahead.
        peer: NodeId,
        /// How far ahead of the local clock the timestamp read.
        ahead: TimeDelta,
        /// The configured `clock_skew` bound.
        bound: TimeDelta,
    },
    /// A lease renewal's recorded send instant was later than the local
    /// now — evidence the local clock regressed since the probe was sent.
    RenewalFromFuture {
        /// How far in the local future the send instant sits.
        ahead: TimeDelta,
    },
    /// The local clock read earlier than a previous reading.
    LocalClockRegression {
        /// The magnitude of the regression.
        regressed: TimeDelta,
    },
    /// The local clock failed to advance across many consecutive frames.
    ClockStalled {
        /// Consecutive frames observed without the clock moving.
        frames: u32,
    },
}

impl TimingViolation {
    /// A stable machine-readable label for trace evidence fields.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TimingViolation::RoundTripExceeded { .. } => "round_trip_exceeded",
            TimingViolation::TimestampFromFuture { .. } => "timestamp_from_future",
            TimingViolation::RenewalFromFuture { .. } => "renewal_from_future",
            TimingViolation::LocalClockRegression { .. } => "local_clock_regression",
            TimingViolation::ClockStalled { .. } => "clock_stalled",
        }
    }

    /// The observed magnitude, in nanoseconds (frame count for stalls).
    #[must_use]
    pub fn observed_ns(&self) -> u64 {
        match self {
            TimingViolation::RoundTripExceeded { observed, .. } => observed.as_nanos(),
            TimingViolation::TimestampFromFuture { ahead, .. }
            | TimingViolation::RenewalFromFuture { ahead } => ahead.as_nanos(),
            TimingViolation::LocalClockRegression { regressed } => regressed.as_nanos(),
            TimingViolation::ClockStalled { frames } => u64::from(*frames),
        }
    }

    /// The bound the observation was checked against, in nanoseconds
    /// (zero where the envelope permits no slack at all).
    #[must_use]
    pub fn bound_ns(&self) -> u64 {
        match self {
            TimingViolation::RoundTripExceeded { bound, .. }
            | TimingViolation::TimestampFromFuture { bound, .. } => bound.as_nanos(),
            TimingViolation::RenewalFromFuture { .. }
            | TimingViolation::LocalClockRegression { .. }
            | TimingViolation::ClockStalled { .. } => 0,
        }
    }
}

/// A state transition the monitor wants surfaced to observability.
///
/// Each core call that returns a [`steps::Output`](crate::steps::Output)
/// moves them into it ([`TemporalMonitor::drain_into`]); the step
/// surfaces them as trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEvent {
    /// A timing violation was detected.
    Violation(TimingViolation),
    /// The node entered degraded mode (first violation while healthy).
    Degraded,
    /// The envelope held for the quiet period; fast paths re-enabled.
    Recovered,
}

/// Per-node runtime monitor cross-checking observed timing evidence
/// against the configured temporal envelope.
///
/// While degraded ([`TemporalMonitor::is_degraded`]) the owning node must
/// not vouch for staleness: the primary stops admitting objects and
/// serving certified reads, backups refuse reads with an explicit
/// `Unsound` status instead of a certificate that might lie.
#[derive(Debug, Clone)]
pub struct TemporalMonitor {
    enabled: bool,
    rtt_bound: TimeDelta,
    skew_bound: TimeDelta,
    degraded: bool,
    last_violation_at: Option<Time>,
    high_water: Time,
    stalled_frames: u32,
    violations: u64,
    events: Vec<MonitorEvent>,
}

impl TemporalMonitor {
    /// Builds a monitor from the protocol's envelope parameters.
    #[must_use]
    pub fn new(config: &ProtocolConfig) -> Self {
        TemporalMonitor {
            enabled: config.monitor_enabled,
            rtt_bound: config.link_delay_bound + config.link_delay_bound + MONITOR_RTT_SLACK,
            skew_bound: config.clock_skew,
            degraded: false,
            last_violation_at: None,
            high_water: Time::ZERO,
            stalled_frames: 0,
            violations: 0,
            events: Vec::new(),
        }
    }

    fn raise(&mut self, now: Time, violation: TimingViolation) {
        self.violations += 1;
        // Keep the freshest evidence instant; a regressed `now` must not
        // rewind the quiet-period countdown.
        self.last_violation_at = Some(match self.last_violation_at {
            Some(prev) if prev > now => prev,
            _ => now,
        });
        self.events.push(MonitorEvent::Violation(violation));
        if !self.degraded {
            self.degraded = true;
            self.events.push(MonitorEvent::Degraded);
        }
    }

    /// Feeds a local clock reading: detects regression (an earlier
    /// reading than the running high-water mark) and stalls (the clock
    /// pinned across 32 consecutive readings).
    pub fn observe_now(&mut self, now: Time) {
        if !self.enabled {
            return;
        }
        if now < self.high_water {
            let regressed = self.high_water.saturating_since(now);
            // Re-arm at the regressed reading so one step raises one
            // violation instead of firing on every frame thereafter.
            self.high_water = now;
            self.stalled_frames = 0;
            self.raise(now, TimingViolation::LocalClockRegression { regressed });
        } else if now == self.high_water {
            self.stalled_frames += 1;
            if self.stalled_frames >= MONITOR_STALL_THRESHOLD {
                let frames = self.stalled_frames;
                self.stalled_frames = 0;
                self.raise(now, TimingViolation::ClockStalled { frames });
            }
        } else {
            self.high_water = now;
            self.stalled_frames = 0;
        }
    }

    /// Checks a completed probe/ack round trip against the link delay
    /// bound.
    pub fn observe_round_trip(&mut self, peer: NodeId, sent_at: Time, now: Time) {
        if !self.enabled {
            return;
        }
        let observed = now.saturating_since(sent_at);
        if observed > self.rtt_bound {
            let bound = self.rtt_bound;
            self.raise(
                now,
                TimingViolation::RoundTripExceeded {
                    peer,
                    observed,
                    bound,
                },
            );
        }
    }

    /// Checks a timestamp carried by a message from `peer` against the
    /// clock-skew bound.
    pub fn observe_remote_timestamp(&mut self, peer: NodeId, timestamp: Time, now: Time) {
        if !self.enabled {
            return;
        }
        if timestamp > now + self.skew_bound {
            let ahead = timestamp.saturating_since(now);
            let bound = self.skew_bound;
            self.raise(
                now,
                TimingViolation::TimestampFromFuture { peer, ahead, bound },
            );
        }
    }

    /// Vets a lease renewal anchored at `sent_at`. Returns `false` — and
    /// raises a violation — when the send instant lies in the local
    /// future, in which case the caller must *not* extend the lease.
    #[must_use]
    pub fn note_renewal(&mut self, sent_at: Time, now: Time) -> bool {
        if !self.enabled {
            return true;
        }
        if sent_at > now {
            let ahead = sent_at.saturating_since(now);
            self.raise(now, TimingViolation::RenewalFromFuture { ahead });
            return false;
        }
        true
    }

    /// Re-enables fast paths once the envelope has held for the quiet
    /// period since the last violation.
    pub fn maybe_recover(&mut self, now: Time) {
        if !self.degraded {
            return;
        }
        let Some(last) = self.last_violation_at else {
            return;
        };
        if now.saturating_since(last) >= MONITOR_QUIET_PERIOD {
            self.degraded = false;
            self.events.push(MonitorEvent::Recovered);
        }
    }

    /// Whether the node is currently degraded (must not vouch for
    /// staleness).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Total violations raised since construction.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Moves the pending state-transition events to the end of `out`. The
    /// monitor keeps its buffer, so raising more events later does not
    /// allocate again.
    pub fn drain_into(&mut self, out: &mut Vec<MonitorEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(m: &mut TemporalMonitor) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        m.drain_into(&mut events);
        events
    }

    fn monitor() -> TemporalMonitor {
        TemporalMonitor::new(&ProtocolConfig::default())
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    fn peer() -> NodeId {
        NodeId::new(7)
    }

    #[test]
    fn clean_evidence_raises_nothing() {
        let mut m = monitor();
        m.observe_now(t(10));
        m.observe_now(t(20));
        // Default envelope: ℓ = 10 ms, slack 10 ms → RTT bound 30 ms.
        m.observe_round_trip(peer(), t(10), t(40));
        m.observe_remote_timestamp(peer(), t(45), t(40));
        assert!(m.note_renewal(t(35), t(40)));
        assert!(!m.is_degraded());
        assert_eq!(m.violations(), 0);
        assert!(drained(&mut m).is_empty());
    }

    #[test]
    fn slow_round_trip_degrades() {
        let mut m = monitor();
        m.observe_round_trip(peer(), t(10), t(41));
        assert!(m.is_degraded());
        assert_eq!(m.violations(), 1);
        let events = drained(&mut m);
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            MonitorEvent::Violation(TimingViolation::RoundTripExceeded { .. })
        ));
        assert_eq!(events[1], MonitorEvent::Degraded);
        assert!(drained(&mut m).is_empty());
    }

    #[test]
    fn timestamp_within_skew_tolerated_beyond_flagged() {
        let mut m = monitor();
        // Default clock_skew is 10 ms.
        m.observe_remote_timestamp(peer(), t(110), t(100));
        assert!(!m.is_degraded());
        m.observe_remote_timestamp(peer(), t(111), t(100));
        assert!(m.is_degraded());
        let events = drained(&mut m);
        match events[0] {
            MonitorEvent::Violation(TimingViolation::TimestampFromFuture {
                ahead, bound, ..
            }) => {
                assert_eq!(ahead, TimeDelta::from_millis(11));
                assert_eq!(bound, TimeDelta::from_millis(10));
            }
            ref other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn renewal_from_the_future_is_refused() {
        let mut m = monitor();
        assert!(!m.note_renewal(t(120), t(100)));
        assert!(m.is_degraded());
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn local_regression_fires_once_per_step() {
        let mut m = monitor();
        m.observe_now(t(100));
        m.observe_now(t(60));
        assert_eq!(m.violations(), 1);
        // Re-armed: the clock running forward again from 60 is clean.
        m.observe_now(t(70));
        m.observe_now(t(80));
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn stalled_clock_fires_after_threshold_frames() {
        let mut m = monitor();
        m.observe_now(t(100));
        for _ in 0..MONITOR_STALL_THRESHOLD - 1 {
            m.observe_now(t(100));
        }
        assert!(!m.is_degraded());
        m.observe_now(t(100));
        assert!(m.is_degraded());
        assert!(matches!(
            drained(&mut m)[0],
            MonitorEvent::Violation(TimingViolation::ClockStalled { .. })
        ));
    }

    #[test]
    fn recovers_after_quiet_period() {
        let mut m = monitor();
        m.observe_remote_timestamp(peer(), t(200), t(100));
        assert!(m.is_degraded());
        drained(&mut m);
        m.maybe_recover(t(100) + MONITOR_QUIET_PERIOD - TimeDelta::from_millis(1));
        assert!(m.is_degraded());
        m.maybe_recover(t(100) + MONITOR_QUIET_PERIOD);
        assert!(!m.is_degraded());
        assert_eq!(drained(&mut m), vec![MonitorEvent::Recovered]);
    }

    #[test]
    fn fresh_violations_extend_the_quiet_window() {
        let mut m = monitor();
        m.observe_remote_timestamp(peer(), t(200), t(100));
        m.observe_remote_timestamp(peer(), t(500), t(400));
        m.maybe_recover(t(100) + MONITOR_QUIET_PERIOD);
        assert!(m.is_degraded(), "second violation restarted the clock");
        m.maybe_recover(t(400) + MONITOR_QUIET_PERIOD);
        assert!(!m.is_degraded());
    }

    #[test]
    fn regressed_now_does_not_rewind_quiet_countdown() {
        let mut m = monitor();
        m.observe_remote_timestamp(peer(), t(500), t(400));
        // A violation raised at an earlier local instant (clock stepped
        // back) must not shorten the wait measured from t=400.
        m.observe_now(t(300));
        m.maybe_recover(t(300) + MONITOR_QUIET_PERIOD);
        assert!(m.is_degraded());
        m.maybe_recover(t(400) + MONITOR_QUIET_PERIOD);
        assert!(!m.is_degraded());
    }

    #[test]
    fn disabled_monitor_observes_nothing() {
        let config = ProtocolConfig {
            monitor_enabled: false,
            ..ProtocolConfig::default()
        };
        let mut m = TemporalMonitor::new(&config);
        m.observe_round_trip(peer(), t(0), t(500));
        m.observe_remote_timestamp(peer(), t(900), t(100));
        m.observe_now(t(50));
        m.observe_now(t(10));
        assert!(m.note_renewal(t(700), t(100)));
        assert!(!m.is_degraded());
        assert_eq!(m.violations(), 0);
        assert!(drained(&mut m).is_empty());
    }

    #[test]
    fn violation_metadata_matches_trace_contract() {
        let v = TimingViolation::RoundTripExceeded {
            peer: peer(),
            observed: TimeDelta::from_millis(45),
            bound: TimeDelta::from_millis(30),
        };
        assert_eq!(v.name(), "round_trip_exceeded");
        assert_eq!(v.observed_ns(), 45_000_000);
        assert_eq!(v.bound_ns(), 30_000_000);

        let v = TimingViolation::ClockStalled { frames: 32 };
        assert_eq!(v.name(), "clock_stalled");
        assert_eq!(v.observed_ns(), 32);
        assert_eq!(v.bound_ns(), 0);
    }
}
