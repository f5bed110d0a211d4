//! Heartbeat-based failure detection (paper §4.4).
//!
//! Both the primary and the backup run a "ping thread": send a probe every
//! 50 ms, expect an acknowledgement within 100 ms, re-probe on timeout,
//! and declare the peer dead after three consecutive misses. The detector
//! is a pure state machine: the driver feeds it timer ticks and received
//! acks, and it answers with probes to send and a verdict.

use rtpb_types::{Time, TimeDelta};

/// Heartbeat probe period (§4.4).
pub(crate) const HEARTBEAT_PERIOD: TimeDelta = TimeDelta::from_millis(50);

/// How long a probe waits for its ack before it counts as a miss.
const HEARTBEAT_TIMEOUT: TimeDelta = TimeDelta::from_millis(100);

/// Consecutive misses after which the peer is declared dead.
const HEARTBEAT_MISS_THRESHOLD: u32 = 3;

/// The failure-detection declaration bound: the minimum elapsed time
/// between a backup's last contact with the primary and the instant it
/// may declare the primary dead (three misses of a 100 ms probe timeout
/// each). The lease sizing rule
/// ([`ProtocolConfig::check`](crate::config::ProtocolConfig::check))
/// compares against it.
pub const DECLARATION_BOUND: TimeDelta =
    TimeDelta::from_nanos(HEARTBEAT_TIMEOUT.as_nanos() * HEARTBEAT_MISS_THRESHOLD as u64);

const _: () = assert!(HEARTBEAT_TIMEOUT.as_nanos() >= HEARTBEAT_PERIOD.as_nanos());
const _: () = assert!(HEARTBEAT_MISS_THRESHOLD >= 1);

/// What the detector wants done after a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorAction {
    /// Send a probe with this sequence number.
    SendPing(u64),
    /// Nothing to do right now.
    Idle,
    /// The peer has been declared dead (returned exactly once).
    DeclareDead,
}

/// The failure detector run by each server against its peer.
///
/// # Examples
///
/// ```
/// use rtpb_core::heartbeat::{DetectorAction, FailureDetector};
/// use rtpb_types::Time;
///
/// let mut fd = FailureDetector::default();
/// // First tick sends a probe.
/// assert_eq!(fd.tick(Time::ZERO), DetectorAction::SendPing(0));
/// // The ack arrives in time: peer considered alive.
/// fd.on_ack(0, Time::from_millis(20));
/// assert!(fd.is_peer_alive());
/// ```
#[derive(Debug, Clone)]
pub struct FailureDetector {
    next_seq: u64,
    /// The in-flight probe as `(seq, sent_at)`. The send timestamp — not
    /// the timeout deadline — is stored so that a matching ack can report
    /// when the probe left: leadership leases renew from that instant
    /// (guard-start-before-send), never from the ack's arrival time.
    outstanding: Option<(u64, Time)>,
    consecutive_misses: u32,
    next_probe_at: Time,
    peer_alive: bool,
    declared: bool,
}

impl Default for FailureDetector {
    /// A detector whose peer is alive and whose first tick probes it.
    fn default() -> Self {
        FailureDetector {
            next_seq: 0,
            outstanding: None,
            consecutive_misses: 0,
            next_probe_at: Time::ZERO,
            peer_alive: true,
            declared: false,
        }
    }
}

impl FailureDetector {
    /// Whether the peer is currently considered alive.
    #[must_use]
    pub fn is_peer_alive(&self) -> bool {
        self.peer_alive
    }

    /// Consecutive unanswered probes.
    #[must_use]
    pub fn consecutive_misses(&self) -> u32 {
        self.consecutive_misses
    }

    /// Advances the detector to `now`.
    ///
    /// Call at least once per probe period (the driver typically schedules
    /// a periodic timer). Returns at most one action per call.
    pub fn tick(&mut self, now: Time) -> DetectorAction {
        if self.declared {
            return DetectorAction::Idle;
        }
        // An outstanding probe that timed out counts as a miss.
        if let Some((_, sent_at)) = self.outstanding {
            if now >= sent_at + HEARTBEAT_TIMEOUT {
                self.outstanding = None;
                self.consecutive_misses += 1;
                if self.consecutive_misses >= HEARTBEAT_MISS_THRESHOLD {
                    self.peer_alive = false;
                    self.declared = true;
                    return DetectorAction::DeclareDead;
                }
                // Re-probe immediately after a miss (§4.4: "it will
                // timeout and resend a ping message").
                return self.send_probe(now);
            }
            return DetectorAction::Idle;
        }
        if now >= self.next_probe_at {
            return self.send_probe(now);
        }
        DetectorAction::Idle
    }

    fn send_probe(&mut self, now: Time) -> DetectorAction {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding = Some((seq, now));
        self.next_probe_at = now + HEARTBEAT_PERIOD;
        DetectorAction::SendPing(seq)
    }

    /// Records an acknowledgement. Stale acks (for an older probe) still
    /// prove the peer was recently alive and reset the miss counter.
    ///
    /// Returns the *send* timestamp of the acknowledged probe when `seq`
    /// exactly matches the outstanding one — the guard-start-before-send
    /// instant a leadership lease may renew from. Late acks and unknown
    /// sequence numbers return `None`: they are liveness evidence at most,
    /// never lease-renewal evidence (their send instant is no longer
    /// known, so no declaration-bound argument can be anchored to them).
    pub fn on_ack(&mut self, seq: u64, _now: Time) -> Option<Time> {
        if self.declared {
            return None;
        }
        match self.outstanding {
            Some((expected, sent_at)) if seq == expected => {
                self.outstanding = None;
                self.consecutive_misses = 0;
                self.peer_alive = true;
                Some(sent_at)
            }
            _ if seq < self.next_seq => {
                // Late ack for an earlier probe: evidence of life.
                self.consecutive_misses = 0;
                self.peer_alive = true;
                None
            }
            _ => None,
        }
    }

    /// Records out-of-band evidence of peer life — an arriving frame that
    /// carries updates (batched or not) proves the peer is up just as well
    /// as a ping ack. Clears any outstanding probe, zeroes the miss
    /// counter, and pushes the next explicit probe a full period out, so
    /// steady update traffic suppresses explicit pings entirely and the
    /// ping path degrades to an idle fallback.
    pub fn note_traffic(&mut self, now: Time) {
        if self.declared {
            return;
        }
        self.outstanding = None;
        self.consecutive_misses = 0;
        self.peer_alive = true;
        self.next_probe_at = now + HEARTBEAT_PERIOD;
    }

    /// Resets the detector for a new peer (after recruiting a new backup).
    pub fn reset(&mut self, now: Time) {
        self.outstanding = None;
        self.consecutive_misses = 0;
        self.peer_alive = true;
        self.declared = false;
        self.next_probe_at = now;
    }

    /// The next instant at which [`FailureDetector::tick`] can do useful
    /// work, for efficient driver timers. While a probe is outstanding no
    /// new probe will be sent, so the only actionable deadline is its
    /// timeout expiry; otherwise it is the next probe time.
    #[must_use]
    pub fn next_deadline(&self) -> Time {
        match self.outstanding {
            Some((_, sent_at)) => sent_at + HEARTBEAT_TIMEOUT,
            None => self.next_probe_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd() -> FailureDetector {
        FailureDetector::default()
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn healthy_exchange_keeps_peer_alive() {
        let mut d = fd();
        for k in 0..10u64 {
            let now = t(k * 50);
            match d.tick(now) {
                DetectorAction::SendPing(seq) => {
                    d.on_ack(seq, now + TimeDelta::from_millis(5));
                }
                other => panic!("expected probe at {now}, got {other:?}"),
            }
        }
        assert!(d.is_peer_alive());
        assert_eq!(d.consecutive_misses(), 0);
    }

    #[test]
    fn declares_dead_after_threshold_misses() {
        let mut d = fd();
        let mut now = Time::ZERO;
        let mut actions = Vec::new();
        // Never ack; drive ticks forward.
        for _ in 0..20 {
            let a = d.tick(now);
            actions.push(a);
            if a == DetectorAction::DeclareDead {
                break;
            }
            now = d.next_deadline();
        }
        assert!(actions.contains(&DetectorAction::DeclareDead));
        assert!(!d.is_peer_alive());
        let probes = actions
            .iter()
            .filter(|a| matches!(a, DetectorAction::SendPing(_)))
            .count();
        assert_eq!(probes, 3, "threshold misses = threshold probes");
    }

    #[test]
    fn declare_dead_is_emitted_once() {
        let mut d = fd();
        let mut now = Time::ZERO;
        let mut deaths = 0;
        for _ in 0..30 {
            if d.tick(now) == DetectorAction::DeclareDead {
                deaths += 1;
            }
            now += TimeDelta::from_millis(60);
        }
        assert_eq!(deaths, 1);
    }

    #[test]
    fn one_miss_recovers_on_next_ack() {
        let mut d = fd();
        let DetectorAction::SendPing(_first) = d.tick(Time::ZERO) else {
            panic!("expected probe");
        };
        // Let it time out (miss 1) — the detector immediately re-probes.
        let a = d.tick(t(100));
        let DetectorAction::SendPing(second) = a else {
            panic!("expected re-probe, got {a:?}");
        };
        assert_eq!(d.consecutive_misses(), 1);
        d.on_ack(second, t(110));
        assert_eq!(d.consecutive_misses(), 0);
        assert!(d.is_peer_alive());
    }

    #[test]
    fn stale_ack_counts_as_evidence_of_life() {
        let mut d = fd();
        let DetectorAction::SendPing(first) = d.tick(Time::ZERO) else {
            panic!()
        };
        let _ = d.tick(t(100)); // first times out, re-probe issued
        assert_eq!(d.consecutive_misses(), 1);
        // The ack for the *first* probe arrives very late.
        d.on_ack(first, t(120));
        assert_eq!(d.consecutive_misses(), 0);
    }

    #[test]
    fn matching_ack_reports_the_probe_send_time() {
        let mut d = fd();
        let DetectorAction::SendPing(first) = d.tick(t(40)) else {
            panic!()
        };
        // The exact outstanding match hands back when the probe left —
        // the only instant a lease may renew from.
        assert_eq!(d.on_ack(first, t(60)), Some(t(40)));
        // A late duplicate of the same ack is liveness-only.
        assert_eq!(d.on_ack(first, t(70)), None);
        // And so is a late ack that arrives after a re-probe.
        let DetectorAction::SendPing(_) = d.tick(t(140) + TimeDelta::from_millis(1)) else {
            panic!()
        };
        assert_eq!(d.on_ack(first, t(150)), None);
        assert_eq!(d.consecutive_misses(), 0);
    }

    #[test]
    fn unknown_future_seq_is_ignored() {
        let mut d = fd();
        let _ = d.tick(Time::ZERO);
        d.on_ack(999, t(10));
        // Still outstanding: tick at timeout registers the miss.
        let _ = d.tick(t(100));
        assert_eq!(d.consecutive_misses(), 1);
    }

    #[test]
    fn reset_rearms_after_declaration() {
        let mut d = fd();
        let mut now = Time::ZERO;
        loop {
            if d.tick(now) == DetectorAction::DeclareDead {
                break;
            }
            now = d.next_deadline();
        }
        d.reset(now);
        assert!(d.is_peer_alive());
        assert!(matches!(d.tick(now), DetectorAction::SendPing(_)));
    }

    #[test]
    fn next_deadline_tracks_probe_schedule() {
        let mut d = fd();
        assert_eq!(d.next_deadline(), Time::ZERO);
        let DetectorAction::SendPing(seq) = d.tick(Time::ZERO) else {
            panic!()
        };
        // Outstanding: the actionable deadline is the timeout expiry.
        assert_eq!(d.next_deadline(), t(100));
        d.on_ack(seq, t(5));
        // Acked: back to the probe schedule.
        assert_eq!(d.next_deadline(), t(50));
    }

    #[test]
    fn traffic_suppresses_the_next_probe() {
        let mut d = fd();
        // Steady traffic every 40 ms: no probe is ever due.
        let mut now = Time::ZERO;
        for _ in 0..10 {
            d.note_traffic(now);
            now += TimeDelta::from_millis(40);
            assert_eq!(d.tick(now), DetectorAction::Idle);
        }
        assert!(d.is_peer_alive());
        assert_eq!(d.consecutive_misses(), 0);
        // Traffic stops: the idle fallback probe fires one period later.
        d.note_traffic(now);
        assert!(matches!(
            d.tick(now + TimeDelta::from_millis(50)),
            DetectorAction::SendPing(_)
        ));
    }

    #[test]
    fn traffic_clears_an_outstanding_probe() {
        let mut d = fd();
        let DetectorAction::SendPing(_) = d.tick(Time::ZERO) else {
            panic!()
        };
        // The ack is lost but an update frame arrives before the timeout:
        // no miss is charged.
        d.note_traffic(t(80));
        let _ = d.tick(t(100));
        assert_eq!(d.consecutive_misses(), 0);
        assert!(d.is_peer_alive());
    }
}
