//! Protocol configuration.

use crate::heartbeat::DECLARATION_BOUND;
use core::fmt;
use rtpb_types::TimeDelta;
use std::error::Error;

/// Duration of the primary's leadership lease. The lease is renewed only
/// by *acknowledged* probes of the primary's own, anchored at the probe's
/// **send** timestamp (guard-start-before-send) — mere inbound
/// reachability is one-directional evidence and renews nothing. Once the
/// lease lapses the primary must stop originating updates and refuse
/// client writes. [`ProtocolConfig::check`] requires `LEASE_DURATION +
/// clock_skew + link_delay_bound <` [`DECLARATION_BOUND`]: a backup's
/// declaration timer restarts whenever a primary frame *arrives*, up to
/// one `link_delay_bound` after the renewal-anchoring send instant, so by
/// the time a backup may promote, the old primary's lease has provably
/// expired even under worst-case clock skew and message delay.
pub const LEASE_DURATION: TimeDelta = TimeDelta::from_millis(250);

const _: () = assert!(!LEASE_DURATION.is_zero());
const _: () = assert!(LEASE_DURATION.as_nanos() < DECLARATION_BOUND.as_nanos());

/// Extra watchdog slack the backup grants beyond `r_i + W + ℓ` before
/// requesting retransmission (see [`ProtocolConfig::refresh_allowance`]).
const RETRANSMIT_SLACK: TimeDelta = TimeDelta::from_millis(5);

/// Which schedulability test admission control runs on the update-task set
/// (§4.2: "the primary will perform a schedulability test based on the
/// rate-monotonic scheduling algorithm").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulabilityTest {
    /// Liu & Layland utilization bound `n(2^{1/n} - 1)` — the paper's
    /// choice.
    #[default]
    LiuLayland,
    /// The hyperbolic bound (tighter, still sufficient).
    Hyperbolic,
    /// Exact response-time analysis. Unlike the utilization tests, which
    /// decide from cached aggregates, it needs every task, so each
    /// admission stays O(n) or more.
    ResponseTime,
    /// EDF utilization test `U ≤ 1` (if update transmissions are
    /// deadline-scheduled).
    EdfUtilization,
}

/// Update-transmission scheduling mode (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingMode {
    /// Periods derived from windows: `r_i = (δ_i - ℓ) / slack_factor`.
    #[default]
    Normal,
    /// Compressed scheduling (Mehra et al. \[22\]): after computing the
    /// normal periods, uniformly shrink them so the update-task set uses
    /// the configured target utilization — "the primary schedules as many
    /// updates to the backup as the resources allow".
    Compressed,
}

/// Tunable parameters of the RTPB service.
///
/// # Examples
///
/// ```
/// use rtpb_core::config::{ProtocolConfig, SchedulingMode};
/// use rtpb_types::TimeDelta;
///
/// let config = ProtocolConfig {
///     scheduling_mode: SchedulingMode::Compressed,
///     ..ProtocolConfig::default()
/// };
/// assert_eq!(config.link_delay_bound, TimeDelta::from_millis(10));
/// assert!(config.admission_enabled);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// The communication-delay upper bound `ℓ` assumed by admission
    /// control and update scheduling. Must match (or exceed) the actual
    /// link's delay bound; [`ClusterConfig::validate`] rejects a link
    /// whose `delay_max` exceeds it.
    ///
    /// [`ClusterConfig::validate`]: crate::harness::ClusterConfig::validate
    pub link_delay_bound: TimeDelta,
    /// Divisor applied to the window when deriving update periods:
    /// `r_i = (δ_i - ℓ) / slack_factor`. The paper uses 2 ("the primary
    /// sends updates twice as often as necessary to compensate for
    /// potential message loss", §4.3/§5.2). 1 means no loss slack.
    pub slack_factor: u64,
    /// Normal or compressed update scheduling.
    pub scheduling_mode: SchedulingMode,
    /// Whether admission control is enforced (disabled for the paper's
    /// Figures 7 and 10).
    pub admission_enabled: bool,
    /// The schedulability test admission control applies.
    pub schedulability_test: SchedulabilityTest,
    /// CPU cost of transmitting one update to the backup (protocol
    /// processing at the primary). Per-object send cost is this plus the
    /// per-byte cost.
    pub send_cost_base: TimeDelta,
    /// Additional CPU cost per payload byte when transmitting.
    pub send_cost_per_byte: TimeDelta,
    /// Ablation switch: couple client writes to backup updates by also
    /// transmitting an update immediately after every client write. The
    /// paper's design *decouples* them (§4.3); enabling this shows the
    /// response-time cost of write-through replication.
    pub eager_send: bool,
    /// Ablation switch: have the backup acknowledge every update. The
    /// paper argues against per-update acks ("considerable communication
    /// overhead", §4.3); enabling this quantifies that overhead.
    pub ack_updates: bool,
    /// Graceful degradation: when the primary's CPU backlog exceeds
    /// [`ProtocolConfig::shed_backlog_threshold`], shed the
    /// lowest-criticality object through the admission pipeline instead
    /// of letting every response time diverge.
    pub shed_enabled: bool,
    /// CPU backlog (queued jobs) beyond which shedding kicks in.
    pub shed_backlog_threshold: usize,
    /// Worst-case clock skew between any two hosts, budgeted into the
    /// lease sizing rule (see [`LEASE_DURATION`]). The virtual-clock sim
    /// has zero skew; the real-clock runtime inherits the host's NTP
    /// discipline, so this is a safety margin rather than a measured
    /// quantity.
    pub clock_skew: TimeDelta,
    /// Coalescing window `W` of the batched update pipeline: when an
    /// object's send timer fires, its update waits up to `W` so updates
    /// due close together leave in one [`Batch`] frame. `ZERO` (the
    /// default) disables batching and preserves the paper's
    /// one-message-per-update behaviour. Admission tightens its Theorem 5
    /// check to `r_i + W + ℓ ≤ δ_i` for every admitted object, so a
    /// window that would let a coalesced update miss any member's
    /// consistency bound is rejected up front.
    ///
    /// [`Batch`]: crate::wire::WireMessage::Batch
    pub coalesce_window: TimeDelta,
    /// Hard cap on the update-log ring: the oldest record is dropped once
    /// this many are retained. Gaps older than the ring fall back to a
    /// snapshot diff or a full state transfer.
    pub log_retention: usize,
    /// Client writes between store snapshots. Each snapshot records every
    /// object's `(write_epoch, version)` tag and lets the log truncate
    /// records the oldest retained snapshot makes redundant.
    pub snapshot_interval: u64,
    /// How many store snapshots the log keeps; older ones are retired.
    pub snapshots_retained: usize,
    /// Whether the runtime temporal monitor is armed. When on, every node
    /// cross-checks observable evidence (probe round trips, remote write
    /// timestamps, its own clock's monotonicity) against the configured
    /// envelope (`clock_skew`, `link_delay_bound`) and degrades to
    /// certificate-refusing pessimism on a violation.
    pub monitor_enabled: bool,
    /// How often the primary piggybacks a background-scrub digest on a
    /// heartbeat. Each scrub covers one of `scrub_ranges` object ranges;
    /// backups compare the digest against their own store and trigger
    /// anti-entropy repair on divergence. `ZERO` disables scrubbing.
    pub scrub_interval: TimeDelta,
    /// How many ranges the object space is divided into for scrubbing.
    /// Smaller counts scrub more state per heartbeat; larger counts
    /// spread the digest work thinner. Ignored while scrubbing is
    /// disabled.
    pub scrub_ranges: u32,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            link_delay_bound: TimeDelta::from_millis(10),
            slack_factor: 2,
            scheduling_mode: SchedulingMode::Normal,
            admission_enabled: true,
            schedulability_test: SchedulabilityTest::LiuLayland,
            send_cost_base: TimeDelta::from_micros(200),
            send_cost_per_byte: TimeDelta::from_nanos(10),
            eager_send: false,
            ack_updates: false,
            shed_enabled: false,
            shed_backlog_threshold: 64,
            clock_skew: TimeDelta::from_millis(10),
            coalesce_window: TimeDelta::ZERO,
            log_retention: 1024,
            snapshot_interval: 256,
            snapshots_retained: 4,
            monitor_enabled: true,
            scrub_interval: TimeDelta::ZERO,
            scrub_ranges: 8,
        }
    }
}

/// Why a configuration was rejected at startup.
///
/// Every rule [`ProtocolConfig::check`] and [`ClusterConfig::validate`]
/// enforce has a variant here, so a misconfigured deployment fails
/// construction with a diagnosable error instead of running silently
/// outside its proven envelope.
///
/// [`ClusterConfig::validate`]: crate::harness::ClusterConfig::validate
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `slack_factor` was zero.
    ZeroSlackFactor,
    /// `LEASE_DURATION + clock_skew + link_delay_bound` was not strictly
    /// below the failure-detection declaration bound, so a promoted
    /// backup could coexist with a still-leased primary.
    LeaseOutlivesDeclarationBound {
        /// The lease duration ([`LEASE_DURATION`]).
        lease: TimeDelta,
        /// The worst-case clock skew budget.
        clock_skew: TimeDelta,
        /// The link delay bound `ℓ`.
        link_delay: TimeDelta,
        /// The declaration bound the sum must stay below.
        declaration_bound: TimeDelta,
    },
    /// The link's `delay_max` exceeded the delay bound `ℓ` that
    /// admission and update scheduling assume, so Theorem 5's windows
    /// would not hold.
    LinkSlowerThanDelayBound {
        /// The link's largest delay.
        delay_max: TimeDelta,
        /// The configured `link_delay_bound`.
        link_delay_bound: TimeDelta,
    },
    /// The update-log retention cap was zero.
    ZeroLogRetention,
    /// The snapshot interval was zero.
    ZeroSnapshotInterval,
    /// No snapshots would be retained.
    ZeroSnapshotsRetained,
    /// Scrubbing was enabled with zero ranges, so no object would ever
    /// be covered by a digest.
    ZeroScrubRanges,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroSlackFactor => write!(f, "slack_factor must be at least 1"),
            ConfigError::LeaseOutlivesDeclarationBound {
                lease,
                clock_skew,
                link_delay,
                declaration_bound,
            } => write!(
                f,
                "lease duration plus clock skew plus link delay must be below the \
                 failure-detection declaration bound, or a promoted backup could \
                 coexist with a still-leased primary \
                 ({lease} + {clock_skew} + {link_delay} >= {declaration_bound})"
            ),
            ConfigError::LinkSlowerThanDelayBound {
                delay_max,
                link_delay_bound,
            } => write!(
                f,
                "the link's delay_max must not exceed link_delay_bound, which admission \
                 assumes ({delay_max} > {link_delay_bound})"
            ),
            ConfigError::ZeroLogRetention => write!(f, "log retention must be at least 1"),
            ConfigError::ZeroSnapshotInterval => {
                write!(f, "snapshot interval must be at least 1")
            }
            ConfigError::ZeroSnapshotsRetained => {
                write!(f, "at least one snapshot must be retained")
            }
            ConfigError::ZeroScrubRanges => {
                write!(
                    f,
                    "scrub_ranges must be at least 1 when scrubbing is enabled"
                )
            }
        }
    }
}

impl Error for ConfigError {}

impl ProtocolConfig {
    /// The CPU cost of sending one update with `payload_bytes` of payload.
    #[must_use]
    pub fn send_cost(&self, payload_bytes: usize) -> TimeDelta {
        self.send_cost_base + self.send_cost_per_byte * payload_bytes as u64
    }

    /// The CPU cost of serving one local read of `payload_bytes` at a
    /// replica. Reads skip protocol framing and the network stack, so
    /// the base cost is a quarter of [`ProtocolConfig::send_cost_base`];
    /// the per-byte copy cost is the same as for sends.
    #[must_use]
    pub fn read_cost(&self, payload_bytes: usize) -> TimeDelta {
        self.send_cost_base / 4 + self.send_cost_per_byte * payload_bytes as u64
    }

    /// Whether the batched update pipeline is active.
    #[must_use]
    pub fn batching_enabled(&self) -> bool {
        !self.coalesce_window.is_zero()
    }

    /// The longest gap between two arrivals of an object sent every
    /// `period` that still counts as on schedule: `period + W + ℓ +
    /// slack`, where `W` is the coalescing window a batched update may
    /// wait out before it is framed (zero when batching is off). The
    /// backup's retransmission watchdog and the §5.3 refresh ledger both
    /// measure gaps against it.
    #[must_use]
    pub fn refresh_allowance(&self, period: TimeDelta) -> TimeDelta {
        period + self.coalesce_window + self.link_delay_bound + RETRANSMIT_SLACK
    }

    /// Checks every parameter-sanity rule, returning the first violated
    /// one. The rules include the lease-sizing invariant
    /// `LEASE_DURATION + clock_skew + link_delay_bound <`
    /// [`DECLARATION_BOUND`] — the condition all of the split-brain-safety
    /// arguments rest on — so a misconfigured deployment is a hard error
    /// at construction rather than a silently unsound run.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.slack_factor < 1 {
            return Err(ConfigError::ZeroSlackFactor);
        }
        if LEASE_DURATION + self.clock_skew + self.link_delay_bound >= DECLARATION_BOUND {
            return Err(ConfigError::LeaseOutlivesDeclarationBound {
                lease: LEASE_DURATION,
                clock_skew: self.clock_skew,
                link_delay: self.link_delay_bound,
                declaration_bound: DECLARATION_BOUND,
            });
        }
        if self.log_retention < 1 {
            return Err(ConfigError::ZeroLogRetention);
        }
        if self.snapshot_interval < 1 {
            return Err(ConfigError::ZeroSnapshotInterval);
        }
        if self.snapshots_retained < 1 {
            return Err(ConfigError::ZeroSnapshotsRetained);
        }
        if !self.scrub_interval.is_zero() && self.scrub_ranges < 1 {
            return Err(ConfigError::ZeroScrubRanges);
        }
        Ok(())
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if any
    /// [`ProtocolConfig::check`] rule is violated.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = ProtocolConfig::default();
        c.validate();
        assert_eq!(c.scheduling_mode, SchedulingMode::Normal);
        assert_eq!(c.schedulability_test, SchedulabilityTest::LiuLayland);
        assert!(c.admission_enabled);
    }

    #[test]
    fn send_cost_scales_with_size() {
        let c = ProtocolConfig::default();
        let small = c.send_cost(64);
        let big = c.send_cost(4096);
        assert!(big > small);
        assert_eq!(
            small,
            TimeDelta::from_micros(200) + TimeDelta::from_nanos(640)
        );
    }

    #[test]
    #[should_panic(expected = "slack_factor")]
    fn zero_slack_factor_rejected() {
        let c = ProtocolConfig {
            slack_factor: 0,
            ..ProtocolConfig::default()
        };
        c.validate();
    }

    #[test]
    fn default_lease_sizing_leaves_skew_and_delay_margin() {
        let c = ProtocolConfig::default();
        assert!(LEASE_DURATION + c.clock_skew + c.link_delay_bound < DECLARATION_BOUND);
        assert_eq!(DECLARATION_BOUND, TimeDelta::from_millis(300));
    }

    #[test]
    #[should_panic(expected = "lease duration plus clock skew plus link delay")]
    fn skew_that_eats_the_lease_margin_is_rejected() {
        // 250 + 40 + 10 ≥ 300: a promoted backup could coexist with a
        // primary whose clock runs 40 ms behind.
        let c = ProtocolConfig {
            clock_skew: TimeDelta::from_millis(40),
            ..ProtocolConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "lease duration plus clock skew plus link delay")]
    fn lease_that_only_fits_without_the_delay_budget_is_rejected() {
        // 250 + 10 < 300 passes a skew-only rule, but a one-way delay of
        // up to 40 ms makes the overlap real: 250 + 10 + 40 ≥ 300.
        let c = ProtocolConfig {
            link_delay_bound: TimeDelta::from_millis(40),
            ..ProtocolConfig::default()
        };
        c.validate();
    }

    #[test]
    fn check_returns_typed_errors_instead_of_panicking() {
        assert_eq!(ProtocolConfig::default().check(), Ok(()));

        let c = ProtocolConfig {
            slack_factor: 0,
            ..ProtocolConfig::default()
        };
        assert_eq!(c.check(), Err(ConfigError::ZeroSlackFactor));

        let c = ProtocolConfig {
            clock_skew: TimeDelta::from_millis(50),
            ..ProtocolConfig::default()
        };
        match c.check() {
            Err(ConfigError::LeaseOutlivesDeclarationBound {
                lease,
                clock_skew,
                declaration_bound,
                ..
            }) => {
                assert_eq!(lease, TimeDelta::from_millis(250));
                assert_eq!(clock_skew, TimeDelta::from_millis(50));
                assert_eq!(declaration_bound, TimeDelta::from_millis(300));
            }
            other => panic!("expected lease-sizing error, got {other:?}"),
        }
    }

    #[test]
    fn zero_scrub_ranges_rejected_only_when_scrubbing_enabled() {
        let c = ProtocolConfig {
            scrub_interval: TimeDelta::from_millis(100),
            scrub_ranges: 0,
            ..ProtocolConfig::default()
        };
        assert_eq!(c.check(), Err(ConfigError::ZeroScrubRanges));

        let c = ProtocolConfig {
            scrub_interval: TimeDelta::ZERO,
            scrub_ranges: 0,
            ..ProtocolConfig::default()
        };
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn config_error_display_is_actionable() {
        let msg = ConfigError::LeaseOutlivesDeclarationBound {
            lease: TimeDelta::from_millis(250),
            clock_skew: TimeDelta::from_millis(50),
            link_delay: TimeDelta::from_millis(10),
            declaration_bound: TimeDelta::from_millis(300),
        }
        .to_string();
        assert!(msg.contains("lease duration plus clock skew plus link delay"));
        assert!(msg.contains("still-leased primary"));
    }
}
