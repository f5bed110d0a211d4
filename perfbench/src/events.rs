//! Stage times in virtual time, taken from the event bus of a traced
//! run: client write → update sent → update applied, matched per object.

use rtpb_obs::{EventKind, ObsEvent};
use rtpb_types::{NodeId, ObjectId, Time, Version};
use std::collections::{BTreeMap, VecDeque};

#[derive(Default)]
struct ObjectLane {
    /// Writes not yet carried by a send, oldest first.
    unsent: VecDeque<(Version, Time)>,
    last_sent: Version,
    /// Sends not yet applied: `(version, sent at, oldest write it carries)`.
    in_flight: VecDeque<(Version, Time, Time)>,
    /// Worst `write_to_send + send_to_apply` of one update.
    worst_chain_ns: u64,
}

/// Per-update stage durations (ns of virtual time) toward one backup.
#[derive(Debug, Default)]
pub struct Stages {
    /// From the oldest write an update carries to its first send.
    pub write_to_send_ns: Vec<f64>,
    /// From an update's first send to its apply at the backup.
    pub send_to_apply_ns: Vec<f64>,
    /// Per object, the worst sum of the two over its updates — the
    /// stage decomposition of the object's worst distance.
    pub worst_chain_ns: Vec<f64>,
}

/// Walks the event stream for updates sent to and applied by `backup`.
pub fn stages(events: &[ObsEvent], backup: NodeId) -> Stages {
    let mut lanes: BTreeMap<ObjectId, ObjectLane> = BTreeMap::new();
    let mut out = Stages::default();
    for e in events {
        match &e.kind {
            EventKind::ClientWrite {
                object, version, ..
            } => {
                lanes
                    .entry(*object)
                    .or_default()
                    .unsent
                    .push_back((*version, e.at));
            }
            EventKind::UpdateSent {
                object,
                version,
                to,
                ..
            } if *to == backup => {
                let lane = lanes.entry(*object).or_default();
                if *version <= lane.last_sent {
                    continue;
                }
                lane.last_sent = *version;
                let mut oldest = None;
                while lane.unsent.front().is_some_and(|&(v, _)| v <= *version) {
                    let (_, at) = lane.unsent.pop_front().expect("front exists");
                    oldest.get_or_insert(at);
                }
                if let Some(oldest) = oldest {
                    out.write_to_send_ns
                        .push(e.at.saturating_since(oldest).as_nanos() as f64);
                    lane.in_flight.push_back((*version, e.at, oldest));
                }
            }
            EventKind::UpdateApplied {
                object,
                version,
                node,
            } if *node == backup => {
                let Some(lane) = lanes.get_mut(object) else {
                    continue;
                };
                while let Some(&(v, sent, oldest)) = lane.in_flight.front() {
                    if v > *version {
                        break;
                    }
                    lane.in_flight.pop_front();
                    if v == *version {
                        out.send_to_apply_ns
                            .push(e.at.saturating_since(sent).as_nanos() as f64);
                        let chain = e.at.saturating_since(oldest).as_nanos();
                        lane.worst_chain_ns = lane.worst_chain_ns.max(chain);
                    }
                }
            }
            _ => {}
        }
    }
    out.worst_chain_ns = lanes.values().map(|l| l.worst_chain_ns as f64).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_obs::ClockDomain;
    use rtpb_types::TimeDelta;

    fn ev(seq: u64, at_ms: u64, kind: EventKind) -> ObsEvent {
        ObsEvent {
            seq,
            at: Time::from_millis(at_ms),
            clock: ClockDomain::Virtual,
            kind,
        }
    }

    #[test]
    fn stages_decompose_one_update() {
        let o = ObjectId::new(0);
        let b = NodeId::new(1);
        let v = |n| Version::new(n);
        let events = vec![
            ev(
                0,
                10,
                EventKind::ClientWrite {
                    object: o,
                    version: v(1),
                    response: TimeDelta::ZERO,
                },
            ),
            ev(
                1,
                20,
                EventKind::ClientWrite {
                    object: o,
                    version: v(2),
                    response: TimeDelta::ZERO,
                },
            ),
            ev(
                2,
                30,
                EventKind::UpdateSent {
                    object: o,
                    version: v(2),
                    to: b,
                    lost: false,
                },
            ),
            ev(
                3,
                35,
                EventKind::UpdateApplied {
                    object: o,
                    version: v(2),
                    node: b,
                },
            ),
        ];
        let s = stages(&events, b);
        assert_eq!(s.write_to_send_ns, vec![20e6]);
        assert_eq!(s.send_to_apply_ns, vec![5e6]);
        assert_eq!(s.worst_chain_ns, vec![25e6]);
    }
}
