//! Object ids read off the wire never create per-object state at a
//! backup. An update that races a deregistration, or a CRC-valid frame
//! naming an id far past the registered range, must leave no trace:
//! nothing installed, nothing counted as applied, no watchdog armed —
//! and no table sized to reach the id.

use rtpb::core::backup::Backup;
use rtpb::core::config::ProtocolConfig;
use rtpb::core::wire::{StateEntry, WireMessage};
use rtpb::types::{Epoch, NodeId, ObjectId, ObjectSpec, Time, TimeDelta, Version};

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn spec() -> ObjectSpec {
    ObjectSpec::builder("registered")
        .update_period(ms(100))
        .primary_bound(ms(150))
        .backup_bound(ms(550))
        .build()
        .unwrap()
}

fn update(object: ObjectId, version: u64, seq: u64) -> WireMessage {
    WireMessage::Update {
        epoch: Epoch::INITIAL,
        object,
        version: Version::new(version),
        timestamp: Time::from_millis(seq),
        seq,
        payload: vec![version as u8; 4],
    }
}

fn entry(object: ObjectId) -> StateEntry {
    StateEntry {
        object,
        version: Version::new(3),
        timestamp: Time::from_millis(2),
        payload: vec![7; 4],
    }
}

#[test]
fn frames_naming_unregistered_ids_leave_no_trace() {
    let mut backup = Backup::new(NodeId::new(1), ProtocolConfig::default());
    let registered = ObjectId::new(0);
    let shed = ObjectId::new(1);
    backup.sync_registration(registered, spec(), ms(195), Time::ZERO);
    backup.sync_registration(shed, spec(), ms(195), Time::ZERO);
    // The update for `shed` is in flight when the object is deregistered.
    backup.sync_deregistration(shed);

    let strangers = [shed, ObjectId::new(9), ObjectId::new(u32::MAX)];
    for (i, &id) in strangers.iter().enumerate() {
        let out = backup.handle_message(&update(id, 1, 1 + i as u64), Time::from_millis(5));
        assert!(out.applied.is_empty(), "update for {id} applied");
    }
    let transfer = WireMessage::StateTransfer {
        epoch: Epoch::INITIAL,
        head: 4,
        entries: strangers.iter().map(|&id| entry(id)).collect(),
    };
    let out = backup.handle_message(&transfer, Time::from_millis(6));
    assert!(
        out.applied.is_empty(),
        "state transfer installed a stranger"
    );
    assert_eq!(backup.updates_applied(), 0);
    for &id in &strangers {
        assert!(backup.store().get(id).is_none(), "{id} was installed");
        // No watchdog exists for an object the backup never held, however
        // long it stays silent.
        assert!(backup.tick_watchdog(id, Time::from_secs(60)).is_none());
    }
    assert_eq!(backup.store().len(), 1);

    // The registered object is served as before.
    let out = backup.handle_message(&update(registered, 1, 5), Time::from_millis(7));
    assert_eq!(
        out.applied,
        vec![(registered, Version::new(1), Time::from_millis(5))]
    );
    assert_eq!(backup.updates_applied(), 1);
    assert_eq!(
        backup.store().get(registered).unwrap().version(),
        Version::new(1)
    );
    assert_eq!(backup.retransmit_requests_sent(), 0);
}
