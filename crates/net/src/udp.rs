//! The unreliable datagram layer.

use crate::message::Message;
use crate::protocol::{Protocol, ProtocolError};

const UDP_MAGIC: u8 = 0x55;

/// An unreliable datagram layer modeled on UDP (the paper's transport,
/// §4.1): frames the payload with a magic byte, a 16-bit length, and a
/// 16-bit ones'-complement-style checksum. Provides integrity detection
/// but **no** reliability — loss is the link's business, retransmission is
/// the application's (§4.3: "Since UDP does not provide reliable delivery
/// of messages, we need to use explicit acknowledgments when necessary").
///
/// # Examples
///
/// ```
/// use rtpb_net::{Message, Protocol, UdpLike};
///
/// # fn main() -> Result<(), rtpb_net::ProtocolError> {
/// let mut udp = UdpLike::new();
/// let wire = udp.push(Message::from_payload(b"hello".to_vec()))?;
/// let up = udp.pop(wire)?.expect("udp never consumes");
/// assert_eq!(up.payload(), b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct UdpLike {
    sent: u64,
    received: u64,
    rejected: u64,
}

impl UdpLike {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        UdpLike::default()
    }

    /// Datagrams sent through this layer.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Datagrams accepted inbound.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Inbound datagrams rejected (bad header or checksum).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn checksum(payload: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for chunk in payload.chunks(2) {
            let word = u32::from(chunk[0]) << 8 | u32::from(*chunk.get(1).unwrap_or(&0));
            sum += word;
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

impl Protocol for UdpLike {
    fn name(&self) -> &'static str {
        "udp"
    }

    fn push(&mut self, mut msg: Message) -> Result<Message, ProtocolError> {
        if msg.wire_size() > usize::from(u16::MAX) {
            return Err(ProtocolError::CorruptHeader {
                layer: "udp",
                reason: format!("datagram too large: {} bytes", msg.wire_size()),
            });
        }
        let len = msg.payload().len() as u16;
        let sum = Self::checksum(msg.payload());
        let header = [
            UDP_MAGIC,
            (len >> 8) as u8,
            (len & 0xFF) as u8,
            (sum >> 8) as u8,
            (sum & 0xFF) as u8,
        ];
        msg.push_header(&header);
        self.sent += 1;
        Ok(msg)
    }

    fn pop(&mut self, mut msg: Message) -> Result<Option<Message>, ProtocolError> {
        let header = msg.pop_header().ok_or_else(|| {
            self.rejected += 1;
            ProtocolError::MissingHeader { layer: "udp" }
        })?;
        if header.len() != 5 || header[0] != UDP_MAGIC {
            self.rejected += 1;
            return Err(ProtocolError::CorruptHeader {
                layer: "udp",
                reason: "bad magic or header length".into(),
            });
        }
        let len = u16::from(header[1]) << 8 | u16::from(header[2]);
        if usize::from(len) != msg.payload().len() {
            self.rejected += 1;
            return Err(ProtocolError::CorruptHeader {
                layer: "udp",
                reason: format!(
                    "length mismatch: header says {len}, payload is {}",
                    msg.payload().len()
                ),
            });
        }
        let sum = u16::from(header[3]) << 8 | u16::from(header[4]);
        if sum != Self::checksum(msg.payload()) {
            self.rejected += 1;
            return Err(ProtocolError::CorruptHeader {
                layer: "udp",
                reason: "checksum mismatch".into(),
            });
        }
        self.received += 1;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_round_trip_preserves_payload() {
        let mut udp = UdpLike::new();
        let wire = udp
            .push(Message::from_payload(vec![1, 2, 3, 4, 5]))
            .unwrap();
        assert_eq!(wire.header_depth(), 1);
        let up = udp.pop(wire).unwrap().unwrap();
        assert_eq!(up.payload(), &[1, 2, 3, 4, 5]);
        assert_eq!(udp.sent(), 1);
        assert_eq!(udp.received(), 1);
        assert_eq!(udp.rejected(), 0);
    }

    #[test]
    fn udp_detects_length_tampering() {
        let mut udp = UdpLike::new();
        let wire = udp.push(Message::from_payload(vec![9; 10])).unwrap();
        // Rebuild a message with a truncated payload under the same header.
        let mut bad = Message::from_payload(vec![9; 9]);
        let mut w = wire;
        let h = w.pop_header().unwrap();
        bad.push_header(&h);
        let err = udp.pop(bad).unwrap_err();
        assert!(matches!(err, ProtocolError::CorruptHeader { .. }));
        assert_eq!(udp.rejected(), 1);
    }

    #[test]
    fn udp_detects_payload_corruption() {
        let mut udp = UdpLike::new();
        let mut wire = udp.push(Message::from_payload(vec![1, 2, 3])).unwrap();
        let h = wire.pop_header().unwrap();
        let mut corrupted = Message::from_payload(vec![1, 2, 4]);
        corrupted.push_header(&h);
        let err = udp.pop(corrupted).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn udp_rejects_foreign_header() {
        let mut udp = UdpLike::new();
        let mut msg = Message::from_payload(Vec::new());
        msg.push_header(&[0xFF, 0, 0, 0, 0]);
        assert!(udp.pop(msg).is_err());
        let mut no_header = Message::from_payload(Vec::new());
        no_header.push_header(&[]);
        assert!(udp.pop(no_header).is_err());
    }

    #[test]
    fn udp_rejects_oversized_datagram() {
        let mut udp = UdpLike::new();
        let err = udp
            .push(Message::from_payload(vec![0; 70_000]))
            .unwrap_err();
        assert!(err.to_string().contains("too large"));
    }

    #[test]
    fn udp_checksum_odd_length() {
        let mut udp = UdpLike::new();
        let wire = udp.push(Message::from_payload(vec![7])).unwrap();
        assert!(udp.pop(wire).unwrap().is_some());
    }
}
