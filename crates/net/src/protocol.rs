//! The uniform protocol interface and the protocol graph.

use crate::message::Message;
use core::fmt;
use std::error::Error;

/// Why a protocol layer rejected a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// An inbound message was missing this layer's header.
    MissingHeader {
        /// The layer that expected the header.
        layer: &'static str,
    },
    /// An inbound header failed validation (bad magic, length, checksum).
    CorruptHeader {
        /// The layer that rejected the header.
        layer: &'static str,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::MissingHeader { layer } => {
                write!(f, "inbound message missing {layer} header")
            }
            ProtocolError::CorruptHeader { layer, reason } => {
                write!(f, "{layer} header corrupt: {reason}")
            }
        }
    }
}

impl Error for ProtocolError {}

/// The x-kernel *uniform protocol interface*: every layer processes
/// outbound messages with [`Protocol::push`] and inbound messages with
/// [`Protocol::pop`].
///
/// A layer may consume an inbound message (returning `Ok(None)`) — e.g. a
/// sequencing layer suppressing a duplicate — or annotate and forward it.
pub trait Protocol {
    /// Stable layer name, used in errors and graph descriptions.
    fn name(&self) -> &'static str;

    /// Outbound processing: add this layer's header.
    ///
    /// # Errors
    ///
    /// Implementations may reject oversized or malformed messages.
    fn push(&mut self, msg: Message) -> Result<Message, ProtocolError>;

    /// Inbound processing: validate and remove this layer's header.
    /// Returns `Ok(None)` if the message is consumed by this layer.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on missing or corrupt headers.
    fn pop(&mut self, msg: Message) -> Result<Option<Message>, ProtocolError>;
}

/// A linear composition of protocol layers, top (application-nearest)
/// first — the x-kernel protocol graph restricted to the single path RTPB
/// uses (`RTPB / UDP / link`).
///
/// # Examples
///
/// See the [crate docs](crate).
pub struct ProtocolGraph {
    layers: Vec<Box<dyn Protocol + Send>>,
}

impl fmt::Debug for ProtocolGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolGraph")
            .field("layers", &self.describe())
            .finish()
    }
}

impl ProtocolGraph {
    /// Starts composing a graph.
    #[must_use]
    pub fn builder() -> ProtocolGraphBuilder {
        ProtocolGraphBuilder { layers: Vec::new() }
    }

    /// Layer names from top to bottom, e.g. `"rtpb/udp"`.
    #[must_use]
    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join("/")
    }

    /// Number of layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Sends a message down the stack: pushes every layer's header,
    /// top to bottom, and returns the wire-ready message.
    ///
    /// # Errors
    ///
    /// Propagates the first layer rejection.
    pub fn send(&mut self, msg: Message) -> Result<Message, ProtocolError> {
        let mut msg = msg;
        for layer in &mut self.layers {
            msg = layer.push(msg)?;
        }
        Ok(msg)
    }

    /// Receives a wire message up the stack: pops every layer's header,
    /// bottom to top. Returns `Ok(None)` if some layer consumed the
    /// message (duplicate suppression, control traffic).
    ///
    /// # Errors
    ///
    /// Propagates the first layer rejection (corrupt or missing header).
    pub fn receive(&mut self, msg: Message) -> Result<Option<Message>, ProtocolError> {
        let mut msg = msg;
        for layer in self.layers.iter_mut().rev() {
            match layer.pop(msg)? {
                Some(next) => msg = next,
                None => return Ok(None),
            }
        }
        Ok(Some(msg))
    }
}

/// Builder for [`ProtocolGraph`] (layers added top-down).
#[derive(Default)]
pub struct ProtocolGraphBuilder {
    layers: Vec<Box<dyn Protocol + Send>>,
}

impl fmt::Debug for ProtocolGraphBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolGraphBuilder")
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl ProtocolGraphBuilder {
    /// Adds the next layer (first call adds the topmost layer).
    #[must_use]
    pub fn layer(mut self, layer: impl Protocol + Send + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Finalizes the graph.
    #[must_use]
    pub fn build(self) -> ProtocolGraph {
        ProtocolGraph {
            layers: self.layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test layer that stamps a single tag byte.
    struct Tag(u8);

    impl Protocol for Tag {
        fn name(&self) -> &'static str {
            "tag"
        }
        fn push(&mut self, mut msg: Message) -> Result<Message, ProtocolError> {
            msg.push_header(&[self.0]);
            Ok(msg)
        }
        fn pop(&mut self, mut msg: Message) -> Result<Option<Message>, ProtocolError> {
            let h = msg
                .pop_header()
                .ok_or(ProtocolError::MissingHeader { layer: "tag" })?;
            if h.as_ref() != [self.0] {
                return Err(ProtocolError::CorruptHeader {
                    layer: "tag",
                    reason: format!("expected {}, got {:?}", self.0, h),
                });
            }
            Ok(Some(msg))
        }
    }

    /// A test layer that consumes every inbound message.
    struct Sink;

    impl Protocol for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn push(&mut self, msg: Message) -> Result<Message, ProtocolError> {
            Ok(msg)
        }
        fn pop(&mut self, _msg: Message) -> Result<Option<Message>, ProtocolError> {
            Ok(None)
        }
    }

    #[test]
    fn send_then_receive_round_trips() {
        let mut g = ProtocolGraph::builder().layer(Tag(1)).layer(Tag(2)).build();
        let wire = g.send(Message::from_payload(b"x".to_vec())).unwrap();
        assert_eq!(wire.header_depth(), 2);
        let up = g.receive(wire).unwrap().unwrap();
        assert_eq!(up.payload(), b"x");
        assert_eq!(up.header_depth(), 0);
    }

    #[test]
    fn headers_pop_bottom_up() {
        // Send through [Tag(1) over Tag(2)]: wire has Tag(2) outermost.
        let mut sender = ProtocolGraph::builder().layer(Tag(1)).layer(Tag(2)).build();
        let wire = sender.send(Message::from_payload(Vec::new())).unwrap();
        assert_eq!(wire.peek_header(), Some(&[2u8][..]));
        // A receiver with swapped layers rejects it.
        let mut wrong = ProtocolGraph::builder().layer(Tag(2)).layer(Tag(1)).build();
        let err = wrong.receive(wire).unwrap_err();
        assert!(matches!(err, ProtocolError::CorruptHeader { .. }));
    }

    #[test]
    fn missing_header_is_reported() {
        let mut g = ProtocolGraph::builder().layer(Tag(1)).build();
        let err = g.receive(Message::from_payload(Vec::new())).unwrap_err();
        assert_eq!(err, ProtocolError::MissingHeader { layer: "tag" });
        assert!(err.to_string().contains("tag"));
    }

    #[test]
    fn consuming_layer_short_circuits() {
        let mut g = ProtocolGraph::builder().layer(Tag(1)).layer(Sink).build();
        let mut wire = Message::from_payload(Vec::new());
        wire.push_header(&[9]); // arbitrary; sink consumes before tag pops
        assert_eq!(g.receive(wire).unwrap(), None);
    }

    #[test]
    fn describe_lists_layers() {
        let g = ProtocolGraph::builder().layer(Tag(1)).layer(Sink).build();
        assert_eq!(g.describe(), "tag/sink");
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn empty_graph_is_identity() {
        let mut g = ProtocolGraph::builder().build();
        let m = Message::from_payload(b"p".to_vec());
        let wire = g.send(m.clone()).unwrap();
        assert_eq!(wire, m);
        assert_eq!(g.receive(wire).unwrap(), Some(m));
    }
}
