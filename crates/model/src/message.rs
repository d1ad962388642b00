//! Messages — the edges of a workflow.
//!
//! A transition `(oₚ, oₙ)` is an XML message sent from operation `oₚ` to
//! operation `oₙ` (§2.2). Each ordered pair of operations is connected by
//! at most one message. Outgoing edges of an `XOR` opener carry branch
//! probabilities.

use std::fmt;

use crate::ids::OpId;
use crate::units::{Mbits, Probability};

/// A message (transition) from one operation to another.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sender operation.
    pub from: OpId,
    /// Receiver operation.
    pub to: OpId,
    /// Size of the XML payload — the paper's `MsgSize(opᵢ, opⱼ)`.
    pub size: Mbits,
    /// Branch probability. Meaningful only on the outgoing edges of an
    /// `XOR` opener, where the probabilities across all branches sum to 1;
    /// everywhere else it is 1.
    pub branch_probability: Probability,
}

impl Message {
    /// An unconditional message of the given size.
    pub fn new(from: OpId, to: OpId, size: Mbits) -> Self {
        Self {
            from,
            to,
            size,
            branch_probability: Probability::ONE,
        }
    }

    /// Builder-style: annotate an XOR branch probability.
    pub fn with_probability(mut self, p: Probability) -> Self {
        self.branch_probability = p;
        self
    }

    /// The `(from, to)` endpoint pair.
    #[inline]
    pub fn endpoints(&self) -> (OpId, OpId) {
        (self.from, self.to)
    }

    /// `true` if `op` is either endpoint.
    #[inline]
    pub fn touches(&self, op: OpId) -> bool {
        self.from == op || self.to == op
    }

    /// The other endpoint given one of them; `None` if `op` is not an
    /// endpoint.
    #[inline]
    pub fn opposite(&self, op: OpId) -> Option<OpId> {
        if self.from == op {
            Some(self.to)
        } else if self.to == op {
            Some(self.from)
        } else {
            None
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} ({})", self.from, self.to, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Message::new(OpId::new(0), OpId::new(1), Mbits(0.5));
        assert_eq!(m.endpoints(), (OpId::new(0), OpId::new(1)));
        assert_eq!(m.branch_probability, Probability::ONE);
        assert!(m.touches(OpId::new(0)));
        assert!(m.touches(OpId::new(1)));
        assert!(!m.touches(OpId::new(2)));
    }

    #[test]
    fn opposite_endpoint() {
        let m = Message::new(OpId::new(3), OpId::new(7), Mbits(0.1));
        assert_eq!(m.opposite(OpId::new(3)), Some(OpId::new(7)));
        assert_eq!(m.opposite(OpId::new(7)), Some(OpId::new(3)));
        assert_eq!(m.opposite(OpId::new(5)), None);
    }

    #[test]
    fn probability_annotation() {
        let m = Message::new(OpId::new(0), OpId::new(1), Mbits(0.5))
            .with_probability(Probability::new(0.25));
        assert_eq!(m.branch_probability.value(), 0.25);
    }

    #[test]
    fn display() {
        let m = Message::new(OpId::new(2), OpId::new(4), Mbits(0.25));
        assert_eq!(m.to_string(), "O2 -> O4 (0.25 Mbit)");
    }
}
