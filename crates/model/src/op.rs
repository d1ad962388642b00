//! Operations — the nodes of a workflow.
//!
//! The paper distinguishes *operational* nodes (WSDL operations performing
//! work) from *decision* nodes controlling the flow: `AND`, `OR`, `XOR`
//! openers and their complements `/AND`, `/OR`, `/XOR` that close the
//! corresponding block (§2.2).

use std::fmt;

use crate::units::MCycles;

/// The three decision-node flavours of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionKind {
    /// All outgoing paths execute; the complement waits for all of them.
    And,
    /// All outgoing paths start; the complement waits for the first to
    /// arrive successfully.
    Or,
    /// Exactly one outgoing path executes, chosen with the probabilities
    /// annotated on the outgoing messages.
    Xor,
}

impl DecisionKind {
    /// All decision kinds, for exhaustive iteration in tests/generators.
    pub const ALL: [DecisionKind; 3] = [DecisionKind::And, DecisionKind::Or, DecisionKind::Xor];

    /// Short uppercase name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::And => "AND",
            DecisionKind::Or => "OR",
            DecisionKind::Xor => "XOR",
        }
    }
}

impl fmt::Display for DecisionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The role an operation plays in the workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A regular WSDL operation performing work for the workflow.
    Operational,
    /// A decision opener (`AND`, `OR`, `XOR`): forks the flow.
    Open(DecisionKind),
    /// A decision complement (`/AND`, `/OR`, `/XOR`): joins the flow.
    Close(DecisionKind),
}

impl OpKind {
    /// `true` for regular work-performing operations.
    #[inline]
    pub fn is_operational(self) -> bool {
        matches!(self, OpKind::Operational)
    }

    /// `true` for decision openers and closers alike.
    #[inline]
    pub fn is_decision(self) -> bool {
        !self.is_operational()
    }

    /// `true` for decision openers.
    #[inline]
    pub fn is_open(self) -> bool {
        matches!(self, OpKind::Open(_))
    }

    /// `true` for decision complements.
    #[inline]
    pub fn is_close(self) -> bool {
        matches!(self, OpKind::Close(_))
    }

    /// The decision kind if this is an opener or closer.
    #[inline]
    pub fn decision_kind(self) -> Option<DecisionKind> {
        match self {
            OpKind::Operational => None,
            OpKind::Open(k) | OpKind::Close(k) => Some(k),
        }
    }

    /// The complement kind: `Open(k)` ↔ `Close(k)`, identity otherwise.
    #[inline]
    pub fn complement(self) -> Self {
        match self {
            OpKind::Operational => OpKind::Operational,
            OpKind::Open(k) => OpKind::Close(k),
            OpKind::Close(k) => OpKind::Open(k),
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Operational => f.write_str("op"),
            OpKind::Open(k) => write!(f, "{k}"),
            OpKind::Close(k) => write!(f, "/{k}"),
        }
    }
}

/// An operation: a node of the workflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Human-readable name (unique within a workflow; enforced by the
    /// builder).
    pub name: String,
    /// Role of the node.
    pub kind: OpKind,
    /// Computational cost `C(op)` in millions of cycles. Decision nodes
    /// typically carry a small but non-zero cost (evaluating the routing
    /// condition); the generators default them to zero unless configured.
    pub cost: MCycles,
}

impl Operation {
    /// A regular operation with the given cost.
    pub fn operational(name: impl Into<String>, cost: MCycles) -> Self {
        Self {
            name: name.into(),
            kind: OpKind::Operational,
            cost,
        }
    }

    /// A zero-cost decision opener.
    pub fn open(name: impl Into<String>, kind: DecisionKind) -> Self {
        Self {
            name: name.into(),
            kind: OpKind::Open(kind),
            cost: MCycles::ZERO,
        }
    }

    /// A zero-cost decision complement.
    pub fn close(name: impl Into<String>, kind: DecisionKind) -> Self {
        Self {
            name: name.into(),
            kind: OpKind::Close(kind),
            cost: MCycles::ZERO,
        }
    }

    /// Builder-style: set the computational cost.
    pub fn with_cost(mut self, cost: MCycles) -> Self {
        self.cost = cost;
        self
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] C={}", self.name, self.kind, self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(OpKind::Operational.is_operational());
        assert!(!OpKind::Operational.is_decision());
        assert!(OpKind::Open(DecisionKind::Xor).is_decision());
        assert!(OpKind::Open(DecisionKind::Xor).is_open());
        assert!(!OpKind::Open(DecisionKind::Xor).is_close());
        assert!(OpKind::Close(DecisionKind::And).is_close());
        assert_eq!(
            OpKind::Open(DecisionKind::Or).decision_kind(),
            Some(DecisionKind::Or)
        );
        assert_eq!(OpKind::Operational.decision_kind(), None);
    }

    #[test]
    fn complement_is_involutive() {
        for k in DecisionKind::ALL {
            let open = OpKind::Open(k);
            assert_eq!(open.complement(), OpKind::Close(k));
            assert_eq!(open.complement().complement(), open);
        }
        assert_eq!(OpKind::Operational.complement(), OpKind::Operational);
    }

    #[test]
    fn constructors() {
        let op = Operation::operational("fetch", MCycles(50.0));
        assert!(op.kind.is_operational());
        assert_eq!(op.cost, MCycles(50.0));

        let open = Operation::open("x", DecisionKind::Xor);
        assert_eq!(open.kind, OpKind::Open(DecisionKind::Xor));
        assert_eq!(open.cost, MCycles::ZERO);

        let close = Operation::close("/x", DecisionKind::Xor).with_cost(MCycles(1.0));
        assert_eq!(close.kind, OpKind::Close(DecisionKind::Xor));
        assert_eq!(close.cost, MCycles(1.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(DecisionKind::Xor.to_string(), "XOR");
        assert_eq!(OpKind::Open(DecisionKind::And).to_string(), "AND");
        assert_eq!(OpKind::Close(DecisionKind::Or).to_string(), "/OR");
        assert_eq!(OpKind::Operational.to_string(), "op");
        let op = Operation::operational("a", MCycles(5.0));
        assert_eq!(op.to_string(), "a [op] C=5 Mcycles");
    }
}
