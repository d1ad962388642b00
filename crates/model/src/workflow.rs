//! The workflow graph `W(O, E)`.
//!
//! Operations are nodes, messages are edges (§2.2 of the paper). Ids are
//! dense indices so downstream code can use flat vectors keyed by
//! [`OpId`]/[`MsgId`].

use crate::error::ModelError;
use crate::ids::{MsgId, OpId};
use crate::message::Message;
use crate::op::Operation;
use crate::units::{MCycles, Mbits};

/// A workflow of web service operations: a directed graph with operations
/// as nodes and XML messages as edges.
///
/// Construct via [`Workflow::new`] (which checks structural sanity:
/// no self-loops, no duplicate edges, valid endpoints, unique names) or
/// via [`WorkflowBuilder`](crate::builder::WorkflowBuilder) for a fluent
/// API. *Well-formedness* in the paper's sense (matched decision blocks)
/// is a separate, stronger property checked by
/// [`validate`](crate::validate::validate).
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    name: String,
    ops: Vec<Operation>,
    msgs: Vec<Message>,
    /// Derived CSR adjacency (flat arena).
    csr: WorkflowCsr,
}

/// Compressed-sparse-row adjacency over the message arena: per
/// operation, contiguous slices of outgoing and incoming message ids in
/// message-id (= insertion) order. Two offset arrays of length `M + 1`
/// plus two flat id arrays of length `|E|` replace the per-op `Vec`s —
/// the whole adjacency is four contiguous allocations, so traversals in
/// the evaluation hot loop are cache-linear.
#[derive(Debug, Clone, Default, PartialEq)]
struct WorkflowCsr {
    /// `out_msgs[out_off[i] .. out_off[i + 1]]` = outgoing messages of op `i`.
    out_off: Vec<u32>,
    out_msgs: Vec<MsgId>,
    /// `in_msgs[in_off[i] .. in_off[i + 1]]` = incoming messages of op `i`.
    in_off: Vec<u32>,
    in_msgs: Vec<MsgId>,
}

impl WorkflowCsr {
    /// Build both CSR halves with a counting sort over the message
    /// arena. Stable: each op's slice lists its messages in ascending
    /// message id, which is exactly the old insertion order.
    fn build(num_ops: usize, msgs: &[Message]) -> Self {
        let mut out_off = vec![0u32; num_ops + 1];
        let mut in_off = vec![0u32; num_ops + 1];
        for m in msgs {
            out_off[m.from.index() + 1] += 1;
            in_off[m.to.index() + 1] += 1;
        }
        for i in 0..num_ops {
            out_off[i + 1] += out_off[i];
            in_off[i + 1] += in_off[i];
        }
        let mut out_msgs = vec![MsgId::new(0); msgs.len()];
        let mut in_msgs = vec![MsgId::new(0); msgs.len()];
        let mut out_cursor = out_off.clone();
        let mut in_cursor = in_off.clone();
        for (i, m) in msgs.iter().enumerate() {
            let id = MsgId::from(i);
            let o = &mut out_cursor[m.from.index()];
            out_msgs[*o as usize] = id;
            *o += 1;
            let t = &mut in_cursor[m.to.index()];
            in_msgs[*t as usize] = id;
            *t += 1;
        }
        Self {
            out_off,
            out_msgs,
            in_off,
            in_msgs,
        }
    }

    #[inline]
    fn out_slice(&self, op: OpId) -> &[MsgId] {
        &self.out_msgs[self.out_off[op.index()] as usize..self.out_off[op.index() + 1] as usize]
    }

    #[inline]
    fn in_slice(&self, op: OpId) -> &[MsgId] {
        &self.in_msgs[self.in_off[op.index()] as usize..self.in_off[op.index() + 1] as usize]
    }
}

impl Workflow {
    /// Build a workflow from parts, verifying structural sanity.
    pub fn new(
        name: impl Into<String>,
        ops: Vec<Operation>,
        msgs: Vec<Message>,
    ) -> Result<Self, ModelError> {
        if ops.is_empty() {
            return Err(ModelError::Empty);
        }
        let mut seen_names = std::collections::HashSet::with_capacity(ops.len());
        for op in &ops {
            if !seen_names.insert(op.name.as_str()) {
                return Err(ModelError::DuplicateName(op.name.clone()));
            }
        }
        let n = ops.len();
        let mut seen_edges = std::collections::HashSet::with_capacity(msgs.len());
        for m in &msgs {
            if m.from.index() >= n {
                return Err(ModelError::UnknownOp(m.from));
            }
            if m.to.index() >= n {
                return Err(ModelError::UnknownOp(m.to));
            }
            if m.from == m.to {
                return Err(ModelError::SelfLoop(m.from));
            }
            if !seen_edges.insert((m.from, m.to)) {
                return Err(ModelError::DuplicateMessage(m.from, m.to));
            }
        }
        let csr = WorkflowCsr::build(n, &msgs);
        Ok(Self {
            name: name.into(),
            ops,
            msgs,
            csr,
        })
    }

    /// The workflow's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations `M`.
    #[inline]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of messages `|E|`.
    #[inline]
    pub fn num_messages(&self) -> usize {
        self.msgs.len()
    }

    /// The operation with the given id. Panics on out-of-range ids (ids
    /// are only minted by this workflow, so that indicates a logic bug).
    #[inline]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// The message with the given id.
    #[inline]
    pub fn message(&self, id: MsgId) -> &Message {
        &self.msgs[id.index()]
    }

    /// All operations, in id order.
    #[inline]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// All messages, in id order.
    #[inline]
    pub fn messages(&self) -> &[Message] {
        &self.msgs
    }

    /// Iterator over all operation ids.
    pub fn op_ids(&self) -> impl ExactSizeIterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId::new)
    }

    /// Iterator over all message ids.
    pub fn msg_ids(&self) -> impl ExactSizeIterator<Item = MsgId> {
        (0..self.msgs.len() as u32).map(MsgId::new)
    }

    /// Outgoing message ids of `op` (a contiguous CSR slice, in
    /// ascending message id — the insertion order).
    #[inline]
    pub fn out_msgs(&self, op: OpId) -> &[MsgId] {
        self.csr.out_slice(op)
    }

    /// Incoming message ids of `op` (a contiguous CSR slice, in
    /// ascending message id — the insertion order).
    #[inline]
    pub fn in_msgs(&self, op: OpId) -> &[MsgId] {
        self.csr.in_slice(op)
    }

    /// Successor operations of `op`.
    pub fn successors(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.csr
            .out_slice(op)
            .iter()
            .map(|&m| self.msgs[m.index()].to)
    }

    /// Predecessor operations of `op`.
    pub fn predecessors(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.csr
            .in_slice(op)
            .iter()
            .map(|&m| self.msgs[m.index()].from)
    }

    /// Out-degree of `op`.
    #[inline]
    pub fn out_degree(&self, op: OpId) -> usize {
        self.csr.out_slice(op).len()
    }

    /// In-degree of `op`.
    #[inline]
    pub fn in_degree(&self, op: OpId) -> usize {
        self.csr.in_slice(op).len()
    }

    /// The message from `from` to `to`, if present.
    pub fn find_message(&self, from: OpId, to: OpId) -> Option<MsgId> {
        self.csr
            .out_slice(from)
            .iter()
            .copied()
            .find(|&m| self.msgs[m.index()].to == to)
    }

    /// Operations with in-degree 0.
    pub fn sources(&self) -> Vec<OpId> {
        self.op_ids().filter(|&o| self.in_degree(o) == 0).collect()
    }

    /// Operations with out-degree 0.
    pub fn sinks(&self) -> Vec<OpId> {
        self.op_ids().filter(|&o| self.out_degree(o) == 0).collect()
    }

    /// Total computational work `Σ C(Oᵢ)` over all operations.
    pub fn total_cycles(&self) -> MCycles {
        self.ops.iter().map(|o| o.cost).sum()
    }

    /// Total traffic `Σ MsgSize` over all messages.
    pub fn total_message_size(&self) -> Mbits {
        self.msgs.iter().map(|m| m.size).sum()
    }

    /// Ids of operational (non-decision) nodes.
    pub fn operational_ops(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&o| self.ops[o.index()].kind.is_operational())
            .collect()
    }

    /// Ids of decision nodes (openers and closers).
    pub fn decision_ops(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&o| self.ops[o.index()].kind.is_decision())
            .collect()
    }

    /// Fraction of decision nodes among all nodes (the paper's
    /// bushy/lengthy/hybrid classification parameter).
    pub fn decision_ratio(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.decision_ops().len() as f64 / self.ops.len() as f64
    }

    /// If the workflow is a simple line `O₁ → O₂ → … → O_M`, return the
    /// operations in path order; `None` otherwise.
    ///
    /// A line has exactly one source, every node has out-degree ≤ 1 and
    /// in-degree ≤ 1, and all nodes lie on the single path.
    pub fn as_line(&self) -> Option<Vec<OpId>> {
        let sources = self.sources();
        if sources.len() != 1 {
            return None;
        }
        if self
            .op_ids()
            .any(|o| self.out_degree(o) > 1 || self.in_degree(o) > 1)
        {
            return None;
        }
        let mut order = Vec::with_capacity(self.num_ops());
        let mut cur = sources[0];
        loop {
            order.push(cur);
            match self.successors(cur).next() {
                Some(next) => cur = next,
                None => break,
            }
            if order.len() > self.num_ops() {
                return None; // cycle guard; cannot happen post-construction
            }
        }
        (order.len() == self.num_ops()).then_some(order)
    }

    /// `true` if the workflow is a simple line.
    #[inline]
    pub fn is_line(&self) -> bool {
        self.as_line().is_some()
    }

    /// Look up an operation id by name.
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        self.ops.iter().position(|o| o.name == name).map(OpId::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DecisionKind;

    fn line3() -> Workflow {
        Workflow::new(
            "w",
            vec![
                Operation::operational("a", MCycles(1.0)),
                Operation::operational("b", MCycles(2.0)),
                Operation::operational("c", MCycles(3.0)),
            ],
            vec![
                Message::new(OpId::new(0), OpId::new(1), Mbits(0.1)),
                Message::new(OpId::new(1), OpId::new(2), Mbits(0.2)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let w = line3();
        assert_eq!(w.name(), "w");
        assert_eq!(w.num_ops(), 3);
        assert_eq!(w.num_messages(), 2);
        assert_eq!(w.op(OpId::new(1)).name, "b");
        assert_eq!(w.message(MsgId::new(0)).to, OpId::new(1));
        assert_eq!(w.total_cycles(), MCycles(6.0));
        assert!((w.total_message_size().value() - 0.3).abs() < 1e-12);
        assert_eq!(w.op_by_name("c"), Some(OpId::new(2)));
        assert_eq!(w.op_by_name("zz"), None);
    }

    #[test]
    fn adjacency() {
        let w = line3();
        assert_eq!(w.out_degree(OpId::new(0)), 1);
        assert_eq!(w.in_degree(OpId::new(0)), 0);
        assert_eq!(
            w.successors(OpId::new(0)).collect::<Vec<_>>(),
            vec![OpId::new(1)]
        );
        assert_eq!(
            w.predecessors(OpId::new(2)).collect::<Vec<_>>(),
            vec![OpId::new(1)]
        );
        assert_eq!(
            w.find_message(OpId::new(0), OpId::new(1)),
            Some(MsgId::new(0))
        );
        assert_eq!(w.find_message(OpId::new(0), OpId::new(2)), None);
        assert_eq!(w.sources(), vec![OpId::new(0)]);
        assert_eq!(w.sinks(), vec![OpId::new(2)]);
    }

    #[test]
    fn line_detection() {
        let w = line3();
        assert!(w.is_line());
        assert_eq!(
            w.as_line().unwrap(),
            vec![OpId::new(0), OpId::new(1), OpId::new(2)]
        );
    }

    #[test]
    fn fork_is_not_a_line() {
        let w = Workflow::new(
            "w",
            vec![
                Operation::open("x", DecisionKind::And),
                Operation::operational("b", MCycles(1.0)),
                Operation::operational("c", MCycles(1.0)),
            ],
            vec![
                Message::new(OpId::new(0), OpId::new(1), Mbits(0.1)),
                Message::new(OpId::new(0), OpId::new(2), Mbits(0.1)),
            ],
        )
        .unwrap();
        assert!(!w.is_line());
        assert_eq!(w.decision_ops(), vec![OpId::new(0)]);
        assert_eq!(w.operational_ops(), vec![OpId::new(1), OpId::new(2)]);
        assert!((w.decision_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Workflow::new("w", vec![], vec![]).unwrap_err(),
            ModelError::Empty
        );
    }

    #[test]
    fn rejects_self_loop() {
        let err = Workflow::new(
            "w",
            vec![Operation::operational("a", MCycles(1.0))],
            vec![Message::new(OpId::new(0), OpId::new(0), Mbits(0.1))],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::SelfLoop(OpId::new(0)));
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let err = Workflow::new(
            "w",
            vec![Operation::operational("a", MCycles(1.0))],
            vec![Message::new(OpId::new(0), OpId::new(5), Mbits(0.1))],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::UnknownOp(OpId::new(5)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = Workflow::new(
            "w",
            vec![
                Operation::operational("a", MCycles(1.0)),
                Operation::operational("b", MCycles(1.0)),
            ],
            vec![
                Message::new(OpId::new(0), OpId::new(1), Mbits(0.1)),
                Message::new(OpId::new(0), OpId::new(1), Mbits(0.2)),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::DuplicateMessage(OpId::new(0), OpId::new(1))
        );
    }

    #[test]
    fn rejects_duplicate_name() {
        let err = Workflow::new(
            "w",
            vec![
                Operation::operational("a", MCycles(1.0)),
                Operation::operational("a", MCycles(2.0)),
            ],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::DuplicateName("a".into()));
    }

    /// The CSR build must list each op's messages in ascending message
    /// id — the insertion order the old per-op `Vec<MsgId>` index kept —
    /// even when messages arrive interleaved across ops.
    #[test]
    fn csr_adjacency_preserves_insertion_order() {
        let w = Workflow::new(
            "w",
            vec![
                Operation::open("x", DecisionKind::And),
                Operation::operational("b", MCycles(1.0)),
                Operation::operational("c", MCycles(1.0)),
                Operation::close("y", DecisionKind::And),
            ],
            vec![
                // Deliberately interleaved: x's fan-out split around y's
                // fan-in.
                Message::new(OpId::new(0), OpId::new(1), Mbits(0.1)),
                Message::new(OpId::new(1), OpId::new(3), Mbits(0.2)),
                Message::new(OpId::new(0), OpId::new(2), Mbits(0.3)),
                Message::new(OpId::new(2), OpId::new(3), Mbits(0.4)),
            ],
        )
        .unwrap();
        assert_eq!(w.out_msgs(OpId::new(0)), &[MsgId::new(0), MsgId::new(2)]);
        assert_eq!(w.in_msgs(OpId::new(3)), &[MsgId::new(1), MsgId::new(3)]);
        assert_eq!(w.out_msgs(OpId::new(3)), &[] as &[MsgId]);
        assert_eq!(w.in_msgs(OpId::new(0)), &[] as &[MsgId]);
        // Slices tile the arena: total lengths equal the message count.
        let total: usize = w.op_ids().map(|o| w.out_degree(o)).sum();
        assert_eq!(total, w.num_messages());
        let total: usize = w.op_ids().map(|o| w.in_degree(o)).sum();
        assert_eq!(total, w.num_messages());
    }
}
