//! Descriptive statistics of a workflow's shape.
//!
//! Used by the experiment harness to verify that generated random graphs
//! actually match the paper's bushy / lengthy / hybrid profiles (§4.2).

use crate::traversal::{longest_path_len, max_fan_out};
use crate::units::MCycles;
use crate::workflow::Workflow;

/// Shape statistics of a workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowStats {
    /// Total number of operations (nodes).
    pub num_ops: usize,
    /// Number of messages (edges).
    pub num_messages: usize,
    /// Number of operational nodes.
    pub num_operational: usize,
    /// Number of decision nodes (openers + closers).
    pub num_decision: usize,
    /// Fraction of decision nodes among all nodes.
    pub decision_ratio: f64,
    /// Length of the longest path (edges), a proxy for workflow "length".
    pub depth: usize,
    /// Maximum fan-out of any node.
    pub max_fan_out: usize,
    /// Total computational work over all operations.
    pub total_cycles: MCycles,
    /// `true` if the workflow is a simple line.
    pub is_line: bool,
}

impl WorkflowStats {
    /// Compute statistics for a workflow.
    pub fn of(w: &Workflow) -> Self {
        let num_decision = w.decision_ops().len();
        Self {
            num_ops: w.num_ops(),
            num_messages: w.num_messages(),
            num_operational: w.num_ops() - num_decision,
            num_decision,
            decision_ratio: w.decision_ratio(),
            depth: longest_path_len(w).unwrap_or(0),
            max_fan_out: max_fan_out(w),
            total_cycles: w.total_cycles(),
            is_line: w.is_line(),
        }
    }
}

impl std::fmt::Display for WorkflowStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops ({} operational, {} decision, ratio {:.2}), {} msgs, depth {}, fan-out {}, {} total",
            self.num_ops,
            self.num_operational,
            self.num_decision,
            self.decision_ratio,
            self.num_messages,
            self.depth,
            self.max_fan_out,
            self.total_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BlockSpec, WorkflowBuilder};
    use crate::units::Mbits;

    #[test]
    fn line_stats() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(1.0), MCycles(2.0), MCycles(3.0)], Mbits(0.1));
        let w = b.build().unwrap();
        let s = WorkflowStats::of(&w);
        assert_eq!(s.num_ops, 3);
        assert_eq!(s.num_messages, 2);
        assert_eq!(s.num_decision, 0);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_fan_out, 1);
        assert!(s.is_line);
        assert_eq!(s.total_cycles, MCycles(6.0));
        assert!(s.to_string().contains("3 ops"));
    }

    #[test]
    fn bushy_stats() {
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("a", MCycles(1.0)),
                BlockSpec::op("b", MCycles(1.0)),
                BlockSpec::op("c", MCycles(1.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.01)).unwrap();
        let s = WorkflowStats::of(&w);
        assert_eq!(s.num_ops, 5);
        assert_eq!(s.num_decision, 2);
        assert!((s.decision_ratio - 0.4).abs() < 1e-12);
        assert_eq!(s.max_fan_out, 3);
        assert!(!s.is_line);
    }
}
