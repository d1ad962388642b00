//! Deployment mappings `O → S`.

use std::fmt;

use wsflow_model::OpId;
use wsflow_net::ServerId;

/// A total mapping of every operation to a server — the algorithms'
/// output (`Mapping = {r₁, …, r_M}` in §2.2 of the paper).
///
/// # Examples
///
/// ```
/// use wsflow_cost::Mapping;
/// use wsflow_model::OpId;
/// use wsflow_net::ServerId;
///
/// let mut m = Mapping::from_fn(4, |op| ServerId::new(op.0 % 2));
/// assert_eq!(m.server_of(OpId::new(2)), ServerId::new(0));
/// m.assign(OpId::new(2), ServerId::new(1));
/// assert_eq!(m.ops_on(ServerId::new(1)).len(), 3);
/// assert_eq!(m.to_string(), "{O0→S0, O1→S1, O2→S1, O3→S1}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// `assignment[i]` = server hosting operation `OpId(i)`.
    assignment: Vec<ServerId>,
}

impl Mapping {
    /// Construct from a dense assignment vector.
    pub fn new(assignment: Vec<ServerId>) -> Self {
        Self { assignment }
    }

    /// All operations on a single server.
    pub fn all_on(num_ops: usize, server: ServerId) -> Self {
        Self {
            assignment: vec![server; num_ops],
        }
    }

    /// Construct by evaluating `f` for each operation id.
    pub fn from_fn(num_ops: usize, mut f: impl FnMut(OpId) -> ServerId) -> Self {
        Self {
            assignment: (0..num_ops).map(|i| f(OpId::from(i))).collect(),
        }
    }

    /// The server hosting `op` — the paper's `Server(op)`.
    #[inline]
    pub fn server_of(&self, op: OpId) -> ServerId {
        self.assignment[op.index()]
    }

    /// Reassign `op` to `server`.
    #[inline]
    pub fn assign(&mut self, op: OpId, server: ServerId) {
        self.assignment[op.index()] = server;
    }

    /// Number of mapped operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` if the mapping covers no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The raw assignment slice.
    #[inline]
    pub fn as_slice(&self) -> &[ServerId] {
        &self.assignment
    }

    /// Iterator over `(op, server)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, ServerId)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .map(|(i, &s)| (OpId::from(i), s))
    }

    /// Operations hosted on `server`, in id order.
    pub fn ops_on(&self, server: ServerId) -> Vec<OpId> {
        self.iter()
            .filter_map(|(o, s)| (s == server).then_some(o))
            .collect()
    }

    /// Number of distinct servers actually used.
    pub fn servers_used(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for &s in &self.assignment {
            seen.insert(s);
        }
        seen.len()
    }

    /// `true` if every assigned server id is below `num_servers`.
    pub fn is_valid_for(&self, num_servers: usize) -> bool {
        self.assignment.iter().all(|s| s.index() < num_servers)
    }

    /// Number of positions where two mappings differ.
    pub fn hamming_distance(&self, other: &Mapping) -> usize {
        assert_eq!(self.len(), other.len(), "mappings must be same length");
        self.assignment
            .iter()
            .zip(&other.assignment)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (o, s)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{o}→{s}")?;
        }
        f.write_str("}")
    }
}

/// A mapping in which some operations may not have a server yet.
///
/// Branch-and-bound carries one down its search tree, and
/// [`Evaluator::relaxed_execution_time`](crate::Evaluator::relaxed_execution_time)
/// bounds the execution time of its every completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialMapping {
    assignment: Vec<Option<ServerId>>,
}

impl PartialMapping {
    /// All operations unassigned.
    pub fn unassigned(num_ops: usize) -> Self {
        Self {
            assignment: vec![None; num_ops],
        }
    }

    /// Start from a complete mapping (the paper's Tie-Resolver algorithms
    /// "initialize M to a random Mapping" so the gain function has
    /// something to measure against).
    pub fn from_full(m: &Mapping) -> Self {
        Self {
            assignment: m.as_slice().iter().map(|&s| Some(s)).collect(),
        }
    }

    /// The server currently holding `op`, if assigned.
    #[inline]
    pub fn server_of(&self, op: OpId) -> Option<ServerId> {
        self.assignment[op.index()]
    }

    /// Assign (or reassign) `op`.
    #[inline]
    pub fn assign(&mut self, op: OpId, server: ServerId) {
        self.assignment[op.index()] = Some(server);
    }

    /// Remove the assignment of `op`.
    #[inline]
    pub fn unassign(&mut self, op: OpId) {
        self.assignment[op.index()] = None;
    }

    /// `true` if `op` has a server.
    #[inline]
    pub fn is_assigned(&self, op: OpId) -> bool {
        self.assignment[op.index()].is_some()
    }

    /// Number of assigned operations.
    pub fn num_assigned(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Number of operations overall.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` if there are no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Finalise into a total [`Mapping`]; `None` if any operation is
    /// still unassigned.
    pub fn complete(&self) -> Option<Mapping> {
        let assignment: Option<Vec<ServerId>> = self.assignment.iter().copied().collect();
        assignment.map(Mapping::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> ServerId {
        ServerId::new(i)
    }

    fn o(i: u32) -> OpId {
        OpId::new(i)
    }

    #[test]
    fn total_mapping_basics() {
        let m = Mapping::new(vec![s(0), s(1), s(0)]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.server_of(o(1)), s(1));
        assert_eq!(m.ops_on(s(0)), vec![o(0), o(2)]);
        assert_eq!(m.servers_used(), 2);
        assert!(m.is_valid_for(2));
        assert!(!m.is_valid_for(1));
    }

    #[test]
    fn from_fn_and_all_on() {
        let m = Mapping::from_fn(4, |op| s(op.0 % 2));
        assert_eq!(m.as_slice(), &[s(0), s(1), s(0), s(1)]);
        let m = Mapping::all_on(3, s(2));
        assert_eq!(m.servers_used(), 1);
        assert_eq!(m.ops_on(s(2)).len(), 3);
    }

    #[test]
    fn reassignment_and_distance() {
        let mut m = Mapping::all_on(3, s(0));
        m.assign(o(1), s(1));
        assert_eq!(m.server_of(o(1)), s(1));
        let other = Mapping::all_on(3, s(0));
        assert_eq!(m.hamming_distance(&other), 1);
        assert_eq!(m.hamming_distance(&m.clone()), 0);
    }

    #[test]
    fn display() {
        let m = Mapping::new(vec![s(0), s(1)]);
        assert_eq!(m.to_string(), "{O0→S0, O1→S1}");
    }

    #[test]
    fn partial_mapping_lifecycle() {
        let mut p = PartialMapping::unassigned(3);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.num_assigned(), 0);
        assert!(p.complete().is_none());
        p.assign(o(0), s(1));
        p.assign(o(1), s(0));
        assert!(p.is_assigned(o(0)));
        assert!(!p.is_assigned(o(2)));
        assert_eq!(p.server_of(o(0)), Some(s(1)));
        p.assign(o(2), s(1));
        let m = p.complete().unwrap();
        assert_eq!(m.as_slice(), &[s(1), s(0), s(1)]);
        p.unassign(o(2));
        assert_eq!(p.num_assigned(), 2);
    }

    #[test]
    fn partial_from_full() {
        let m = Mapping::new(vec![s(0), s(1)]);
        let p = PartialMapping::from_full(&m);
        assert_eq!(p.num_assigned(), 2);
        assert_eq!(p.complete().unwrap(), m);
    }
}
