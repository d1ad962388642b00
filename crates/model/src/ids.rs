//! Identifier newtypes for workflow entities.

use std::fmt;

/// Index of an operation within its [`Workflow`](crate::Workflow).
///
/// Operation ids are dense (`0..workflow.num_ops()`), which lets cost
/// evaluators and algorithms use plain vectors instead of hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// Construct from a raw index.
    #[inline]
    pub const fn new(i: u32) -> Self {
        Self(i)
    }

    /// The raw index, as `usize`, for vector indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl From<u32> for OpId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for OpId {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

/// Index of a message (edge) within its [`Workflow`](crate::Workflow).
///
/// Like [`OpId`], message ids are dense (`0..workflow.num_messages()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u32);

impl MsgId {
    /// Construct from a raw index.
    #[inline]
    pub const fn new(i: u32) -> Self {
        Self(i)
    }

    /// The raw index, as `usize`, for vector indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl From<u32> for MsgId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for MsgId {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(OpId::new(3).to_string(), "O3");
        assert_eq!(MsgId::new(7).to_string(), "m7");
    }

    #[test]
    fn conversions() {
        assert_eq!(OpId::from(4u32), OpId::new(4));
        assert_eq!(OpId::from(4usize).index(), 4);
        assert_eq!(MsgId::from(2u32).index(), 2);
        assert_eq!(MsgId::from(2usize), MsgId::new(2));
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(OpId::new(1) < OpId::new(2));
        assert!(MsgId::new(0) < MsgId::new(9));
    }
}
