//! Identifier newtypes for network entities.

use std::fmt;

/// Index of a server within its [`Network`](crate::Network).
///
/// Server ids are dense (`0..network.num_servers()`), so mappings and
/// load accounting can use flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl ServerId {
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

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<u32> for ServerId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for ServerId {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

/// Index of a link within its [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
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

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<u32> for LinkId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for LinkId {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

/// Index of a geographic region (e.g. a cloud provider's `eu-west`).
///
/// Region ids are dense (`0..network.num_regions()`); servers default to
/// region 0, so single-region networks never mention regions at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
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

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u32> for RegionId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for RegionId {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

/// Index of an availability zone within a region.
///
/// Zones are informational in the cost model (latency is modelled at
/// region granularity) but let constraints express anti-affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u32);

impl ZoneId {
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

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z{}", self.0)
    }
}

impl From<u32> for ZoneId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for ZoneId {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(ServerId::new(2).to_string(), "S2");
        assert_eq!(LinkId::new(5).to_string(), "L5");
        assert_eq!(RegionId::new(1).to_string(), "R1");
        assert_eq!(ZoneId::new(0).to_string(), "Z0");
    }

    #[test]
    fn conversions() {
        assert_eq!(ServerId::from(3u32).index(), 3);
        assert_eq!(ServerId::from(3usize), ServerId::new(3));
        assert_eq!(LinkId::from(1u32), LinkId::new(1));
        assert_eq!(LinkId::from(1usize).index(), 1);
        assert_eq!(RegionId::from(2u32).index(), 2);
        assert_eq!(RegionId::from(2usize), RegionId::new(2));
        assert_eq!(ZoneId::from(1u32), ZoneId::new(1));
        assert_eq!(ZoneId::from(1usize).index(), 1);
    }
}
