//! Links — the edges of the provider's network.

use std::fmt;

use wsflow_model::units::{MbitsPerSec, Seconds};

use crate::ids::ServerId;

/// An undirected communication link between two servers.
///
/// Carries the paper's `Line_Speed(s, s')` (throughput) and
/// `Tprop(s, s')` (propagation delay) from Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: ServerId,
    /// The other endpoint.
    pub b: ServerId,
    /// Throughput `Line_Speed(a, b)`.
    pub speed: MbitsPerSec,
    /// Propagation delay `Tprop(a, b)`.
    pub propagation: Seconds,
}

impl Link {
    /// Construct a link with zero propagation delay (the paper's
    /// experiments do not vary propagation; it defaults to 0).
    pub fn new(a: ServerId, b: ServerId, speed: MbitsPerSec) -> Self {
        Self {
            a,
            b,
            speed,
            propagation: Seconds::ZERO,
        }
    }

    /// Builder-style: set the propagation delay.
    pub fn with_propagation(mut self, t: Seconds) -> Self {
        self.propagation = t;
        self
    }

    /// `true` if `s` is either endpoint.
    #[inline]
    pub fn touches(&self, s: ServerId) -> bool {
        self.a == s || self.b == s
    }

    /// The other endpoint given one of them; `None` if `s` is not an
    /// endpoint.
    #[inline]
    pub fn opposite(&self, s: ServerId) -> Option<ServerId> {
        if self.a == s {
            Some(self.b)
        } else if self.b == s {
            Some(self.a)
        } else {
            None
        }
    }

    /// Canonical endpoint pair `(min, max)` for duplicate detection.
    #[inline]
    pub fn canonical(&self) -> (ServerId, ServerId) {
        if self.a <= self.b {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -- {} ({})", self.a, self.b, self.speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let l = Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(100.0));
        assert!(l.touches(ServerId::new(0)));
        assert!(!l.touches(ServerId::new(2)));
        assert_eq!(l.opposite(ServerId::new(0)), Some(ServerId::new(1)));
        assert_eq!(l.opposite(ServerId::new(1)), Some(ServerId::new(0)));
        assert_eq!(l.opposite(ServerId::new(2)), None);
        assert_eq!(l.propagation, Seconds::ZERO);
    }

    #[test]
    fn canonicalisation() {
        let l = Link::new(ServerId::new(3), ServerId::new(1), MbitsPerSec(10.0));
        assert_eq!(l.canonical(), (ServerId::new(1), ServerId::new(3)));
    }

    #[test]
    fn propagation_builder() {
        let l = Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(10.0))
            .with_propagation(Seconds(0.001));
        assert_eq!(l.propagation, Seconds(0.001));
    }

    #[test]
    fn display() {
        let l = Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(100.0));
        assert_eq!(l.to_string(), "S0 -- S1 (100 Mbps)");
    }
}
