//! Servers — the nodes of the provider's network.

use std::fmt;

use wsflow_model::units::{DollarsPerHour, MegaHertz};

use crate::ids::{RegionId, ZoneId};

/// A server that can host web-service operations.
///
/// The only property the paper's cost model uses is the computational
/// power `P(s)` (Table 1); a name is kept for reporting. The
/// geo-distributed scenario pack adds a region/zone placement and an
/// hourly leasing price — all defaulting to the paper's "one free
/// datacentre" (region 0, zone 0, $0/h), so classic networks are
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Human-readable name (unique within a network; enforced at
    /// construction).
    pub name: String,
    /// Computational power `P(s)`.
    pub power: MegaHertz,
    /// Geographic region hosting the server.
    pub region: RegionId,
    /// Availability zone within the region.
    pub zone: ZoneId,
    /// Hourly leasing price; $0/h means the server is owned outright
    /// and contributes nothing to the money axis.
    pub price: DollarsPerHour,
}

impl Server {
    /// Construct a server in region 0 / zone 0 at $0/h.
    pub fn new(name: impl Into<String>, power: MegaHertz) -> Self {
        Self {
            name: name.into(),
            power,
            region: RegionId::new(0),
            zone: ZoneId::new(0),
            price: DollarsPerHour::ZERO,
        }
    }

    /// Construct with power given in GHz (the paper's Table 6 scale).
    pub fn with_ghz(name: impl Into<String>, ghz: f64) -> Self {
        Self::new(name, MegaHertz::from_ghz(ghz))
    }

    /// Place the server in a region/zone.
    pub fn in_region(mut self, region: RegionId, zone: ZoneId) -> Self {
        self.region = region;
        self.zone = zone;
        self
    }

    /// Set the hourly leasing price.
    pub fn priced(mut self, price: DollarsPerHour) -> Self {
        self.price = price;
        self
    }
}

impl fmt::Display for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.1} GHz)", self.name, self.power.as_ghz())?;
        if self.region != RegionId::new(0) || self.zone != ZoneId::new(0) {
            write!(f, " @{}/{}", self.region, self.zone)?;
        }
        if !self.price.is_zero() {
            write!(f, " {:.2}", self.price)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let s = Server::new("s0", MegaHertz(2000.0));
        assert_eq!(s.power.as_ghz(), 2.0);
        assert_eq!(s.region, RegionId::new(0));
        assert_eq!(s.zone, ZoneId::new(0));
        assert!(s.price.is_zero());
        let s = Server::with_ghz("s1", 1.5);
        assert_eq!(s.power, MegaHertz(1500.0));
    }

    #[test]
    fn geo_builders() {
        let s = Server::with_ghz("eu0", 2.0)
            .in_region(RegionId::new(1), ZoneId::new(2))
            .priced(DollarsPerHour(0.45));
        assert_eq!(s.region, RegionId::new(1));
        assert_eq!(s.zone, ZoneId::new(2));
        assert_eq!(s.price, DollarsPerHour(0.45));
    }

    #[test]
    fn display() {
        assert_eq!(Server::with_ghz("db", 3.0).to_string(), "db (3.0 GHz)");
        let s = Server::with_ghz("eu", 2.0)
            .in_region(RegionId::new(1), ZoneId::new(0))
            .priced(DollarsPerHour(0.5));
        assert_eq!(s.to_string(), "eu (2.0 GHz) @R1/Z0 0.50 $/h");
    }
}
