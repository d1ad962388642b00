//! Strongly-typed units used throughout the workspace.
//!
//! The paper (Table 1) mixes cycles, Hz, bits and seconds; to keep the
//! arithmetic honest every quantity is wrapped in a newtype and only the
//! physically meaningful operations are implemented:
//!
//! * [`MCycles`] `/` [`MegaHertz`] `=` [`Seconds`] (processing time),
//! * [`Mbits`] `/` [`MbitsPerSec`] `=` [`Seconds`] (transmission time),
//! * [`Seconds`] add/sub/scale, and so on.
//!
//! The mega-scale bases are chosen so that the paper's experimental values
//! (10–500 M cycles, 1–3 GHz, 0.007–0.163 Mbit, 1–1000 Mbps) are all
//! close to unity, which keeps `f64` arithmetic well conditioned.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Construct from a raw `f64` in the unit's base scale.
            #[inline]
            pub const fn new(v: f64) -> Self {
                Self(v)
            }

            /// The raw value in the unit's base scale.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// `true` if the value is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// `true` if the value is finite (not NaN / ±inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// The larger of two quantities (NaN-propagating via `f64::max`).
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// Computational work in millions of CPU cycles — the paper's `C(op)`.
    MCycles,
    "Mcycles"
);

unit!(
    /// Computational power in MHz — the paper's `P(s)`. 1 GHz = 1000 MHz.
    MegaHertz,
    "MHz"
);

unit!(
    /// Message size in megabits — the paper's `MsgSize(opᵢ, opⱼ)`.
    Mbits,
    "Mbit"
);

unit!(
    /// Link throughput in Mbit/s — the paper's `Line_Speed(s, s')`.
    MbitsPerSec,
    "Mbps"
);

unit!(
    /// Wall-clock time in seconds.
    Seconds,
    "s"
);

unit!(
    /// Monetary cost in dollars — the billing axis of the geo-distributed
    /// scenario pack.
    Dollars,
    "$"
);

unit!(
    /// Hourly leasing price of a server in dollars per hour.
    DollarsPerHour,
    "$/h"
);

impl MegaHertz {
    /// Construct from GHz (the scale Table 6 uses for `P(Sᵢ)`).
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1000.0)
    }

    /// This power expressed in GHz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.0 / 1000.0
    }
}

impl Mbits {
    /// Construct from a byte count (SOAP message sizes in the paper are
    /// quoted in bytes: 873 B simple, 7 581 B medium, 21 392 B complex).
    #[inline]
    pub fn from_bytes(bytes: f64) -> Self {
        Self(bytes * 8.0 / 1.0e6)
    }

    /// This size expressed in bytes.
    #[inline]
    pub fn as_bytes(self) -> f64 {
        self.0 * 1.0e6 / 8.0
    }
}

impl Seconds {
    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self(ms / 1000.0)
    }

    /// This duration expressed in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1000.0
    }
}

impl Div<MegaHertz> for MCycles {
    type Output = Seconds;

    /// Processing time: `Tproc(op) = C(op) / P(Server(op))`.
    ///
    /// M cycles divided by MHz yields seconds exactly (both carry a 10⁶
    /// factor that cancels).
    #[inline]
    fn div(self, rhs: MegaHertz) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<MbitsPerSec> for Mbits {
    type Output = Seconds;

    /// Transmission time: `Ttrans = MsgSize / Line_Speed`.
    #[inline]
    fn div(self, rhs: MbitsPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for DollarsPerHour {
    type Output = Dollars;

    /// Billing: hourly price × occupied wall time (converted to hours).
    #[inline]
    fn mul(self, rhs: Seconds) -> Dollars {
        Dollars(self.0 * rhs.0 / 3600.0)
    }
}

impl Mul<DollarsPerHour> for Seconds {
    type Output = Dollars;
    #[inline]
    fn mul(self, rhs: DollarsPerHour) -> Dollars {
        rhs * self
    }
}

/// A probability in `[0, 1]`.
///
/// Used for XOR branch weights and derived per-operation execution
/// probabilities. Construction clamps silently only through
/// [`Probability::clamped`]; [`Probability::new`] panics on out-of-range
/// input to surface modelling bugs early.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Probability(f64);

impl Probability {
    /// Certain execution.
    pub const ONE: Self = Self(1.0);
    /// Impossible execution.
    pub const ZERO: Self = Self(0.0);

    /// Construct a probability, panicking if `p` is outside `[0, 1]` or NaN.
    #[inline]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Self(p)
    }

    /// Construct a probability, clamping into `[0, 1]` (NaN becomes 0).
    #[inline]
    pub fn clamped(p: f64) -> Self {
        if p.is_nan() {
            Self(0.0)
        } else {
            Self(p.clamp(0.0, 1.0))
        }
    }

    /// The raw value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Product of two probabilities (independent conjunction).
    #[inline]
    pub fn and(self, other: Self) -> Self {
        Self(self.0 * other.0)
    }

    /// Complement `1 − p`.
    #[inline]
    pub fn complement(self) -> Self {
        Self(1.0 - self.0)
    }
}

impl Default for Probability {
    fn default() -> Self {
        Self::ONE
    }
}

impl Mul for Probability {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl Mul<f64> for Probability {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Mul<MCycles> for Probability {
    type Output = MCycles;
    /// Expected work: probability-weighted cycles (paper §3.4).
    #[inline]
    fn mul(self, rhs: MCycles) -> MCycles {
        MCycles(self.0 * rhs.0)
    }
}

impl Mul<Mbits> for Probability {
    type Output = Mbits;
    /// Expected traffic: probability-weighted message size (paper §3.4).
    #[inline]
    fn mul(self, rhs: Mbits) -> Mbits {
        Mbits(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for Probability {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tproc_units_cancel() {
        // 10 Mcycles on a 1 GHz CPU take 10 ms.
        let t = MCycles(10.0) / MegaHertz::from_ghz(1.0);
        assert!((t.value() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn ttrans_units_cancel() {
        // 0.163208 Mbit over 100 Mbps take ~1.632 ms.
        let t = Mbits(0.163208) / MbitsPerSec(100.0);
        assert!((t.as_millis() - 1.63208).abs() < 1e-9);
    }

    #[test]
    fn billing_units_cancel() {
        // A $7.20/h server occupied for 30 minutes bills $3.60, from
        // either operand order.
        let cost = DollarsPerHour(7.2) * Seconds(1800.0);
        assert!((cost.value() - 3.6).abs() < 1e-12);
        assert_eq!(Seconds(1800.0) * DollarsPerHour(7.2), cost);
        assert_eq!(format!("{:.2}", Dollars(3.6)), "3.60 $");
    }

    #[test]
    fn bytes_round_trip() {
        let m = Mbits::from_bytes(21_392.0);
        assert!((m.value() - 0.171136).abs() < 1e-9);
        assert!((m.as_bytes() - 21_392.0).abs() < 1e-6);
    }

    #[test]
    fn ghz_round_trip() {
        let p = MegaHertz::from_ghz(2.5);
        assert_eq!(p.value(), 2500.0);
        assert_eq!(p.as_ghz(), 2.5);
    }

    #[test]
    fn seconds_arithmetic() {
        let mut t = Seconds(1.0) + Seconds(2.0);
        t += Seconds(0.5);
        t -= Seconds(1.5);
        assert_eq!(t, Seconds(2.0));
        assert_eq!(-t, Seconds(-2.0));
        assert_eq!(t * 2.0, Seconds(4.0));
        assert_eq!(2.0 * t, Seconds(4.0));
        assert_eq!(t / 2.0, Seconds(1.0));
        assert_eq!(Seconds(4.0) / Seconds(2.0), 2.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Seconds = [Seconds(1.0), Seconds(2.0), Seconds(3.0)].iter().sum();
        assert_eq!(total, Seconds(6.0));
        let owned: MCycles = vec![MCycles(5.0), MCycles(7.0)].into_iter().sum();
        assert_eq!(owned, MCycles(12.0));
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Seconds(-3.0).abs(), Seconds(3.0));
        assert_eq!(Seconds(1.0).max(Seconds(2.0)), Seconds(2.0));
        assert_eq!(Seconds(1.0).min(Seconds(2.0)), Seconds(1.0));
    }

    #[test]
    fn probability_combinators() {
        let p = Probability::new(0.25);
        assert_eq!(p.complement().value(), 0.75);
        assert_eq!(p.and(Probability::new(0.5)).value(), 0.125);
        assert_eq!((p * MCycles(100.0)).value(), 25.0);
        assert_eq!((p * Mbits(0.8)).value(), 0.2);
        assert_eq!((p * Seconds(4.0)).value(), 1.0);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn probability_rejects_out_of_range() {
        let _ = Probability::new(1.5);
    }

    #[test]
    fn probability_clamped_handles_nan_and_range() {
        assert_eq!(Probability::clamped(f64::NAN).value(), 0.0);
        assert_eq!(Probability::clamped(2.0).value(), 1.0);
        assert_eq!(Probability::clamped(-1.0).value(), 0.0);
        assert_eq!(Probability::clamped(0.3).value(), 0.3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:.2}", Seconds(1.2345)), "1.23 s");
        assert_eq!(format!("{}", MCycles(10.0)), "10 Mcycles");
        assert_eq!(format!("{}", Probability::new(0.5)), "0.500");
    }
}
