//! Virtual time types.
//!
//! The simulator counts microseconds in `u64`. Two newtypes keep instants
//! and spans from being mixed up: [`Time`] is an absolute instant since the
//! start of the simulation, [`Dur`] is a span. Microsecond resolution is
//! fine for the paper's workloads (task grains are hundreds of microseconds
//! to milliseconds; runs last seconds to minutes).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant in virtual time (microseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

/// A span of virtual time (microseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// Largest representable instant; used as an "never" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us)
    }

    /// Instant as microseconds.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Span from `earlier` to `self`; saturates at zero if `earlier` is later.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Dur(us)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * 1_000)
    }

    /// Construct from fractional seconds, rounding to the nearest µs.
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Dur(round_u64(s.max(0.0) * 1e6))
    }

    /// Span in microseconds.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` for the empty span.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// 2^52: below it an `f64`'s fractional part is exact, at and above it
/// every `f64` is an integer.
const EXACT_INT_LIMIT: f64 = 4_503_599_627_370_496.0;

/// `x.round() as u64`, bit for bit. Baseline x86-64 (SSE2 only) has no
/// rounding instruction, so `f64::round` is a library call; on the hot
/// path's non-negative finite inputs below 2^52 this truncates and
/// corrects by the exact fractional part instead. Every other input
/// (negative, huge, infinite, NaN) takes the library path.
#[inline]
pub(crate) fn round_u64(x: f64) -> u64 {
    if (0.0..EXACT_INT_LIMIT).contains(&x) {
        let whole = x as i64;
        (whole + i64::from(x - whole as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

/// `x.ceil().max(0.0) as u64`, bit for bit; see [`round_u64`].
#[inline]
pub(crate) fn ceil_u64(x: f64) -> u64 {
    if (0.0..EXACT_INT_LIMIT).contains(&x) {
        let whole = x as i64;
        (whole + i64::from((whole as f64) < x)) as u64
    } else {
        x.ceil().max(0.0) as u64
    }
}

/// `x.fract() != 0.0`, bit for bit; see [`round_u64`] (`fract` calls the
/// library's `trunc`).
#[inline]
pub(crate) fn has_fraction(x: f64) -> bool {
    if (0.0..EXACT_INT_LIMIT).contains(&x) {
        x != (x as i64) as f64
    } else {
        x.fract() != 0.0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        debug_assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: f64) -> Dur {
        debug_assert!(rhs >= 0.0, "negative duration scale {rhs}");
        Dur((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Time::from_us(1_500_000).as_secs_f64(), 1.5);
        assert_eq!(Dur::from_secs_f64(0.25).as_us(), 250_000);
        assert_eq!(Dur::from_ms(3).as_us(), 3_000);
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_us(100) + Dur::from_us(50);
        assert_eq!(t.as_us(), 150);
        assert_eq!((t - Time::from_us(100)).as_us(), 50);
        assert_eq!((Dur::from_us(30) + Dur::from_us(12)).as_us(), 42);
        assert_eq!((Dur::from_us(30) - Dur::from_us(12)).as_us(), 18);
        assert_eq!((Dur::from_us(100) * 0.5).as_us(), 50);
        assert_eq!((Dur::from_us(100) / 4).as_us(), 25);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Time::from_us(5).since(Time::from_us(9)), Dur::ZERO);
        assert_eq!(Time::from_us(9).since(Time::from_us(5)).as_us(), 4);
    }

    #[test]
    fn ordering() {
        assert!(Time::from_us(1) < Time::from_us(2));
        assert!(Time::MAX > Time::from_us(u64::MAX - 1));
        assert!(Dur::from_us(7) > Dur::ZERO);
    }

    /// The reference each helper must match bit for bit.
    fn reference(x: f64) -> (u64, u64, bool) {
        (x.round() as u64, x.ceil().max(0.0) as u64, x.fract() != 0.0)
    }

    fn helpers(x: f64) -> (u64, u64, bool) {
        (round_u64(x), ceil_u64(x), has_fraction(x))
    }

    #[test]
    fn rounding_helpers_match_libm() {
        let two52 = EXACT_INT_LIMIT;
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            1e-300,
            f64::MIN_POSITIVE,
            two52 - 0.5,
            two52 - 1.0,
            two52,
            two52 + 1.0,
            2.0 * two52,
            1e300,
            f64::MAX,
            -0.5,
            -1.0,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            assert_eq!(helpers(x), reference(x), "x = {x:e}");
        }
        // Seeded sweep over magnitudes, half-integers, the 2^52 boundary
        // and raw bit patterns, each with its two neighbouring floats.
        let mut rng = crate::rng::SimRng::new(0x0E0A_7D01);
        for _ in 0..200_000 {
            let x = match rng.below(4) {
                0 => rng.range_f64(0.0, 1.0) * 10f64.powi(rng.below(20) as i32),
                1 => rng.below(1 << 20) as f64 + 0.5,
                2 => two52 + rng.range_f64(-8.0, 8.0),
                _ => f64::from_bits(rng.next_u64()),
            };
            let bits = x.to_bits();
            for y in [bits, bits.wrapping_add(1), bits.wrapping_sub(1)].map(f64::from_bits) {
                assert_eq!(helpers(y), reference(y), "{y:e} ({:#x})", y.to_bits());
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Time::from_us(1_500_000)), "1.500s");
        assert_eq!(format!("{}", Dur::from_us(2_000)), "0.002s");
    }
}
