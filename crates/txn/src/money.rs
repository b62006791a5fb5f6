//! Fixed-point money.
//!
//! Prices and costs are exact `i64` cent counts; they never round-trip
//! through floats. Profit *measures* (which involve fractional quantities
//! under buying MOA) convert to `f64` dollars at the last moment via
//! [`Money::as_dollars`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An exact amount of money in cents. Supports negative amounts (losses).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Money(i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// From a cent count.
    pub const fn from_cents(cents: i64) -> Self {
        Money(cents)
    }

    /// From whole dollars.
    ///
    /// # Panics
    ///
    /// Panics if `dollars * 100` overflows the cent range — the same
    /// contract as [`Money::from_dollars_f64`]. (The unchecked `* 100`
    /// this replaces wrapped silently in release builds.)
    pub const fn from_dollars(dollars: i64) -> Self {
        match dollars.checked_mul(100) {
            Some(cents) => Money(cents),
            None => panic!("money overflow: dollar amount exceeds the cent range"),
        }
    }

    /// From a float dollar amount, rounded to the nearest cent.
    ///
    /// # Panics
    ///
    /// Panics if `dollars` is not finite or overflows the cent range.
    pub fn from_dollars_f64(dollars: f64) -> Self {
        assert!(dollars.is_finite(), "money must be finite, got {dollars}");
        Self::checked_from_dollars_f64(dollars)
            .unwrap_or_else(|| panic!("money overflow: {dollars}"))
    }

    /// [`Money::from_dollars_f64`], or `None` where it would panic.
    pub fn checked_from_dollars_f64(dollars: f64) -> Option<Self> {
        let cents = (dollars * 100.0).round();
        (cents >= i64::MIN as f64 && cents <= i64::MAX as f64).then_some(Money(cents as i64))
    }

    /// The cent count.
    pub const fn cents(self) -> i64 {
        self.0
    }

    /// The amount as `f64` dollars (lossless for |cents| < 2^53).
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 100.0
    }

    /// True when this amount is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// True when this amount is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by an integer quantity, checking for overflow.
    pub fn times(self, qty: u32) -> Money {
        Money(
            self.0
                .checked_mul(qty as i64)
                .expect("money multiplication overflow"),
        )
    }

    /// Minimum of two amounts.
    pub fn min(self, other: Money) -> Money {
        Money(self.0.min(other.0))
    }

    /// Maximum of two amounts.
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0.checked_add(rhs.0).expect("money addition overflow"))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(
            self.0
                .checked_sub(rhs.0)
                .expect("money subtraction overflow"),
        )
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<u32> for Money {
    type Output = Money;
    fn mul(self, rhs: u32) -> Money {
        self.times(rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}${}.{:02}", abs / 100, abs % 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Money::from_dollars(3), Money::from_cents(300));
        assert_eq!(Money::from_dollars_f64(3.2), Money::from_cents(320));
        assert_eq!(Money::from_dollars_f64(0.005), Money::from_cents(1)); // round half up
        assert_eq!(Money::from_dollars_f64(-1.25), Money::from_cents(-125));
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_cents(320);
        let b = Money::from_cents(200);
        assert_eq!(a - b, Money::from_cents(120));
        assert_eq!(a + b, Money::from_cents(520));
        assert_eq!((a - b).times(5), Money::from_cents(600));
        assert_eq!(a * 2, Money::from_cents(640));
        assert_eq!(-a, Money::from_cents(-320));
    }

    #[test]
    fn sum_iterator() {
        let total: Money = [1, 2, 3].iter().map(|&d| Money::from_dollars(d)).sum();
        assert_eq!(total, Money::from_dollars(6));
    }

    #[test]
    fn display() {
        assert_eq!(Money::from_cents(320).to_string(), "$3.20");
        assert_eq!(Money::from_cents(5).to_string(), "$0.05");
        assert_eq!(Money::from_cents(-120).to_string(), "-$1.20");
        assert_eq!(Money::ZERO.to_string(), "$0.00");
    }

    #[test]
    fn dollars_round_trip() {
        assert_eq!(Money::from_cents(123).as_dollars(), 1.23);
        assert_eq!(Money::from_dollars_f64(1.23).cents(), 123);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Money::from_cents(100);
        let b = Money::from_cents(250);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(b.is_positive());
        assert!(Money::ZERO.is_zero());
    }

    #[test]
    #[should_panic]
    fn multiplication_overflow_panics() {
        let _ = Money::from_cents(i64::MAX).times(2);
    }

    /// `from_dollars` must panic on overflow, not wrap: before the
    /// `checked_mul` fix, `i64::MAX / 2 * 100` wrapped silently in
    /// release builds and produced a garbage (negative) amount.
    #[test]
    #[should_panic(expected = "money overflow")]
    fn from_dollars_overflow_panics() {
        let _ = Money::from_dollars(i64::MAX / 2);
    }

    #[test]
    fn from_dollars_handles_extremes_within_range() {
        assert_eq!(
            Money::from_dollars(i64::MAX / 100).cents(),
            i64::MAX / 100 * 100
        );
        assert_eq!(
            Money::from_dollars(i64::MIN / 100).cents(),
            i64::MIN / 100 * 100
        );
        assert_eq!(Money::from_dollars(-3), Money::from_cents(-300));
    }

    #[test]
    #[should_panic]
    fn rejects_nan_dollars() {
        let _ = Money::from_dollars_f64(f64::NAN);
    }
}
