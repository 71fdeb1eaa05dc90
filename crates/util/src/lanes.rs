//! `N` independent `f64` values that go through the same arithmetic.
//!
//! A per-element kernel whose dependency chain is long (a divide feeding
//! a divide feeding a square root) leaves the core idle unless a second
//! element's chain runs beside it. [`Lanes<N>`] is how a kernel body is
//! written once for `N` elements at a time: lane `l` of every value is
//! element `l`'s scalar expression, evaluated with the scalar operators
//! in the scalar order, so a lane's bits never depend on `N` or on what
//! the other lanes hold — `Lanes<1>` *is* the scalar code. Nothing here
//! reduces across lanes, and nothing names a vector instruction: the
//! operators are `[f64; N]` loops the compiler is free to pair up.

use std::array::from_fn;
use std::ops::{Add, Div, Mul, Sub};

/// `N` lanes of `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<const N: usize>(pub [f64; N]);

impl<const N: usize> Lanes<N> {
    /// Every lane holding `v`.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: f64) -> Self {
        Lanes([v; N])
    }

    /// Lane `l` holding `f(l)`.
    #[inline(always)]
    #[must_use]
    pub fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Lanes(from_fn(f))
    }

    /// `f` of each lane.
    #[inline(always)]
    #[must_use]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Lanes(self.0.map(f))
    }

    /// `f` of each lane of `self` and the same lane of `other`.
    #[inline(always)]
    #[must_use]
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Lanes(from_fn(|l| f(self.0[l], other.0[l])))
    }
}

macro_rules! lanewise {
    ($Op:ident $op:ident) => {
        impl<const N: usize> $Op for Lanes<N> {
            type Output = Lanes<N>;
            #[inline(always)]
            fn $op(self, rhs: Lanes<N>) -> Lanes<N> {
                self.zip(rhs, $Op::$op)
            }
        }
    };
}
lanewise!(Add add);
lanewise!(Sub sub);
lanewise!(Mul mul);
lanewise!(Div div);

impl<const N: usize> Mul<Lanes<N>> for f64 {
    type Output = Lanes<N>;
    #[inline(always)]
    fn mul(self, rhs: Lanes<N>) -> Lanes<N> {
        rhs.map(|v| self * v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operator_is_the_scalar_operator_lane_by_lane() {
        let a = Lanes([1.5, -0.0, f64::NAN, 1e308]);
        let b = Lanes([-3.0, 0.0, 2.0, 1e308]);
        for l in 0..4 {
            let (x, y) = (a.0[l], b.0[l]);
            assert_eq!((a + b).0[l].to_bits(), (x + y).to_bits());
            assert_eq!((a - b).0[l].to_bits(), (x - y).to_bits());
            assert_eq!((a * b).0[l].to_bits(), (x * y).to_bits());
            assert_eq!((a / b).0[l].to_bits(), (x / y).to_bits());
            assert_eq!((0.5 * a).0[l].to_bits(), (0.5 * x).to_bits());
            assert_eq!(a.map(f64::sqrt).0[l].to_bits(), x.sqrt().to_bits());
            assert_eq!(a.zip(b, f64::max).0[l].to_bits(), x.max(y).to_bits());
        }
    }

    #[test]
    fn splat_and_from_fn_fill_every_lane() {
        assert_eq!(Lanes::<3>::splat(2.0), Lanes([2.0; 3]));
        assert_eq!(Lanes::<3>::from_fn(|l| l as f64), Lanes([0.0, 1.0, 2.0]));
    }
}
