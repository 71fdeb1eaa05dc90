//! Plain 2-D vector used for node positions, velocities and forces.
//!
//! BookLeaf is a 2-D code; all geometry lives in the plane. `Vec2` is a
//! `Copy` value type with the usual component-wise arithmetic plus the two
//! products that matter for quadrilateral geometry: the dot product and the
//! scalar ("z of the") cross product.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-D vector of `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Construct from components.
    #[inline]
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    #[must_use]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Scalar cross product (the z component of the 3-D cross product).
    ///
    /// Twice the signed area of the triangle (origin, self, other).
    #[inline]
    #[must_use]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    #[must_use]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the `sqrt` when comparing lengths).
    #[inline]
    #[must_use]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector in the same direction. Returns `ZERO` for the zero vector.
    #[inline]
    #[must_use]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n == 0.0 {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// Component-wise midpoint of two points.
    #[inline]
    #[must_use]
    pub fn midpoint(self, other: Vec2) -> Vec2 {
        Vec2::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Distance between two points.
    #[inline]
    #[must_use]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, v: Vec2) -> Vec2 {
        v * self
    }
}

impl MulAssign<f64> for Vec2 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        self.x *= s;
        self.y *= s;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl DivAssign<f64> for Vec2 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        self.x /= s;
        self.y /= s;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(-3.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn dot_and_cross_orthogonality() {
        let a = Vec2::new(3.0, 4.0);
        let left_normal = Vec2::new(-a.y, a.x);
        assert_eq!(a.dot(left_normal), 0.0);
        assert_eq!(a.cross(a), 0.0);
        // cross with the left normal equals norm squared
        assert_eq!(a.cross(left_normal), a.norm2());
    }

    #[test]
    fn norm_345() {
        assert_eq!(Vec2::new(3.0, 4.0).norm(), 5.0);
        assert_eq!(Vec2::new(3.0, 4.0).norm2(), 25.0);
    }

    #[test]
    fn normalized_unit_and_zero() {
        let a = Vec2::new(0.0, -7.0).normalized();
        assert!((a.norm() - 1.0).abs() < 1e-15);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn midpoint_and_distance() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 2.0);
        assert_eq!(a.midpoint(b), Vec2::new(1.0, 1.0));
        assert!((a.distance(b) - 8.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn sum_iterator() {
        let total: Vec2 = (0..4).map(|i| Vec2::new(i as f64, 1.0)).sum();
        assert_eq!(total, Vec2::new(6.0, 4.0));
    }

    #[test]
    fn scalar_mul_commutes() {
        let v = Vec2::new(1.5, -2.5);
        assert_eq!(2.0 * v, v * 2.0);
    }
}
