//! Mesh quality metrics: what the Saltzmann validation, the ALE
//! smoothing test and the hourglass ablation measure a mesh by.

use bookleaf_mesh::geometry::quad_area;
use bookleaf_mesh::{Mesh, NCORN};
use bookleaf_util::Vec2;

/// Aspect ratio of a quad: longest edge over shortest edge (≥ 1).
#[must_use]
pub fn aspect_ratio(c: &[Vec2; NCORN]) -> f64 {
    let l = [
        c[0].distance(c[1]),
        c[1].distance(c[2]),
        c[2].distance(c[3]),
        c[3].distance(c[0]),
    ];
    let lo = l.into_iter().fold(f64::INFINITY, f64::min);
    let hi = l.into_iter().fold(0.0f64, f64::max);
    if lo == 0.0 {
        f64::INFINITY
    } else {
        hi / lo
    }
}

/// Skewness: 1 − (min corner sine). 0 for a rectangle, → 1 as any corner
/// angle collapses to 0 or π.
#[must_use]
pub fn skewness(c: &[Vec2; NCORN]) -> f64 {
    let mut min_sine = f64::INFINITY;
    for i in 0..NCORN {
        let ip = (i + 1) % NCORN;
        let im = (i + 3) % NCORN;
        let a = (c[ip] - c[i]).normalized();
        let b = (c[im] - c[i]).normalized();
        min_sine = min_sine.min(a.cross(b).abs());
    }
    1.0 - min_sine.clamp(0.0, 1.0)
}

/// Summary of quality over a whole mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Smallest signed element area (negative means tangled).
    pub min_area: f64,
    /// Largest element area.
    pub max_area: f64,
    /// Worst (largest) aspect ratio.
    pub max_aspect: f64,
    /// Worst (largest) skewness.
    pub max_skew: f64,
    /// Number of elements with non-positive area.
    pub n_tangled: usize,
}

/// Compute a [`QualityReport`] for every element of `mesh`.
#[must_use]
pub fn assess(mesh: &Mesh) -> QualityReport {
    let mut rep = QualityReport {
        min_area: f64::INFINITY,
        max_area: f64::NEG_INFINITY,
        max_aspect: 0.0,
        max_skew: 0.0,
        n_tangled: 0,
    };
    for e in 0..mesh.n_elements() {
        let c = mesh.corners(e);
        let a = quad_area(&c);
        rep.min_area = rep.min_area.min(a);
        rep.max_area = rep.max_area.max(a);
        rep.max_aspect = rep.max_aspect.max(aspect_ratio(&c));
        rep.max_skew = rep.max_skew.max(skewness(&c));
        if a <= 0.0 {
            rep.n_tangled += 1;
        }
    }
    rep
}

/// Jacobian determinant of the bilinear map at a parametric point
/// `(ξ, η) ∈ [−1,1]²`. Positive everywhere iff the quad is convex and
/// counter-clockwise (untangled).
fn jacobian_at(c: &[Vec2; NCORN], xi: f64, eta: f64) -> f64 {
    // Bilinear shape function derivatives at (xi, eta):
    // N = ¼(1±ξ)(1±η) with corner signs (−,−), (+,−), (+,+), (−,+).
    let dn_dxi = [
        -0.25 * (1.0 - eta),
        0.25 * (1.0 - eta),
        0.25 * (1.0 + eta),
        -0.25 * (1.0 + eta),
    ];
    let dn_deta = [
        -0.25 * (1.0 - xi),
        -0.25 * (1.0 + xi),
        0.25 * (1.0 + xi),
        0.25 * (1.0 - xi),
    ];
    let mut dx_dxi = Vec2::ZERO;
    let mut dx_deta = Vec2::ZERO;
    for i in 0..NCORN {
        dx_dxi += c[i] * dn_dxi[i];
        dx_deta += c[i] * dn_deta[i];
    }
    dx_dxi.cross(dx_deta)
}

/// True when the element is untangled: the bilinear Jacobian is positive
/// at all four corners (sufficient for straight-sided quads).
#[must_use]
pub fn is_untangled(c: &[Vec2; NCORN]) -> bool {
    const PTS: [(f64, f64); 4] = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)];
    PTS.iter().all(|&(xi, eta)| jacobian_at(c, xi, eta) > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_mesh::{generate_rect, saltzmann_distort, RectSpec};
    use bookleaf_util::approx_eq;

    fn skewed_quad() -> [Vec2; 4] {
        [
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.3),
            Vec2::new(2.2, 1.4),
            Vec2::new(-0.3, 1.1),
        ]
    }

    #[test]
    fn square_is_perfect() {
        let c = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ];
        assert!(approx_eq(aspect_ratio(&c), 1.0, 1e-14));
        assert!(skewness(&c) < 1e-14);
    }

    #[test]
    fn rectangle_aspect() {
        let c = [
            Vec2::new(0.0, 0.0),
            Vec2::new(4.0, 0.0),
            Vec2::new(4.0, 1.0),
            Vec2::new(0.0, 1.0),
        ];
        assert!(approx_eq(aspect_ratio(&c), 4.0, 1e-14));
    }

    #[test]
    fn sheared_quad_is_skewed() {
        let c = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.9, 1.0),
            Vec2::new(0.9, 1.0),
        ];
        assert!(skewness(&c) > 0.2);
    }

    #[test]
    fn uniform_grid_report() {
        let m = generate_rect(&RectSpec::unit_square(8), |_| 0).unwrap();
        let rep = assess(&m);
        assert_eq!(rep.n_tangled, 0);
        assert!(approx_eq(rep.min_area, rep.max_area, 1e-12));
        assert!(approx_eq(rep.max_aspect, 1.0, 1e-12));
        assert!(rep.max_skew < 1e-12);
    }

    #[test]
    fn saltzmann_grid_is_worse_but_untangled() {
        let origin = Vec2::ZERO;
        let extent = Vec2::new(1.0, 0.1);
        let mut m = generate_rect(
            &RectSpec {
                nx: 100,
                ny: 10,
                origin,
                extent,
            },
            |_| 0,
        )
        .unwrap();
        let before = assess(&m);
        saltzmann_distort(&mut m, origin, extent);
        let after = assess(&m);
        assert_eq!(after.n_tangled, 0);
        assert!(after.max_skew > before.max_skew);
        assert!(after.min_area > 0.0);
        for e in 0..m.n_elements() {
            assert!(is_untangled(&m.corners(e)), "element {e} tangled");
        }
    }

    #[test]
    fn jacobian_positive_for_convex_ccw() {
        let square = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ];
        assert!(is_untangled(&square));
        assert!(is_untangled(&skewed_quad()));
    }

    #[test]
    fn jacobian_detects_tangled() {
        // Bow-tie: corners 2 and 3 swapped.
        let c = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(1.0, 1.0),
        ];
        assert!(!is_untangled(&c));
    }

    #[test]
    fn jacobian_integrates_to_area() {
        // ∫ J dξdη over [-1,1]² = area; 2x2 Gauss quadrature is exact for
        // bilinear J. Gauss points ±1/√3, weight 1.
        let c = skewed_quad();
        let gp = 1.0 / 3.0f64.sqrt();
        let mut integral = 0.0;
        for &xi in &[-gp, gp] {
            for &eta in &[-gp, gp] {
                integral += jacobian_at(&c, xi, eta);
            }
        }
        assert!(approx_eq(integral, quad_area(&c), 1e-12));
    }
}
