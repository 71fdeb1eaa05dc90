//! Quadrilateral geometry kernels.
//!
//! BookLeaf's spatial discretisation uses explicitly integrated bilinear
//! iso-parametric finite elements on straight-sided quads. Everything the
//! hydro kernels need reduces to a handful of closed forms on the four
//! corner positions:
//!
//! * the signed **area** (shoelace formula) — in 2-D planar geometry the
//!   element "volume";
//! * the **corner force weights** `∂A/∂xᵢ` — the gradient of the element
//!   area with respect to each corner position, which is exactly the
//!   compatible-discretisation corner force per unit pressure
//!   (Barlow 2008);
//! * **corner volumes** — the four sub-zonal areas obtained by joining
//!   each corner to the two adjacent edge midpoints and the centroid
//!   (Caramana–Shashkov sub-zonal pressures); they sum to the element
//!   area exactly;
//! * the **characteristic length** used by the CFL condition.
//!
//! The area, which the fused EOS chain sweeps two quads at a time, is
//! written once over `N` quads ([`CornerLanes`], [`Lanes`]): lane `l` of
//! every intermediate is quad `l`'s scalar expression, so [`quad_area`]
//! is the `N = 1` case and a quad's bits do not depend on its
//! lane-mates. Corner volumes and the characteristic length are read
//! one element at a time, where `viscforce` and `getdt` compute them.

use bookleaf_util::{Lanes, Vec2};

use crate::NCORN;

/// One vector per corner of `N` quads, component by component:
/// `x[c].0[l]` is the x component at corner `c` of quad `l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerLanes<const N: usize> {
    /// x components, corner by corner.
    pub x: [Lanes<N>; NCORN],
    /// y components, corner by corner.
    pub y: [Lanes<N>; NCORN],
}

impl<const N: usize> CornerLanes<N> {
    /// Lane `l` gathers `nodal[elnd[l][c]]` for its four corners `c`:
    /// the corner positions (or velocities) of `N` elements.
    #[inline(always)]
    #[must_use]
    pub fn gather(nodal: &[Vec2], elnd: &[[u32; NCORN]; N]) -> Self {
        let at = |l: usize, c: usize| nodal[elnd[l][c] as usize];
        CornerLanes {
            x: std::array::from_fn(|c| Lanes::from_fn(|l| at(l, c).x)),
            y: std::array::from_fn(|c| Lanes::from_fn(|l| at(l, c).y)),
        }
    }
}

impl From<&[Vec2; NCORN]> for CornerLanes<1> {
    #[inline(always)]
    fn from(c: &[Vec2; NCORN]) -> Self {
        CornerLanes {
            x: c.map(|p| Lanes([p.x])),
            y: c.map(|p| Lanes([p.y])),
        }
    }
}

/// [`quad_area`] of `N` quads.
#[inline(always)]
#[must_use]
pub fn quad_area_lanes<const N: usize>(c: &CornerLanes<N>) -> Lanes<N> {
    let (x, y) = (&c.x, &c.y);
    0.5 * ((x[0] * y[1] - x[1] * y[0])
        + (x[1] * y[2] - x[2] * y[1])
        + (x[2] * y[3] - x[3] * y[2])
        + (x[3] * y[0] - x[0] * y[3]))
}

/// Signed area of a quadrilateral from its CCW corner list (shoelace).
#[inline]
#[must_use]
pub fn quad_area(c: &[Vec2; NCORN]) -> f64 {
    quad_area_lanes(&c.into()).0[0]
}

/// Centroid (arithmetic mean of corners — the bilinear map centre).
#[inline]
#[must_use]
pub fn quad_centroid(c: &[Vec2; NCORN]) -> Vec2 {
    (c[0] + c[1] + c[2] + c[3]) * 0.25
}

/// Gradient of the quad area with respect to corner `i`:
/// `∂A/∂xᵢ = ½(y_{i+1} − y_{i−1})`, `∂A/∂yᵢ = ½(x_{i−1} − x_{i+1})`.
///
/// Multiplied by a cell pressure this is the corner force of the
/// compatible discretisation; dotted with a corner velocity it gives the
/// exact rate of volume change.
#[inline]
#[must_use]
pub fn area_gradient(c: &[Vec2; NCORN]) -> [Vec2; NCORN] {
    let mut g = [Vec2::ZERO; NCORN];
    for i in 0..NCORN {
        let ip = (i + 1) % NCORN;
        let im = (i + 3) % NCORN;
        g[i] = Vec2::new(0.5 * (c[ip].y - c[im].y), 0.5 * (c[im].x - c[ip].x));
    }
    g
}

/// The four sub-zonal ("corner") areas of a quad.
///
/// Corner `i`'s sub-zone is the quad (cornerᵢ, midpoint(i,i+1), centroid,
/// midpoint(i−1,i)). For straight-sided quads the four sub-zones tile the
/// element exactly.
#[inline]
#[must_use]
pub fn corner_volumes(c: &[Vec2; NCORN]) -> [f64; NCORN] {
    let centre = quad_centroid(c);
    std::array::from_fn(|i| {
        let (next, prev) = (c[(i + 1) % NCORN], c[(i + 3) % NCORN]);
        quad_area(&[c[i], c[i].midpoint(next), centre, prev.midpoint(c[i])])
    })
}

/// Characteristic length for the CFL condition: element area divided by
/// the longest edge. For a square of side `h` this gives `h`; for
/// squashed or distorted elements it shrinks conservatively, which is the
/// behaviour the time-step control needs. A degenerate quad (longest
/// edge zero) gets length zero, by a select on the finished quotient.
///
/// The longest edge is found among the *squared* lengths and rooted
/// once: `sqrt` is monotone and correctly rounded, so
/// `sqrt(max(aᵢ)) == max(sqrt(aᵢ))` bit for bit — one `sqrt` per
/// element instead of four (NaN edges are skipped by the fold either
/// way).
#[inline]
#[must_use]
pub fn char_length(c: &[Vec2; NCORN]) -> f64 {
    let longest = (0..NCORN)
        .map(|i| (c[i] - c[(i + 1) % NCORN]).norm2())
        .fold(0.0, f64::max)
        .sqrt();
    let length = quad_area(c).abs() / longest;
    if longest == 0.0 {
        0.0
    } else {
        length
    }
}

/// Velocity divergence integrated over the element, divided by the area:
/// the discrete ∇·u used by the viscosity limiter and the divergence
/// time-step control. `u` holds the four corner velocities.
#[inline]
#[must_use]
pub fn velocity_divergence(c: &[Vec2; NCORN], u: &[Vec2; NCORN]) -> f64 {
    // dA/dt = Σᵢ ∂A/∂xᵢ · uᵢ ; ∇·u = (dA/dt)/A.
    let g = area_gradient(c);
    let area = quad_area(c);
    if area == 0.0 {
        return 0.0;
    }
    let mut da = 0.0;
    for i in 0..NCORN {
        da += g[i].dot(u[i]);
    }
    da / area
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_util::approx_eq;

    fn unit_square() -> [Vec2; 4] {
        [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ]
    }

    fn skewed_quad() -> [Vec2; 4] {
        [
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.3),
            Vec2::new(2.2, 1.4),
            Vec2::new(-0.3, 1.1),
        ]
    }

    /// Area, corner volumes and characteristic length in their textbook
    /// `Vec2` forms — the independent anchor the area's lanes and the
    /// scalar functions are held to bit for bit.
    fn textbook(c: &[Vec2; 4]) -> (f64, [f64; 4], f64) {
        let area = |c: &[Vec2; 4]| {
            0.5 * ((c[0].x * c[1].y - c[1].x * c[0].y)
                + (c[1].x * c[2].y - c[2].x * c[1].y)
                + (c[2].x * c[3].y - c[3].x * c[2].y)
                + (c[3].x * c[0].y - c[0].x * c[3].y))
        };
        let ctr = (c[0] + c[1] + c[2] + c[3]) * 0.25;
        let corner = std::array::from_fn(|i| {
            let (next, prev) = (c[(i + 1) % 4], c[(i + 3) % 4]);
            area(&[c[i], c[i].midpoint(next), ctr, prev.midpoint(c[i])])
        });
        let longest = [c[0] - c[1], c[1] - c[2], c[2] - c[3], c[3] - c[0]]
            .into_iter()
            .map(Vec2::norm2)
            .fold(0.0f64, f64::max)
            .sqrt();
        let length = if longest == 0.0 {
            0.0
        } else {
            area(c).abs() / longest
        };
        (area(c), corner, length)
    }

    /// Random quads (convex or not), then the degenerate ones: all four
    /// corners on one point (the `longest == 0` select), clockwise,
    /// collinear, a repeated corner, a NaN and an infinite coordinate.
    fn quads() -> Vec<[Vec2; 4]> {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut quads: Vec<[Vec2; 4]> = (0..200)
            .map(|_| std::array::from_fn(|_| Vec2::new(4.0 * unit() - 2.0, 4.0 * unit() - 2.0)))
            .collect();
        let point = Vec2::new(0.3, -1.7);
        let mut clockwise = unit_square();
        clockwise.swap(1, 3);
        let mut nan = skewed_quad();
        nan[2].y = f64::NAN;
        let mut infinite = skewed_quad();
        infinite[0].x = f64::INFINITY;
        quads.extend([
            [point; 4],
            [Vec2::ZERO; 4],
            clockwise,
            [0.0, 1.0, 2.0, 3.0].map(|t| Vec2::new(t, 2.0 * t)),
            [point, point, Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)],
            nan,
            infinite,
            skewed_quad(),
        ]);
        quads
    }

    #[test]
    fn every_lane_is_the_textbook_scalar_form_bit_for_bit() {
        /// Equal bits, or both NaN (a NaN's payload is not arithmetic).
        fn same(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }
        fn check<const N: usize>(quads: &[[Vec2; 4]]) {
            let nodal: Vec<Vec2> = quads.iter().flatten().copied().collect();
            // Every quad in every lane, beside every kind of neighbour.
            for first in 0..quads.len() {
                let lane_quad = |l: usize| (first + l * 7) % quads.len();
                let elnd: [[u32; 4]; N] =
                    std::array::from_fn(|l| std::array::from_fn(|c| (4 * lane_quad(l) + c) as u32));
                let area = quad_area_lanes(&CornerLanes::<N>::gather(&nodal, &elnd));
                for l in 0..N {
                    let what = format!("quad {} in lane {l} of {N}", lane_quad(l));
                    let (want_area, ..) = textbook(&quads[lane_quad(l)]);
                    assert!(same(area.0[l], want_area), "{what}: area");
                }
            }
        }
        let quads = quads();
        check::<1>(&quads);
        check::<2>(&quads);
        check::<4>(&quads);
        for c in &quads {
            let (area, corner, length) = textbook(c);
            assert!(same(quad_area(c), area));
            assert!(same(char_length(c), length));
            let got = corner_volumes(c);
            assert!((0..4).all(|i| same(got[i], corner[i])));
        }
        // The select, not a 0/0: a quad collapsed to a point has length 0.
        assert_eq!(char_length(&[Vec2::new(0.3, -1.7); 4]), 0.0);
    }

    #[test]
    fn unit_square_area_and_centroid() {
        let c = unit_square();
        assert_eq!(quad_area(&c), 1.0);
        assert_eq!(quad_centroid(&c), Vec2::new(0.5, 0.5));
    }

    #[test]
    fn clockwise_quad_has_negative_area() {
        let mut c = unit_square();
        c.swap(1, 3);
        assert_eq!(quad_area(&c), -1.0);
    }

    #[test]
    fn area_gradient_is_exact_derivative() {
        // Finite-difference check of ∂A/∂xᵢ on a skewed quad.
        let c = skewed_quad();
        let g = area_gradient(&c);
        let h = 1e-7;
        for i in 0..4 {
            let mut cp = c;
            cp[i].x += h;
            let d_dx = (quad_area(&cp) - quad_area(&c)) / h;
            let mut cp = c;
            cp[i].y += h;
            let d_dy = (quad_area(&cp) - quad_area(&c)) / h;
            assert!(
                approx_eq(g[i].x, d_dx, 1e-5),
                "corner {i} x: {} vs {}",
                g[i].x,
                d_dx
            );
            assert!(
                approx_eq(g[i].y, d_dy, 1e-5),
                "corner {i} y: {} vs {}",
                g[i].y,
                d_dy
            );
        }
    }

    #[test]
    fn area_gradient_sums_to_zero() {
        // Translating the quad does not change its area.
        let g = area_gradient(&skewed_quad());
        let s: Vec2 = g.into_iter().sum();
        assert!(s.norm() < 1e-15);
    }

    #[test]
    fn corner_volumes_tile_element() {
        for c in [unit_square(), skewed_quad()] {
            let cv = corner_volumes(&c);
            let total: f64 = cv.iter().sum();
            assert!(
                approx_eq(total, quad_area(&c), 1e-12),
                "{total} vs {}",
                quad_area(&c)
            );
            assert!(cv.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn unit_square_corner_volumes_equal() {
        let cv = corner_volumes(&unit_square());
        for v in cv {
            assert!(approx_eq(v, 0.25, 1e-14));
        }
    }

    #[test]
    fn char_length_of_square_is_side() {
        assert!(approx_eq(char_length(&unit_square()), 1.0, 1e-14));
        // A 2x1 rectangle: area 2, longest edge 2 -> length 1 (the short side).
        let rect = [
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(0.0, 1.0),
        ];
        assert!(approx_eq(char_length(&rect), 1.0, 1e-14));
    }

    #[test]
    fn divergence_of_uniform_expansion() {
        // u = x  =>  ∇·u = 2 in 2-D.
        let c = skewed_quad();
        let u = [c[0], c[1], c[2], c[3]];
        assert!(approx_eq(velocity_divergence(&c, &u), 2.0, 1e-12));
    }

    #[test]
    fn divergence_of_rigid_motion_is_zero() {
        let c = skewed_quad();
        // Translation.
        let u = [Vec2::new(3.0, -1.0); 4];
        assert!(velocity_divergence(&c, &u).abs() < 1e-14);
        // Rotation about origin: u = ω × x = ω(-y, x).
        let rot = c.map(|x| Vec2::new(-x.y, x.x));
        assert!(velocity_divergence(&c, &rot).abs() < 1e-13);
    }
}
