//! Traced cross-check of the [`bookleaf_device::RawCost`] audit table.
//!
//! Each EOS-chain kernel's per-element arithmetic is mirrored here with a
//! counting scalar type: every `add`/`sub`/`mul`/`div`/`sqrt` bumps a flop
//! counter, and every distinct double loaded or stored bumps a traffic
//! counter (constants and loop-invariant scalars such as `dt` and the
//! material `gamma` are register-resident and free; a value updated in
//! place counts once). The mirror is validated *bitwise* against the real
//! kernel on a distorted mesh — if the mirror drifts from the kernel, the
//! equality assertions fail and the counts mean nothing — and its per-
//! element tallies are then asserted equal to the `RawCost` table.

use std::cell::Cell;
use std::ops::{Add, Div, Mul, Sub};

use bookleaf_device::RawCost;
use bookleaf_eos::{EosSpec, MaterialTable, CS2_FLOOR};
use bookleaf_hydro::getein::{getein, WorkVelocity};
use bookleaf_hydro::getgeom::getgeom;
use bookleaf_hydro::getpc::getpc;
use bookleaf_hydro::getrho::getrho;
use bookleaf_hydro::{eos_fused, EosStages, FusedEos, HydroState, LocalRange, Threading};
use bookleaf_mesh::{generate_rect, Mesh, RectSpec};
use bookleaf_util::{KernelId, Vec2};

thread_local! {
    static FLOPS: Cell<u64> = const { Cell::new(0) };
    static DOUBLES: Cell<u64> = const { Cell::new(0) };
}

fn reset_counters() {
    FLOPS.with(|c| c.set(0));
    DOUBLES.with(|c| c.set(0));
}

fn flops() -> u64 {
    FLOPS.with(Cell::get)
}

fn doubles() -> u64 {
    DOUBLES.with(Cell::get)
}

fn flop() {
    FLOPS.with(|c| c.set(c.get() + 1));
}

fn touch() {
    DOUBLES.with(|c| c.set(c.get() + 1));
}

/// Counting scalar: flops on arithmetic, traffic on load/store.
#[derive(Clone, Copy)]
struct T(f64);

impl T {
    /// Load one double from memory.
    fn load(x: f64) -> T {
        touch();
        T(x)
    }

    /// An immediate constant — no memory traffic.
    const fn lit(x: f64) -> T {
        T(x)
    }

    /// Store one double to memory.
    fn store(self) -> f64 {
        touch();
        self.0
    }

    fn sqrt(self) -> T {
        flop();
        T(self.0.sqrt())
    }

    // Sign and select operations are free in the audit convention.
    fn abs(self) -> T {
        T(self.0.abs())
    }

    fn max(self, o: T) -> T {
        T(self.0.max(o.0))
    }
}

impl Add for T {
    type Output = T;
    fn add(self, r: T) -> T {
        flop();
        T(self.0 + r.0)
    }
}

impl Sub for T {
    type Output = T;
    fn sub(self, r: T) -> T {
        flop();
        T(self.0 - r.0)
    }
}

impl Mul for T {
    type Output = T;
    fn mul(self, r: T) -> T {
        flop();
        T(self.0 * r.0)
    }
}

impl Div for T {
    type Output = T;
    fn div(self, r: T) -> T {
        flop();
        T(self.0 / r.0)
    }
}

/// Counting vector mirroring `Vec2`'s component expressions exactly.
#[derive(Clone, Copy)]
struct TV {
    x: T,
    y: T,
}

impl TV {
    fn load(v: Vec2) -> TV {
        TV {
            x: T::load(v.x),
            y: T::load(v.y),
        }
    }

    fn midpoint(self, o: TV) -> TV {
        TV {
            x: T::lit(0.5) * (self.x + o.x),
            y: T::lit(0.5) * (self.y + o.y),
        }
    }

    fn dot(self, o: TV) -> T {
        self.x * o.x + self.y * o.y
    }
}

impl Add for TV {
    type Output = TV;
    fn add(self, r: TV) -> TV {
        TV {
            x: self.x + r.x,
            y: self.y + r.y,
        }
    }
}

impl Sub for TV {
    type Output = TV;
    fn sub(self, r: TV) -> TV {
        TV {
            x: self.x - r.x,
            y: self.y - r.y,
        }
    }
}

impl Mul<T> for TV {
    type Output = TV;
    fn mul(self, s: T) -> TV {
        TV {
            x: self.x * s,
            y: self.y * s,
        }
    }
}

// --- geometry mirrors, expression-for-expression from bookleaf-mesh ---

fn quad_area_t(c: &[TV; 4]) -> T {
    T::lit(0.5)
        * ((c[0].x * c[1].y - c[1].x * c[0].y)
            + (c[1].x * c[2].y - c[2].x * c[1].y)
            + (c[2].x * c[3].y - c[3].x * c[2].y)
            + (c[3].x * c[0].y - c[0].x * c[3].y))
}

fn quad_centroid_t(c: &[TV; 4]) -> TV {
    (c[0] + c[1] + c[2] + c[3]) * T::lit(0.25)
}

fn corner_volumes_t(c: &[TV; 4]) -> [T; 4] {
    let ctr = quad_centroid_t(c);
    let mut out = [T::lit(0.0); 4];
    for i in 0..4 {
        let ip = (i + 1) % 4;
        let im = (i + 3) % 4;
        let m_next = c[i].midpoint(c[ip]);
        let m_prev = c[im].midpoint(c[i]);
        out[i] = quad_area_t(&[c[i], m_next, ctr, m_prev]);
    }
    out
}

fn char_length_t(c: &[TV; 4]) -> T {
    let area = quad_area_t(c).abs();
    let longest = [c[0] - c[1], c[1] - c[2], c[2] - c[3], c[3] - c[0]]
        .into_iter()
        .map(|d| d.dot(d))
        .fold(T::lit(0.0), T::max)
        .sqrt();
    if longest.0 == 0.0 {
        T::lit(0.0)
    } else {
        area / longest
    }
}

// --- per-element kernel mirrors ---

/// `getgeom` body: 8 corner doubles in, volume + 4 corner volumes +
/// length out.
fn geom_mirror(corners: &[Vec2; 4]) -> (f64, [f64; 4], f64) {
    let c = [
        TV::load(corners[0]),
        TV::load(corners[1]),
        TV::load(corners[2]),
        TV::load(corners[3]),
    ];
    let v = quad_area_t(&c);
    let cv = corner_volumes_t(&c);
    let l = char_length_t(&c);
    (v.store(), cv.map(T::store), l.store())
}

/// `getrho` body: one divide.
fn rho_mirror(mass: f64, volume: f64) -> f64 {
    (T::load(mass) / T::load(volume)).store()
}

/// `getein` body. `ein` is updated in place, so it is loaded with one
/// traffic count and written back for free.
fn ein_mirror(fx: &[f64; 4], fy: &[f64; 4], vel: &[Vec2; 4], mass: f64, dt: f64, ein: f64) -> f64 {
    let rx = fx.map(T::load);
    let ry = fy.map(T::load);
    let u = [
        TV::load(vel[0]),
        TV::load(vel[1]),
        TV::load(vel[2]),
        TV::load(vel[3]),
    ];
    let m = T::load(mass);
    let e0 = T::load(ein);
    let mut work = T::lit(0.0);
    for c in 0..4 {
        work = work + (rx[c] * u[c].x + ry[c] * u[c].y);
    }
    (e0 - T::lit(dt) * work / m).0
}

/// `getpc` body, ideal-gas form of `EosSpec::pressure_cs2`.
fn pc_mirror(gamma: f64, rho: f64, ein: f64) -> (f64, f64) {
    let r = T::load(rho);
    let e = T::load(ein);
    let p = (T::lit(gamma) - T::lit(1.0)) * r * e;
    let dp_drho = (T::lit(gamma) - T::lit(1.0)) * e;
    let dp_dein = (T::lit(gamma) - T::lit(1.0)) * r;
    let cs2 = dp_drho + p / (r * r) * dp_dein;
    (p.store(), cs2.max(T::lit(CS2_FLOOR)).store())
}

/// The fused sweep: the chain's arithmetic verbatim, but volume, mass,
/// rho and ein stay in registers between stages.
#[allow(clippy::too_many_arguments)]
fn fused_mirror(
    corners: &[Vec2; 4],
    mass: f64,
    fx: &[f64; 4],
    fy: &[f64; 4],
    vel: &[Vec2; 4],
    dt: f64,
    ein: f64,
    gamma: f64,
) -> (f64, [f64; 4], f64, f64, f64, f64, f64) {
    let c = [
        TV::load(corners[0]),
        TV::load(corners[1]),
        TV::load(corners[2]),
        TV::load(corners[3]),
    ];
    let v = quad_area_t(&c);
    let cv = corner_volumes_t(&c);
    let l = char_length_t(&c);

    let m = T::load(mass);
    let r = m / v; // volume still in a register

    let rx = fx.map(T::load);
    let ry = fy.map(T::load);
    let u = [
        TV::load(vel[0]),
        TV::load(vel[1]),
        TV::load(vel[2]),
        TV::load(vel[3]),
    ];
    let e0 = T::load(ein);
    let mut work = T::lit(0.0);
    for cn in 0..4 {
        work = work + (rx[cn] * u[cn].x + ry[cn] * u[cn].y);
    }
    let e1 = e0 - T::lit(dt) * work / m; // mass still in a register

    let p = (T::lit(gamma) - T::lit(1.0)) * r * e1;
    let dp_drho = (T::lit(gamma) - T::lit(1.0)) * e1;
    let dp_dein = (T::lit(gamma) - T::lit(1.0)) * r;
    let cs2 = dp_drho + p / (r * r) * dp_dein;

    (
        v.store(),
        cv.map(T::store),
        l.store(),
        r.store(),
        e1.0, // in place: already counted at load
        p.store(),
        cs2.max(T::lit(CS2_FLOOR)).store(),
    )
}

// --- harness ---

const GAMMA: f64 = 1.4;
const DT: f64 = 1.3e-3;

fn setup() -> (Mesh, MaterialTable, HydroState) {
    let mut mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
    // Distort the interior so no per-element expression degenerates.
    for (i, p) in mesh.nodes.iter_mut().enumerate() {
        p.x += 0.03 * (1.7 * i as f64).sin();
        p.y += 0.02 * (2.3 * i as f64).cos();
    }
    let mat = MaterialTable::single(EosSpec::ideal_gas(GAMMA));
    let nodes = mesh.nodes.clone();
    let mut st = HydroState::new(
        &mesh,
        &mat,
        |e| 1.0 + 0.05 * (e % 5) as f64,
        |e| 2.0 + 0.1 * (e % 3) as f64,
        |i| {
            Vec2::new(
                (4.0 * nodes[i].x).sin() * 0.3,
                (3.0 * nodes[i].y).cos() * 0.2,
            )
        },
    )
    .unwrap();
    for e in 0..st.n_elements() {
        st.cnforce_x[e] = [0.1, -0.2, 0.15, -0.05];
        st.cnforce_y[e] = [-0.1, 0.25, -0.2, 0.05];
    }
    (mesh, mat, st)
}

fn raw(kernel: KernelId) -> RawCost {
    RawCost::of(kernel).expect("kernel has a raw audit entry")
}

/// Assert the counters match the table for `n` elements of `kernel`.
fn assert_counts(kernel: KernelId, n: usize) {
    let cost = raw(kernel);
    assert_eq!(
        flops(),
        n as u64 * cost.flops as u64,
        "{kernel:?} flops over {n} elements"
    );
    assert_eq!(
        8 * doubles(),
        n as u64 * cost.bytes as u64,
        "{kernel:?} bytes over {n} elements"
    );
}

fn element_velocities(mesh: &Mesh, u: &[Vec2], e: usize) -> [Vec2; 4] {
    let nd = mesh.elnd[e];
    [
        u[nd[0] as usize],
        u[nd[1] as usize],
        u[nd[2] as usize],
        u[nd[3] as usize],
    ]
}

#[test]
fn traced_mirrors_match_kernels_and_raw_audit() {
    let (mesh, mat, st0) = setup();
    let n = st0.n_elements();
    let range = LocalRange::whole(&mesh);

    // Run the real chain one kernel at a time, snapshotting the state
    // each mirror needs *before* its kernel runs.
    let mut st = st0.clone();
    getgeom(&mesh, &mut st, range, Threading::Serial).unwrap();
    reset_counters();
    for e in 0..n {
        let (v, cv, l) = geom_mirror(&mesh.corners(e));
        assert_eq!(v, st.volume[e], "volume[{e}]");
        assert_eq!(cv, st.cnvol[e], "cnvol[{e}]");
        assert_eq!(l, st.length[e], "length[{e}]");
    }
    assert_counts(KernelId::GetGeom, n);

    let pre_rho = st.clone();
    getrho(&mut st, range, Threading::Serial).unwrap();
    reset_counters();
    for e in 0..n {
        let r = rho_mirror(pre_rho.mass[e], pre_rho.volume[e]);
        assert_eq!(r, st.rho[e], "rho[{e}]");
    }
    assert_counts(KernelId::GetRho, n);

    let pre_ein = st.clone();
    getein(
        &mesh,
        &mut st,
        range,
        DT,
        WorkVelocity::Current,
        Threading::Serial,
    );
    reset_counters();
    for e in 0..n {
        let vel = element_velocities(&mesh, &pre_ein.u, e);
        let ein = ein_mirror(
            &pre_ein.cnforce_x[e],
            &pre_ein.cnforce_y[e],
            &vel,
            pre_ein.mass[e],
            DT,
            pre_ein.ein[e],
        );
        assert_eq!(ein, st.ein[e], "ein[{e}]");
    }
    assert_counts(KernelId::GetEin, n);

    let pre_pc = st.clone();
    getpc(&mesh, &mat, &mut st, range, Threading::Serial);
    reset_counters();
    for e in 0..n {
        let (p, cs2) = pc_mirror(GAMMA, pre_pc.rho[e], pre_pc.ein[e]);
        assert_eq!(p, st.pressure[e], "pressure[{e}]");
        assert_eq!(cs2, st.cs2[e], "cs2[{e}]");
    }
    assert_counts(KernelId::GetPc, n);
}

#[test]
fn traced_fused_mirror_matches_kernel_and_raw_audit() {
    let (mesh, mat, st0) = setup();
    let n = st0.n_elements();

    let mut st = st0.clone();
    eos_fused(
        &mesh,
        &mat,
        &mut st,
        LocalRange::whole(&mesh),
        FusedEos {
            dt: DT,
            which: WorkVelocity::Current,
            ein_from: None,
            stages: EosStages::all(),
        },
        Threading::Serial,
    )
    .unwrap();

    reset_counters();
    for e in 0..n {
        let vel = element_velocities(&mesh, &st0.u, e);
        let (v, cv, l, r, ein, p, cs2) = fused_mirror(
            &mesh.corners(e),
            st0.mass[e],
            &st0.cnforce_x[e],
            &st0.cnforce_y[e],
            &vel,
            DT,
            st0.ein[e],
            GAMMA,
        );
        assert_eq!(v, st.volume[e], "volume[{e}]");
        assert_eq!(cv, st.cnvol[e], "cnvol[{e}]");
        assert_eq!(l, st.length[e], "length[{e}]");
        assert_eq!(r, st.rho[e], "rho[{e}]");
        assert_eq!(ein, st.ein[e], "ein[{e}]");
        assert_eq!(p, st.pressure[e], "pressure[{e}]");
        assert_eq!(cs2, st.cs2[e], "cs2[{e}]");
    }
    assert_counts(KernelId::EosFused, n);
}
