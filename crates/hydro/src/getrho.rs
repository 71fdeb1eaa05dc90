//! `getrho`: density from Lagrangian mass and current volume.
//!
//! In the Lagrangian frame element mass is constant, so mass conservation
//! (paper eq. 1) is enforced exactly by `ρ = m / V` after each geometry
//! update.

use bookleaf_util::{BookLeafError, Result};

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep, Pass};
use crate::Threading;

/// Update density over the owned range.
pub fn getrho(state: &mut HydroState, range: LocalRange, threading: Threading) -> Result<()> {
    let n = range.n_owned_el;
    let (mass, volume) = (&state.mass[..n], &state.volume[..n]);
    sweep(threading, Pass::All, (&mut state.rho[..n],), |e, (rho,)| {
        *rho = mass[e] / volume[e];
    });
    if let Some(e) = (0..n).find(|&e| !state.rho[e].is_finite() || state.rho[e] < 0.0) {
        return Err(BookLeafError::InvalidState {
            element: e,
            what: format!("density {} after getrho", state.rho[e]),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, Mesh, RectSpec};
    use bookleaf_util::{approx_eq, Vec2};

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 2.0, |_| 1.0, |_| Vec2::ZERO).unwrap();
        (mesh, st)
    }

    #[test]
    fn density_tracks_volume_change() {
        let (mesh, mut st) = setup(2);
        let range = LocalRange::whole(&mesh);
        // Halve every volume: density must double.
        for v in &mut st.volume {
            *v *= 0.5;
        }
        getrho(&mut st, range, Threading::Serial).unwrap();
        assert!(st.rho.iter().all(|&r| approx_eq(r, 4.0, 1e-12)));
    }

    #[test]
    fn serial_matches_rayon() {
        let (mesh, mut a) = setup(5);
        let range = LocalRange::whole(&mesh);
        for (i, v) in a.volume.iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * i as f64;
        }
        let mut b = a.clone();
        getrho(&mut a, range, Threading::Serial).unwrap();
        getrho(&mut b, range, Threading::Rayon).unwrap();
        assert_eq!(a.rho, b.rho);
    }

    #[test]
    fn non_finite_density_rejected() {
        let (mesh, mut st) = setup(2);
        let range = LocalRange::whole(&mesh);
        st.volume[1] = 0.0;
        assert!(getrho(&mut st, range, Threading::Serial).is_err());
    }
}
