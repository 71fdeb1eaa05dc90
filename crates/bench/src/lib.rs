//! # bookleaf-bench
//!
//! Regenerates every table and figure of the BookLeaf paper:
//!
//! | binary | artefact |
//! |--------|----------|
//! | `table1` | Table I — experimental configuration |
//! | `table2` | Table II — per-kernel breakdown, Noh single node |
//! | `fig1`   | Fig 1 — overall Noh single-node comparison |
//! | `fig2`   | Fig 2a/2b — viscosity & acceleration kernels |
//! | `fig3`   | Fig 3 — Sod strong scaling, 8–64 nodes |
//! | `fig4`   | Fig 4a/4b — per-kernel strong scaling |
//! | `ablation_dope` | §IV-D dope-vector optimisation |
//! | `ablation_hourglass` | §III-A hourglass filter / sub-zonal pressures, Saltzmann piston |
//! | `ablation_scatter` | §IV-B acceleration scatter vs gather rewrite |
//!
//! Each binary prints (a) the *modeled* paper-platform numbers produced
//! by [`device`] (our substitution for the Cray XC50 / GPU testbeds)
//! next to the paper's published values, and, where meaningful, (b)
//! *measured* wall-clock numbers from real runs on the host machine.
//!
//! One more binary, `kernels`, is the interleaved A/B of the production
//! kernels against the kept reference shapes (`BENCH_kernels.json`).
//! Every other timing of this code is the harness's — `benchmark/`, the
//! measurement of record; its README's layer table says which metric
//! covers which crate.

use bookleaf_core::{decks, Deck, ExecutorKind, Simulation};
use bookleaf_util::{KernelId, TimerReport};

use device::WorkloadCount;

pub mod device;
pub mod schema;

/// The modeled workload standing in for the paper's (unpublished) Noh
/// single-node problem size: chosen so the Skylake flat-MPI roofline
/// lands near Table II's 76 s overall.
pub const NOH_MODEL_WORKLOAD: WorkloadCount = WorkloadCount {
    elements: 4_000_000,
    steps: 930,
};

/// The modeled workload for the Sod strong-scaling study (Fig 3):
/// sized so the per-core working set crosses the cache boundary between
/// 8 and 16 nodes, as the paper's super-linear regime requires.
pub const SOD_SCALING_WORKLOAD: WorkloadCount = WorkloadCount {
    elements: 6_000_000,
    steps: 12_000,
};

/// Table II's published values (seconds), row-major by configuration.
/// Columns: overall, viscosity, acceleration, getdt, getgeom, getforce,
/// getpc.
pub const PAPER_TABLE2: [(&str, [f64; 7]); 7] = [
    (
        "Skylake MPI",
        [76.068, 46.365, 6.663, 8.880, 3.396, 5.364, 1.314],
    ),
    (
        "Skylake Hybrid",
        [168.633, 52.913, 15.923, 53.086, 26.654, 4.925, 2.054],
    ),
    (
        "Broadwell MPI",
        [108.978, 70.116, 8.386, 11.936, 4.834, 7.348, 1.390],
    ),
    (
        "Broadwell Hybrid",
        [180.438, 76.387, 16.142, 45.494, 20.764, 6.501, 2.108],
    ),
    (
        "P100 OpenMP",
        [186.506, 75.873, 26.806, 12.684, 16.784, 40.853, 3.608],
    ),
    (
        "P100 CUDA",
        [261.183, 97.445, 21.995, 40.433, 39.448, 0.536, 17.922],
    ),
    (
        "V100 CUDA",
        [191.636, 44.981, 11.442, 44.401, 14.789, 0.651, 10.051],
    ),
];

/// The kernels Table II reports, in column order.
pub const TABLE2_KERNELS: [KernelId; 6] = [
    KernelId::GetQ,
    KernelId::GetAcc,
    KernelId::GetDt,
    KernelId::GetGeom,
    KernelId::GetForce,
    KernelId::GetPc,
];

/// Extract the Table II row `[overall, q, acc, dt, geom, force, pc]`
/// from a report.
///
/// A *measured* run spends its viscosity and force time in the one
/// fused sweep (`KernelId::ViscForce`; `GetQ` and `GetForce` read zero
/// there), which is reported in the viscosity column — the merged
/// "viscosity + force" figure. Modeled paper platforms ran the two
/// kernels separately and never charge the fused bucket.
#[must_use]
pub fn table2_row(rep: &TimerReport) -> [f64; 7] {
    let mut row = [0.0; 7];
    row[0] = rep.total_seconds();
    for (i, k) in TABLE2_KERNELS.into_iter().enumerate() {
        row[i + 1] = rep.seconds(k);
    }
    row[1] += rep.seconds(KernelId::ViscForce);
    row
}

/// Render one formatted Table II-style row.
#[must_use]
pub fn format_row(label: &str, row: &[f64; 7]) -> String {
    format!(
        "{label:<18} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        row[0], row[1], row[2], row[3], row[4], row[5], row[6]
    )
}

/// The header matching [`format_row`].
#[must_use]
pub fn table2_header() -> String {
    format!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Configuration", "Overall", "Viscosity", "Accel", "getdt", "getgeom", "getforce", "getpc"
    )
}

/// Run a *measured* Noh problem on the host under `executor`, returning
/// the per-kernel report and wall seconds. `n` is the mesh edge size.
pub fn measured_noh(n: usize, t_final: f64, executor: ExecutorKind) -> (TimerReport, f64) {
    measured(decks::noh(n), t_final, executor)
}

/// Run a measured Sod problem, used by the scaling figures.
pub fn measured_sod(nx: usize, t_final: f64, executor: ExecutorKind) -> (TimerReport, f64) {
    measured(decks::sod(nx, nx_over_8_at_least_2(nx)), t_final, executor)
}

/// One builder path for every executor — serial, flat MPI and hybrid
/// all run through `Simulation`.
fn measured(deck: Deck, t_final: f64, executor: ExecutorKind) -> (TimerReport, f64) {
    let report = Simulation::builder()
        .deck(deck)
        .final_time(t_final)
        .executor(executor)
        .build()
        .expect("valid deck")
        .run()
        .expect("measured run");
    (report.timers, report.wall_seconds)
}

/// Tube height used by [`measured_sod`]: an eighth of the length, at
/// least two elements, keeping the quasi-1-D geometry of the deck.
fn nx_over_8_at_least_2(nx: usize) -> usize {
    (nx / 8).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_are_consistent() {
        // Every published row's kernel columns must not exceed overall.
        for (label, row) in PAPER_TABLE2 {
            let sum: f64 = row[1..].iter().sum();
            assert!(
                sum <= row[0] * 1.01,
                "{label}: kernels {sum} exceed overall {}",
                row[0]
            );
        }
    }

    #[test]
    fn row_extraction_orders_kernels() {
        let mut rep = TimerReport::zero();
        rep.set_seconds(KernelId::GetQ, 5.0);
        rep.set_seconds(KernelId::GetPc, 1.0);
        let row = table2_row(&rep);
        assert_eq!(row[1], 5.0);
        assert_eq!(row[6], 1.0);
        assert_eq!(row[0], 6.0);
    }

    #[test]
    fn fused_sweep_lands_in_the_viscosity_column() {
        let mut rep = TimerReport::zero();
        rep.set_seconds(KernelId::ViscForce, 4.0);
        rep.set_seconds(KernelId::GetAcc, 1.0);
        let row = table2_row(&rep);
        assert_eq!(row[1], 4.0);
        assert_eq!(row[5], 0.0);
        assert_eq!(row[0], 5.0);
    }
}
