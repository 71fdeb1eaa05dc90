//! # bookleaf-partition
//!
//! Mesh decomposition for BookLeaf-rs.
//!
//! The paper: *"The mesh can be spatially decomposed and distributed
//! across processes within BookLeaf using a simple RCB strategy or a
//! hypergraph strategy via METIS."* Every run of this port decomposes
//! with the first:
//!
//! * [`rcb`] — Recursive Coordinate Bisection on element centroids, the
//!   reference default;
//! * [`metrics`] — partition quality measures (imbalance, edge cut,
//!   boundary elements) used by tests and the benchmark harness.
//!
//! Like the reference implementation, partitioning is **serial**: the
//! paper's scaling study §V-C calls out that the serial partitioner
//! starts to dominate at high process counts, and the paper-figure
//! cluster model reproduces that term.

pub mod metrics;
pub mod rcb;

use bookleaf_mesh::Mesh;
use bookleaf_util::Result;

/// Which decomposition strategy to use. RCB is the only one; the
/// parameter stays because downstream callers name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Recursive Coordinate Bisection (the BookLeaf default).
    #[default]
    Rcb,
}

/// Decompose `mesh` into `n_parts` parts, returning element → part.
///
/// Every part is non-empty for `n_parts <= n_elements`, and the result
/// is deterministic for a given input.
pub fn partition(mesh: &Mesh, n_parts: usize, strategy: Strategy) -> Result<Vec<usize>> {
    match strategy {
        Strategy::Rcb => rcb::partition_rcb(mesh, n_parts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_mesh::{generate_rect, RectSpec};

    #[test]
    fn partition_covers_all_elements() {
        let m = generate_rect(&RectSpec::unit_square(8), |_| 0).unwrap();
        let parts = partition(&m, 4, Strategy::Rcb).unwrap();
        assert_eq!(parts.len(), m.n_elements());
        for p in 0..4 {
            assert!(parts.contains(&p), "part {p} empty");
        }
    }
}
