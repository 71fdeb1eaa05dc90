//! Partition quality metrics.
//!
//! Used by tests (to bound the imbalance and edge cut of RCB) and by the
//! benchmark harness (`partition.edge_cut`, `partition.imbalance`).

use bookleaf_mesh::{Mesh, Neighbor};
use bookleaf_util::{BookLeafError, Result};

/// Quality summary of an element → part assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Elements per part.
    pub sizes: Vec<usize>,
    /// max(size) / ideal(size); 1.0 is perfect balance.
    pub imbalance: f64,
    /// Number of interior faces whose two elements live in different parts.
    pub edge_cut: usize,
    /// Per part: number of owned elements with at least one face neighbour
    /// in another part (the halo surface).
    pub boundary_elements: Vec<usize>,
}

/// Assess `owner` (element → part) against `mesh`.
pub fn assess_partition(mesh: &Mesh, owner: &[usize], n_parts: usize) -> Result<PartitionReport> {
    if owner.len() != mesh.n_elements() {
        return Err(BookLeafError::Partition(format!(
            "owner length {} != element count {}",
            owner.len(),
            mesh.n_elements()
        )));
    }
    let mut sizes = vec![0usize; n_parts];
    for &o in owner {
        if o >= n_parts {
            return Err(BookLeafError::Partition(format!(
                "part id {o} out of range"
            )));
        }
        sizes[o] += 1;
    }
    let ideal = mesh.n_elements() as f64 / n_parts as f64;
    let imbalance = sizes.iter().copied().max().unwrap_or(0) as f64 / ideal;

    let mut edge_cut = 0usize;
    let mut boundary_elements = vec![0usize; n_parts];
    for e in 0..mesh.n_elements() {
        let mut on_boundary = false;
        for nb in mesh.neighbors(e) {
            if let Neighbor::Element(e2) = nb {
                if owner[e2 as usize] != owner[e] {
                    edge_cut += 1;
                    on_boundary = true;
                }
            }
        }
        if on_boundary {
            boundary_elements[owner[e]] += 1;
        }
    }
    edge_cut /= 2; // each cut face counted from both sides

    Ok(PartitionReport {
        sizes,
        imbalance,
        edge_cut,
        boundary_elements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_mesh::{generate_rect, RectSpec};

    #[test]
    fn stripe_partition_metrics() {
        // 4x4 grid, left/right halves: cut = 4 faces.
        let m = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        let owner: Vec<usize> = (0..16).map(|e| usize::from(e % 4 >= 2)).collect();
        let rep = assess_partition(&m, &owner, 2).unwrap();
        assert_eq!(rep.sizes, vec![8, 8]);
        assert_eq!(rep.imbalance, 1.0);
        assert_eq!(rep.edge_cut, 4);
        assert_eq!(rep.boundary_elements, vec![4, 4]);
    }

    #[test]
    fn imbalance_detected() {
        let m = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
        let owner = vec![0, 0, 0, 1];
        let rep = assess_partition(&m, &owner, 2).unwrap();
        assert_eq!(rep.imbalance, 1.5);
    }

    #[test]
    fn bad_inputs_rejected() {
        let m = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
        assert!(assess_partition(&m, &[0, 1], 2).is_err());
        assert!(assess_partition(&m, &[0, 0, 0, 9], 2).is_err());
    }

    #[test]
    fn single_part_has_zero_cut() {
        let m = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        let owner = vec![0; 9];
        let rep = assess_partition(&m, &owner, 1).unwrap();
        assert_eq!(rep.edge_cut, 0);
        assert_eq!(rep.boundary_elements, vec![0]);
    }
}
