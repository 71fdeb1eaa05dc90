//! Index sub-selection for split (interior/boundary) kernel sweeps.
//!
//! The overlapped halo exchange runs each hot kernel twice per phase:
//! once over the *interior* entities while the phase's messages are in
//! flight, once over the *boundary* entities after the exchange
//! completes. Every output is per entity and nothing is reduced across
//! entities, so the two passes together are bitwise the unsplit sweep
//! however the entities are divided between them.
//!
//! * The **interior** pass is a [`Subset`] sweep: it iterates the full
//!   index range with the same parallel split tree as an unsplit sweep
//!   and skips the entities outside the subset with one membership test
//!   each. The interior is nearly the whole range, so this costs what
//!   the unsplit sweep costs.
//! * The **boundary** pass is *list-driven* (`viscforce_listed`,
//!   `getacc_listed`): it visits the sorted ids of the boundary
//!   entities and nothing else, so a distributed step pays for its halo,
//!   not for a second trip over the mesh.
//!
//! The ALE remap's pre-post sweeps select both sides of their masks
//! through [`Subset::Mask`].

/// Which indices of a kernel's range to process.
#[derive(Debug, Clone, Copy)]
pub enum Subset<'a> {
    /// Every index (the unsplit sweep).
    All,
    /// Only indices `i` with `mask[i] == keep`. With a boundary mask,
    /// `keep == false` selects the interior sweep.
    Mask {
        /// Per-index classification (at least as long as the range).
        mask: &'a [bool],
        /// Which side of the classification to process.
        keep: bool,
    },
}

impl Subset<'_> {
    /// Does this subset include index `i`?
    #[inline]
    #[must_use]
    pub fn contains(self, i: usize) -> bool {
        match self {
            Subset::All => true,
            Subset::Mask { mask, keep } => mask[i] == keep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_everything() {
        assert!(Subset::All.contains(0));
        assert!(Subset::All.contains(1_000_000));
    }

    #[test]
    fn mask_sides_partition_the_range() {
        let mask = [true, false, true, false];
        let interior = Subset::Mask {
            mask: &mask,
            keep: false,
        };
        let boundary = Subset::Mask {
            mask: &mask,
            keep: true,
        };
        for i in 0..mask.len() {
            assert_ne!(interior.contains(i), boundary.contains(i));
        }
        assert!(boundary.contains(0));
        assert!(interior.contains(1));
    }
}
