//! Material table: region id → EoS.
//!
//! The `getpc` kernel evaluates the EoS for every element. Elements carry
//! a region (material) id; the table maps that id to an [`EosSpec`].

use bookleaf_util::{DeckError, Result};

use crate::spec::EosSpec;

/// Region-indexed EoS table.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialTable {
    specs: Vec<EosSpec>,
}

impl MaterialTable {
    /// Table with the given specs; region `i` uses `specs[i]`.
    #[must_use]
    pub fn new(specs: Vec<EosSpec>) -> Self {
        MaterialTable { specs }
    }

    /// Single-material table (regions all map to one EoS).
    #[must_use]
    pub fn single(spec: EosSpec) -> Self {
        MaterialTable { specs: vec![spec] }
    }

    /// EoS for region `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range — decks are validated at setup time
    /// via [`MaterialTable::check_regions`].
    #[inline]
    #[must_use]
    pub fn spec(&self, r: u32) -> &EosSpec {
        &self.specs[r as usize]
    }

    /// Validate that every region id in `regions` has an entry.
    pub fn check_regions(&self, regions: &[u32]) -> Result<()> {
        if let Some(&bad) = regions.iter().find(|&&r| r as usize >= self.specs.len()) {
            let message = format!(
                "region {bad} has no material (table has {} entries)",
                self.specs.len()
            );
            return Err(DeckError::Config { message }.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_util::approx_eq;

    #[test]
    fn two_material_table() {
        let t = MaterialTable::new(vec![EosSpec::ideal_gas(1.4), EosSpec::ideal_gas(1.2)]);
        assert!(t.check_regions(&[0, 1]).is_ok());
        assert!(t.check_regions(&[2]).is_err());
        let p0 = t.spec(0).pressure(1.0, 1.0);
        let p1 = t.spec(1).pressure(1.0, 1.0);
        assert!(approx_eq(p0, 0.4, 1e-14));
        assert!(approx_eq(p1, 0.2, 1e-14));
    }

    #[test]
    fn check_regions_catches_missing_material() {
        let t = MaterialTable::single(EosSpec::ideal_gas(1.4));
        assert!(t.check_regions(&[0, 0, 0]).is_ok());
        assert!(t.check_regions(&[0, 1]).is_err());
    }

    #[test]
    fn empty_table_reports() {
        let t = MaterialTable::new(vec![]);
        assert!(t.check_regions(&[0]).is_err());
    }
}
