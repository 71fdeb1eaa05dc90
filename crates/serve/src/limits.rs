//! Admission control: typed resource limits enforced at deck-validate
//! time, with line-anchored rejections.
//!
//! A deck is admitted only if it parses, validates, *and* fits the
//! server's [`ResourceLimits`]. Limit violations point at the offending
//! line of the submitted text — the same [`DeckError::Text`] shape the
//! parser itself uses — so a tenant's tooling can jump straight to the
//! `nx = 4096` that was over budget.

use bookleaf_core::input::key_line;
use bookleaf_core::{InputDeck, ProblemSpec};
use bookleaf_util::DeckError;

/// Per-request resource ceilings the server enforces at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Largest mesh, in elements, a deck may request.
    pub max_mesh_cells: usize,
    /// Largest step budget a deck may request.
    pub max_steps: usize,
    /// Largest deck text, in bytes, accepted on the wire.
    pub max_deck_bytes: usize,
    /// Most simultaneously running requests per tenant.
    pub max_inflight_per_tenant: usize,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            max_mesh_cells: 262_144,
            max_steps: 100_000,
            max_deck_bytes: 65_536,
            max_inflight_per_tenant: 4,
        }
    }
}

/// Parse and validate deck `text` against `limits`.
///
/// # Errors
///
/// * [`DeckError::Config`] when the raw text itself exceeds
///   `max_deck_bytes` (there is no line to anchor to);
/// * the parser's own line-anchored [`DeckError::Text`] for syntax and
///   semantic deck errors;
/// * [`DeckError::Text`] anchored at the offending assignment when the
///   mesh (at its largest dimension) or step budget exceeds the limits;
///   the parser says which line that is ([`key_line`]).
pub fn admit_deck(text: &str, limits: &ResourceLimits) -> Result<InputDeck, DeckError> {
    if text.len() > limits.max_deck_bytes {
        return Err(DeckError::Config {
            message: format!(
                "deck text of {} bytes exceeds the {}-byte admission limit",
                text.len(),
                limits.max_deck_bytes
            ),
        });
    }
    let input: InputDeck = text.parse()?;
    let cells = input.problem.cells();
    if cells > limits.max_mesh_cells {
        // At the largest dimension: the one to shrink.
        let larger = |nx, ny| if ny > nx { "ny" } else { "nx" };
        let (section, key) = match &input.problem {
            ProblemSpec::Sod { nx, ny } | ProblemSpec::Saltzmann { nx, ny } => ("", larger(nx, ny)),
            ProblemSpec::Generic(g) => ("mesh", larger(&g.mesh.nx, &g.mesh.ny)),
            _ => ("", "n"),
        };
        return Err(DeckError::Text {
            line: key_line(text, section, key).unwrap_or(1),
            message: format!(
                "mesh of {cells} elements exceeds the {}-element admission limit",
                limits.max_mesh_cells
            ),
        });
    }
    if input.max_steps > limits.max_steps {
        return Err(DeckError::Text {
            line: key_line(text, "control", "max_steps").unwrap_or(1),
            message: format!(
                "max_steps = {} exceeds the {}-step admission limit",
                input.max_steps, limits.max_steps
            ),
        });
    }
    Ok(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_standard_decks_are_admitted() {
        let input = admit_deck("problem = noh\nn = 8\n", &ResourceLimits::default()).unwrap();
        assert_eq!(input.problem, ProblemSpec::Noh { n: 8 });
    }

    #[test]
    fn oversized_mesh_is_rejected_at_its_line() {
        let limits = ResourceLimits {
            max_mesh_cells: 100,
            ..ResourceLimits::default()
        };
        let err = admit_deck("problem = noh\n# padding\nn = 64\n", &limits).unwrap_err();
        let DeckError::Text { line, message } = err else {
            panic!("want line-anchored rejection, got {err:?}");
        };
        assert_eq!(line, 3, "must anchor at the `n = 64` assignment");
        assert!(message.contains("4096 elements"), "{message}");
    }

    #[test]
    fn generic_deck_mesh_budget_is_rejected_at_its_line() {
        let limits = ResourceLimits {
            max_mesh_cells: 100,
            ..ResourceLimits::default()
        };
        let text = "\
[mesh]
nx = 64
ny = 64

[material.gas]
eos = ideal_gas
gamma = 1.4

[region.all]
shape = rect
x0 = 0
y0 = 0
x1 = 1
y1 = 1
material = gas
rho = 1
ein = 1

[control]
final_time = 0.1
";
        let err = admit_deck(text, &limits).unwrap_err();
        let DeckError::Text { line, message } = err else {
            panic!("want line-anchored rejection, got {err:?}");
        };
        assert_eq!(line, 2, "must anchor at the [mesh] `nx = 64` assignment");
        assert!(message.contains("4096 elements"), "{message}");
        // A fitting generic deck is admitted.
        let ok = admit_deck(text, &ResourceLimits::default()).unwrap();
        assert_eq!(ok.problem.cells(), 4096);
    }

    #[test]
    fn oversized_mesh_is_rejected_at_its_largest_dimension() {
        let limits = ResourceLimits {
            max_mesh_cells: 100,
            ..ResourceLimits::default()
        };
        let generic = "\
[mesh]
nx = 2
ny = 64

[material.gas]
eos = ideal_gas
gamma = 1.4

[region.all]
shape = rect
x0 = 0
y0 = 0
x1 = 1
y1 = 1
material = gas
rho = 1
ein = 1

[control]
final_time = 0.1
";
        let named = "problem = sod\nnx = 2\n# padding\nny = 64\n";
        for (text, want) in [(generic, 3), (named, 4)] {
            let err = admit_deck(text, &limits).unwrap_err();
            let DeckError::Text { line, message } = err else {
                panic!("want line-anchored rejection, got {err:?}");
            };
            assert_eq!(line, want, "must anchor at the `ny = 64` assignment");
            assert!(message.contains("128 elements"), "{message}");
        }
    }

    #[test]
    fn oversized_step_budget_is_rejected_at_its_line() {
        let limits = ResourceLimits {
            max_steps: 10,
            ..ResourceLimits::default()
        };
        let text = "problem = sod\nnx = 4\nny = 2\n[control]\nmax_steps = 50\n";
        let err = admit_deck(text, &limits).unwrap_err();
        let DeckError::Text { line, .. } = err else {
            panic!("want line-anchored rejection, got {err:?}");
        };
        assert_eq!(line, 5);
    }

    #[test]
    fn oversized_deck_text_is_rejected_before_parsing() {
        let limits = ResourceLimits {
            max_deck_bytes: 16,
            ..ResourceLimits::default()
        };
        let err = admit_deck("problem = noh\nn = 8\n# padding padding\n", &limits).unwrap_err();
        assert!(matches!(err, DeckError::Config { .. }), "{err:?}");
    }

    #[test]
    fn parser_errors_pass_through_line_anchored() {
        let err =
            admit_deck("problem = noh\nbogus_key = 1\n", &ResourceLimits::default()).unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 2, .. }), "{err:?}");
    }
}
