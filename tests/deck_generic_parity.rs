//! The five standard problems re-expressed in the generic deck
//! vocabulary must reproduce the named constructors **bitwise** — the
//! ISSUE-10 acceptance bar. Each named `ProblemSpec` maps to its
//! `GenericSpec` via `generic_equivalent`, takes a round trip through
//! the canonical text form, builds, and must match the named
//! constructor's deck field for field (`to_bits` on every float), and a
//! short serial run of both must land on bit-identical state.

use bookleaf::core::scenario::generic_equivalent;
use bookleaf::{Deck, InputDeck, ProblemSpec, Simulation};

/// The five standard problems at modest resolutions (kept small so the
/// run-parity legs stay quick).
fn named_specs() -> [ProblemSpec; 5] {
    [
        ProblemSpec::Sod { nx: 16, ny: 4 },
        ProblemSpec::Noh { n: 8 },
        ProblemSpec::Sedov { n: 8 },
        ProblemSpec::Saltzmann { nx: 16, ny: 4 },
        ProblemSpec::Underwater { n: 10 },
    ]
}

/// The named constructor's deck for `spec`.
fn named_deck(spec: &ProblemSpec) -> Deck {
    InputDeck::new(spec.clone()).build_deck().unwrap()
}

/// The deck built from `spec`'s generic re-expression, routed through
/// the *text* form (write → parse → build) so the whole pipeline is on
/// the hook, with the named problem's standard end time stamped on.
fn generic_deck(spec: &ProblemSpec) -> Deck {
    let generic = generic_equivalent(spec).expect("named specs have generic equivalents");
    let mut input = InputDeck::new(ProblemSpec::Generic(Box::new(generic)));
    input.final_time = Some(spec.recommended_final_time());
    let text = input.to_string();
    let reparsed: InputDeck = text.parse().unwrap_or_else(|e| {
        panic!(
            "{}: generic re-expression failed to re-parse: {e}\n{text}",
            spec.name()
        )
    });
    assert_eq!(
        reparsed,
        input,
        "{}: text round trip moved the spec",
        spec.name()
    );
    reparsed.build_deck().unwrap()
}

/// Bitwise equality of every deck field the physics reads.
fn assert_decks_bitwise_equal(name: &str, a: &Deck, b: &Deck) {
    assert_eq!(a.name, b.name, "{name}: name");
    assert_eq!(a.mesh.region, b.mesh.region, "{name}: region ids");
    assert_eq!(a.mesh.node_bc, b.mesh.node_bc, "{name}: node BCs");
    assert_eq!(a.materials, b.materials, "{name}: material table");
    assert_eq!(a.piston, b.piston, "{name}: piston");
    assert_eq!(a.mesh.nodes.len(), b.mesh.nodes.len(), "{name}: node count");
    for (n, (pa, pb)) in a.mesh.nodes.iter().zip(&b.mesh.nodes).enumerate() {
        assert_eq!(pa.x.to_bits(), pb.x.to_bits(), "{name}: node {n} x");
        assert_eq!(pa.y.to_bits(), pb.y.to_bits(), "{name}: node {n} y");
    }
    assert_eq!(a.rho.len(), b.rho.len(), "{name}: element count");
    for e in 0..a.rho.len() {
        assert_eq!(a.rho[e].to_bits(), b.rho[e].to_bits(), "{name}: rho {e}");
        assert_eq!(a.ein[e].to_bits(), b.ein[e].to_bits(), "{name}: ein {e}");
    }
    for (n, (ua, ub)) in a.u.iter().zip(&b.u).enumerate() {
        assert_eq!(ua.x.to_bits(), ub.x.to_bits(), "{name}: u {n} x");
        assert_eq!(ua.y.to_bits(), ub.y.to_bits(), "{name}: u {n} y");
    }
}

#[test]
fn generic_re_expressions_match_named_constructors_bitwise() {
    for spec in named_specs() {
        let named = named_deck(&spec);
        let generic = generic_deck(&spec);
        assert_decks_bitwise_equal(spec.name(), &named, &generic);
    }
}

#[test]
fn generic_re_expressions_run_bitwise_identical_to_named() {
    for spec in named_specs() {
        let steps = 10;
        let run = |deck: Deck| {
            let mut sim = Simulation::builder()
                .deck(deck)
                .max_steps(steps)
                .build()
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name()));
            sim.run()
                .unwrap_or_else(|e| panic!("{}: run failed: {e}", spec.name()));
            sim
        };
        let named = run(named_deck(&spec));
        let generic = run(generic_deck(&spec));
        let (a, b) = (named.state(), generic.state());
        for e in 0..a.rho.len() {
            assert_eq!(
                a.rho[e].to_bits(),
                b.rho[e].to_bits(),
                "{}: rho {e} diverged",
                spec.name()
            );
            assert_eq!(
                a.ein[e].to_bits(),
                b.ein[e].to_bits(),
                "{}: ein {e} diverged",
                spec.name()
            );
        }
        for n in 0..a.u.len() {
            assert_eq!(
                a.u[n].x.to_bits(),
                b.u[n].x.to_bits(),
                "{}: u.x {n} diverged",
                spec.name()
            );
            assert_eq!(
                a.u[n].y.to_bits(),
                b.u[n].y.to_bits(),
                "{}: u.y {n} diverged",
                spec.name()
            );
        }
    }
}
