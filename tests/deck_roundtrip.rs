//! Input-deck text round trip: `decks::from_str(decks::to_string(d))`
//! must reproduce every field of `d` — for the five standard problems,
//! for randomized option combinations (proptest), and the failure mode
//! must be a typed, line-anchored error. The canonical text itself is
//! pinned to bytes against `tests/fixtures/decks/*.canon` (checkpoints
//! embed it).

use bookleaf::ale::{AleMode, AleOptions};
use bookleaf::core::decks::{self, InputDeck, ProblemSpec};
use bookleaf::core::ExecutorKind;
use bookleaf::hydro::getdt::DtControls;
use bookleaf::util::DeckError;
use proptest::prelude::*;

/// The five standard problems as input-deck specs.
fn standard_specs() -> [ProblemSpec; 5] {
    [
        ProblemSpec::Sod { nx: 40, ny: 4 },
        ProblemSpec::Noh { n: 20 },
        ProblemSpec::Sedov { n: 16 },
        ProblemSpec::Saltzmann { nx: 24, ny: 4 },
        ProblemSpec::Underwater { n: 12 },
    ]
}

#[test]
fn five_standard_decks_round_trip_every_field() {
    for spec in standard_specs() {
        let deck = InputDeck::new(spec.clone());
        let text = decks::to_string(&deck);
        let back = decks::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", spec.name()));
        assert_eq!(back, deck, "{} spec did not round trip", spec.name());
        // And the *constructed* decks agree field for field too.
        assert_eq!(
            back.build_deck().unwrap(),
            deck.build_deck().unwrap(),
            "{} built deck did not round trip",
            spec.name()
        );
    }
}

#[test]
fn standard_decks_match_their_programmatic_constructors() {
    let built = |spec: ProblemSpec| InputDeck::new(spec).build_deck().unwrap();
    assert_eq!(built(ProblemSpec::Sod { nx: 40, ny: 4 }), decks::sod(40, 4));
    assert_eq!(built(ProblemSpec::Noh { n: 20 }), decks::noh(20));
    assert_eq!(built(ProblemSpec::Sedov { n: 16 }), decks::sedov(16));
    assert_eq!(
        built(ProblemSpec::Saltzmann { nx: 24, ny: 4 }),
        decks::saltzmann(24, 4)
    );
    assert_eq!(
        built(ProblemSpec::Underwater { n: 12 }),
        decks::underwater(12)
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Randomized option combinations survive the text round trip
    /// exactly — floats included (shortest round-trip formatting).
    #[test]
    fn randomized_decks_round_trip(
        problem_pick in 0usize..5,
        nx in 1usize..300,
        ny in 1usize..60,
        has_final_time in 0usize..2,
        final_time in 0.001f64..2.0,
        max_steps in 1usize..200_000,
        overlap_pick in 0usize..2,
        cfl_sf in 0.05f64..0.9,
        div_sf in 0.05f64..0.9,
        growth in 1.0f64..1.2,
        dt_initial in 1e-8f64..1e-3,
        dt_scale in 1.0f64..1e6,
        ale_pick in 0usize..3,
        alpha in 0.05f64..1.0,
        frequency in 1usize..20,
        exec_pick in 0usize..3,
        ranks in 1usize..9,
        threads in 1usize..6,
    ) {
        let problem = match problem_pick {
            0 => ProblemSpec::Sod { nx, ny },
            1 => ProblemSpec::Noh { n: nx },
            2 => ProblemSpec::Sedov { n: ny },
            3 => ProblemSpec::Saltzmann { nx, ny },
            _ => ProblemSpec::Underwater { n: nx },
        };
        let deck = InputDeck {
            problem,
            final_time: (has_final_time == 1).then_some(final_time),
            max_steps,
            overlap: overlap_pick == 1,
            dt: DtControls {
                cfl_sf,
                div_sf,
                growth,
                dt_initial,
                dt_max: dt_initial * dt_scale,
                dt_min: dt_initial / dt_scale,
            },
            ale: match ale_pick {
                0 => None,
                1 => Some(AleOptions { mode: AleMode::Eulerian, frequency }),
                _ => Some(AleOptions { mode: AleMode::Smooth { alpha }, frequency }),
            },
            executor: match exec_pick {
                0 => ExecutorKind::Serial,
                1 => ExecutorKind::FlatMpi { ranks },
                _ => ExecutorKind::Hybrid { ranks, threads_per_rank: threads },
            },
        };
        prop_assert!(deck.validate().is_ok(), "random deck should be valid");
        let text = decks::to_string(&deck);
        let back = decks::from_str(&text);
        prop_assert!(back.is_ok(), "re-parse failed: {:?}\n{text}", back.err());
        prop_assert_eq!(back.unwrap(), deck);
    }
}

#[test]
fn malformed_decks_fail_with_line_anchored_errors() {
    // (text, expected 1-based line, fragment the message must carry)
    let cases: &[(&str, usize, &str)] = &[
        ("problem = sod\nnx = 40\nny = twelve\n", 3, "ny"),
        ("problem = sod\nnx = 40\nny 4\n", 3, "key = value"),
        ("problem = waterfall\n", 1, "waterfall"),
        ("problem = noh\nn = 8\n[advanced]\nfoo = 1\n", 3, "advanced"),
        ("problem = noh\nn = 8\nbogus = 1\n", 3, "bogus"),
        (
            "problem = noh\nn = 8\n[control]\noverlap = maybe\n",
            4,
            "overlap",
        ),
        ("problem = noh\nn = 8\n[dt]\ndt_min = tiny\n", 4, "dt_min"),
        ("problem = noh\nn = 8\n[ale]\nmode = wavy\n", 4, "wavy"),
        (
            "problem = noh\nn = 8\n[executor]\nmodel = hybrid\nranks = 2\n",
            4,
            "threads_per_rank",
        ),
        ("problem = noh\nn = 8\nnx = 8\n", 3, "does not apply"),
        ("problem = noh\nn = 8\nn = 9\n", 3, "duplicate"),
        (
            "problem = noh\nn = 8\n[control]\nfinal_time = inf\n",
            4,
            "finite",
        ),
        ("problem = noh\nn = 8\n[dt]\ncfl_sf = NaN\n", 4, "finite"),
        (
            "problem = noh\nn = 8\n[executor]\nthreads_per_rank = 4\n",
            4,
            "requires an executor `model`",
        ),
    ];
    for (text, line, fragment) in cases {
        match decks::from_str(text) {
            Err(DeckError::Text { line: got, message }) => {
                assert_eq!(got, *line, "wrong line for {text:?}: {message}");
                assert!(
                    message.contains(fragment),
                    "message for {text:?} lacks `{fragment}`: {message}"
                );
            }
            other => panic!("{text:?}: expected a line-anchored error, got {other:?}"),
        }
    }
}

#[test]
fn semantic_errors_are_typed_config_errors() {
    // (text, the 1-based line of the nonsense value): a text deck's
    // value errors name their line ...
    let cases: &[(&str, usize)] = &[
        ("problem = noh\nn = 0\n", 2),
        ("problem = noh\nn = 8193\n", 2),
        ("problem = sod\nnx = 8\nny = 0\n", 3),
        ("problem = noh\nn = 8\n[control]\nmax_steps = 0\n", 4),
        ("problem = noh\nn = 8\n[control]\nfinal_time = -1.0\n", 4),
        ("problem = noh\nn = 8\n[dt]\ncfl_sf = 0\n", 4),
        ("problem = noh\nn = 8\n[dt]\ngrowth = 0.5\n", 4),
        ("problem = noh\nn = 8\n[dt]\ndt_max = 1e-3\ndt_min = 1\n", 5),
        // ... against the default when its partner is absent.
        ("problem = noh\nn = 8\n[dt]\n\ndt_min = 5\n", 5),
        (
            "problem = noh\nn = 8\n[ale]\nmode = eulerian\nfrequency = 0\n",
            5,
        ),
        (
            "problem = noh\nn = 8\n[ale]\nmode = smooth\nalpha = 7.0\n",
            5,
        ),
        (
            "problem = noh\nn = 8\n[executor]\nmodel = flat_mpi\nranks = 0\n",
            5,
        ),
        (
            "problem = noh\nn = 8\n[executor]\nmodel = hybrid\nranks = 2\nthreads_per_rank = 0\n",
            6,
        ),
        // A section missing its discriminator: the header's line.
        ("problem = noh\nn = 8\n\n[ale]\nfrequency = 2\n", 4),
    ];
    for (text, line) in cases {
        match decks::from_str(text) {
            Err(DeckError::Text { line: got, .. }) => assert_eq!(got, *line, "{text:?}"),
            other => panic!("{text:?}: expected an error at line {line}, got {other:?}"),
        }
    }
    // ... and the same nonsense in a deck built in code, which has no
    // lines, is a Config error.
    let edits: [fn(&mut InputDeck); 6] = [
        |d| d.problem = ProblemSpec::Noh { n: 0 },
        |d| d.max_steps = 0,
        |d| d.final_time = Some(-1.0),
        |d| d.dt.dt_min = 5.0,
        |d| d.executor = ExecutorKind::FlatMpi { ranks: 0 },
        |d| {
            d.ale = Some(AleOptions {
                mode: AleMode::Smooth { alpha: 7.0 },
                frequency: 1,
            })
        },
    ];
    for (i, edit) in edits.iter().enumerate() {
        let mut deck = InputDeck::new(ProblemSpec::Noh { n: 8 });
        edit(&mut deck);
        match deck.validate() {
            Err(DeckError::Config { .. }) => {}
            other => panic!("edit {i}: expected a Config error, got {other:?}"),
        }
    }
}

/// Every committed example deck and the every-key fixtures, with the
/// canonical text the writer produced for them when the goldens were
/// cut (`tests/fixtures/decks/*.canon`).
fn goldens() -> Vec<(String, String, String)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let read =
        |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut out = Vec::new();
    for dir in ["examples/decks", "tests/fixtures/decks"] {
        for entry in std::fs::read_dir(format!("{root}/{dir}")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "deck") {
                let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
                let canon = read(format!("{root}/tests/fixtures/decks/{stem}.canon"));
                out.push((stem, read(path.display().to_string()), canon));
            }
        }
    }
    out
}

#[test]
fn canonical_text_is_pinned_to_bytes() {
    let goldens = goldens();
    assert_eq!(goldens.len(), 12, "7 example decks + 5 fixtures");
    for (name, text, canon) in &goldens {
        let deck = decks::from_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            &decks::to_string(&deck),
            canon,
            "{name}: the writer moved a byte"
        );
        // The canonical text is a fixed point, and means the same deck.
        let again = decks::from_str(canon).unwrap_or_else(|e| panic!("{name}.canon: {e}"));
        assert_eq!(again, deck, "{name}");
        assert_eq!(
            &decks::to_string(&again),
            canon,
            "{name}: not a fixed point"
        );
        deck.build_deck().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
