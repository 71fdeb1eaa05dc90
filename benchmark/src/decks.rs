//! Deck generator: `decks/*.deck` templates rendered per seed. The
//! program under test only ever sees the rendered text.

use bookleaf::core::decks::SEDOV_ALPHA;

use crate::spec;

const NOH: &str = include_str!("../decks/noh.deck");
const SEDOV_ALE: &str = include_str!("../decks/sedov_ale.deck");
const SERVE_NOH: &str = include_str!("../decks/serve_noh.deck");
const SERVE_SOD: &str = include_str!("../decks/serve_sod.deck");
const SERVE_SEDOV: &str = include_str!("../decks/serve_sedov.deck");
const SERVE_GENERIC: &str = include_str!("../decks/serve_generic.deck");

/// Fill `{key}` placeholders; a placeholder left over is a harness bug.
fn render(template: &str, values: &[(&str, String)]) -> String {
    let mut text = template.to_string();
    for (key, value) in values {
        text = text.replace(&format!("{{{key}}}"), value);
    }
    assert!(
        !text.contains('{'),
        "unfilled placeholder in rendered deck:\n{text}"
    );
    text
}

/// Mesh edges for a nominal `n x n` mesh: the seed lengthens one edge
/// and shortens the other by `2*(seed mod 8) - 7` cells (never 0), so
/// no result depends on a power-of-two edge while the element count
/// stays within 0.1 % of `n^2` — the acceptance script compares runs of
/// *different* seeds, so a seed must not change the amount of work.
pub fn mesh_edges(nominal: usize, seed: u64) -> (usize, usize) {
    let shift = 2 * (seed % 8) as isize - 7;
    let edge = |d: isize| nominal.checked_add_signed(d).expect("nominal edge > 7");
    (edge(shift), edge(-shift))
}

/// A rendered run-workload deck.
#[derive(Debug, Clone)]
pub struct RunDeck {
    pub text: String,
    pub elements: usize,
    pub steps: usize,
    /// Ranks of the deck's executor (0 = serial, no partition at all).
    pub ranks: usize,
}

/// Mesh size and step count of the run workloads, full or `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub noh_mesh: usize,
    pub sedov_mesh: usize,
    pub noh_steps: usize,
    pub sedov_steps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        noh_mesh: 256,
        sedov_mesh: 192,
        noh_steps: spec::NOH_STEPS,
        sedov_steps: spec::SEDOV_STEPS,
    };
    /// 32^2 meshes, 10 steps (20 for Sedov, so that one checkpoint is
    /// written and resumed).
    pub const SMOKE: Scale = Scale {
        noh_mesh: 32,
        sedov_mesh: 32,
        noh_steps: 10,
        sedov_steps: 2 * spec::CHECKPOINT_EVERY,
    };
}

pub fn run_deck(workload: &str, seed: u64, scale: Scale) -> RunDeck {
    if workload == spec::SEDOV_ALE_CKPT {
        let (nx, ny) = mesh_edges(scale.sedov_mesh, seed);
        let (dx, dy) = (1.1 / nx as f64, 1.1 / ny as f64);
        // The corner cell's centroid sits 0.5*hypot(dx, dy) from the
        // origin and the next nearest at least 1.5*min(dx, dy): the
        // geometric mean separates them while dx/dy stays below 2.
        let text = render(
            SEDOV_ALE,
            &[
                ("nx", nx.to_string()),
                ("ny", ny.to_string()),
                ("source_r", (dx * dy).sqrt().to_string()),
                ("source_ein", (SEDOV_ALPHA / 4.0 / (dx * dy)).to_string()),
                ("steps", scale.sedov_steps.to_string()),
            ],
        );
        return RunDeck {
            text,
            elements: nx * ny,
            steps: scale.sedov_steps,
            ranks: 0,
        };
    }
    let (executor, ranks) = match workload {
        spec::NOH_SERIAL => ("model = serial", 0),
        spec::NOH_FLAT2 => ("model = flat_mpi\nranks = 2", 2),
        spec::NOH_HYBRID2 => ("model = hybrid\nranks = 1\nthreads_per_rank = 2", 1),
        other => panic!("{other} is not a run workload"),
    };
    let (nx, ny) = mesh_edges(scale.noh_mesh, seed);
    RunDeck {
        text: noh_deck(nx, ny, scale.noh_steps, executor),
        elements: nx * ny,
        steps: scale.noh_steps,
        ranks,
    }
}

/// The Noh template at an explicit size; `executor` is the body of the
/// `[executor]` section.
pub fn noh_deck(nx: usize, ny: usize, steps: usize, executor: &str) -> String {
    render(
        NOH,
        &[
            ("nx", nx.to_string()),
            ("ny", ny.to_string()),
            ("steps", steps.to_string()),
            ("executor", executor.to_string()),
        ],
    )
}

/// A deck a serve client submits.
#[derive(Debug, Clone)]
pub struct ServeDeck {
    pub text: String,
    pub elements: usize,
}

/// The eight hot decks: named noh/sod/sedov and generic, two sizes
/// each, 64 to 144 elements — small enough that parse, build, protocol
/// and queueing are a large part of a request, not the twelve steps.
pub fn serve_hot_decks() -> Vec<ServeDeck> {
    let steps = spec::SERVE_STEPS.to_string();
    let named = |template: &str, n: usize| ServeDeck {
        text: render(template, &[("n", n.to_string()), ("steps", steps.clone())]),
        elements: n * n,
    };
    let sod = |nx: usize, ny: usize| ServeDeck {
        text: render(
            SERVE_SOD,
            &[
                ("nx", nx.to_string()),
                ("ny", ny.to_string()),
                ("steps", steps.clone()),
            ],
        ),
        elements: nx * ny,
    };
    let decks = vec![
        named(SERVE_NOH, 8),
        named(SERVE_NOH, 12),
        sod(24, 3),
        sod(36, 4),
        named(SERVE_SEDOV, 8),
        named(SERVE_SEDOV, 12),
        serve_generic("hot-bubble-a", 10, 10, 10.0),
        serve_generic("hot-bubble-b", 12, 12, 4.0),
    ];
    assert_eq!(decks.len(), spec::SERVE_HOT_DECKS);
    decks
}

fn serve_generic(name: &str, nx: usize, ny: usize, p: f64) -> ServeDeck {
    ServeDeck {
        text: render(
            SERVE_GENERIC,
            &[
                ("name", name.to_string()),
                ("nx", nx.to_string()),
                ("ny", ny.to_string()),
                ("p", p.to_string()),
                ("steps", spec::SERVE_STEPS.to_string()),
            ],
        ),
        elements: nx * ny,
    }
}

/// The `serial`-th cold deck of a run: generic, 8^2 to 12^2 like the
/// hot decks, with a bubble pressure no other (seed, serial) pair
/// shares — so its canonical text, and therefore its cache key, is
/// unique.
pub fn serve_cold_deck(seed: u64, serial: u64) -> ServeDeck {
    let mut rng = SplitMix64::new(seed ^ serial.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let nx = 8 + (rng.next() % 5) as usize;
    let ny = 8 + (rng.next() % 5) as usize;
    let p = 1.0 + (seed % 1000) as f64 + serial as f64 * 1e-6;
    serve_generic("cold-bubble", nx, ny, p)
}

/// The harness's only random source: small, seedable, reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf::core::decks::{from_str, to_string};
    use bookleaf::{ExecutorKind, ProblemSpec};

    /// Every rendered deck parses, and its canonical form round-trips
    /// through `from_str`/`to_string` exactly.
    fn round_trip(text: &str) -> bookleaf::InputDeck {
        let deck = from_str(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let canonical = to_string(&deck);
        let again = from_str(&canonical).expect("canonical text parses");
        assert_eq!(again, deck);
        assert_eq!(to_string(&again), canonical);
        deck
    }

    #[test]
    fn run_decks_round_trip_for_every_seed_and_scale() {
        for scale in [Scale::FULL, Scale::SMOKE] {
            for seed in 0..8 {
                for w in [
                    spec::NOH_SERIAL,
                    spec::NOH_FLAT2,
                    spec::NOH_HYBRID2,
                    spec::SEDOV_ALE_CKPT,
                ] {
                    let rendered = run_deck(w, seed, scale);
                    let deck = round_trip(&rendered.text);
                    assert_eq!(deck.problem.cells(), rendered.elements, "{w} seed {seed}");
                    assert_eq!(deck.max_steps, rendered.steps);
                    let want = match w {
                        spec::NOH_FLAT2 => ExecutorKind::FlatMpi { ranks: 2 },
                        spec::NOH_HYBRID2 => ExecutorKind::Hybrid {
                            ranks: 1,
                            threads_per_rank: 2,
                        },
                        _ => ExecutorKind::Serial,
                    };
                    assert_eq!(deck.executor, want);
                    assert_eq!(deck.ale.is_some(), w == spec::SEDOV_ALE_CKPT);
                    deck.build_deck().expect("deck builds");
                }
            }
        }
    }

    #[test]
    fn seed_shifts_edges_but_not_the_amount_of_work() {
        let mut edges = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let (nx, ny) = mesh_edges(256, seed);
            assert_eq!(nx + ny, 512);
            assert_ne!(nx, 256, "no power-of-two edge");
            let rel = (nx * ny) as f64 / 65536.0 - 1.0;
            assert!(rel.abs() < 1.1e-3, "seed {seed}: {rel}");
            assert_eq!(mesh_edges(256, seed), mesh_edges(256, seed + 8));
            edges.insert(nx);
        }
        assert_eq!(edges.len(), 8);
    }

    #[test]
    fn sedov_source_is_exactly_the_corner_cell() {
        for seed in 0..8 {
            let rendered = run_deck(spec::SEDOV_ALE_CKPT, seed, Scale::FULL);
            let deck = from_str(&rendered.text).unwrap().build_deck().unwrap();
            let hot: Vec<usize> = (0..deck.ein.len()).filter(|&e| deck.ein[e] > 1.0).collect();
            assert_eq!(hot, [0], "seed {seed}");
        }
    }

    #[test]
    fn serve_decks_round_trip_and_cold_decks_are_unique() {
        let hot = serve_hot_decks();
        let mut keys = std::collections::BTreeSet::new();
        for d in &hot {
            let deck = round_trip(&d.text);
            assert_eq!(deck.problem.cells(), d.elements);
            assert!((64..=144).contains(&d.elements));
            assert_eq!(deck.max_steps, spec::SERVE_STEPS);
            keys.insert(to_string(&deck));
        }
        assert!(hot.iter().any(|d| d.text.contains("problem = noh")));
        assert!(hot.iter().any(|d| d.text.contains("problem = sod")));
        assert!(hot.iter().any(|d| d.text.contains("problem = sedov")));
        for seed in [1, 2] {
            for serial in 0..200 {
                let d = serve_cold_deck(seed, serial);
                let deck = round_trip(&d.text);
                assert!(matches!(deck.problem, ProblemSpec::Generic(_)));
                assert!((64..=144).contains(&d.elements));
                keys.insert(to_string(&deck));
            }
        }
        assert_eq!(
            keys.len(),
            hot.len() + 400,
            "every deck has its own cache key"
        );
        assert_eq!(serve_cold_deck(3, 7).text, serve_cold_deck(3, 7).text);
    }

    #[test]
    fn splitmix_is_reproducible_and_uniform_enough() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let draws: Vec<f64> = (0..10_000).map(|_| a.unit()).collect();
        assert!((0..10_000).all(|i| b.unit() == draws[i]));
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let hot = draws.iter().filter(|&&u| u < 0.7).count();
        assert!((6850..=7150).contains(&hot), "{hot}");
    }
}
