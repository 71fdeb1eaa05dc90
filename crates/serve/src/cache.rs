//! Deck-hash-keyed caching of parsed/built decks.
//!
//! Building a [`Deck`] means generating a mesh and evaluating initial
//! state — far more work than parsing the text that describes it. Two
//! requests that mean the same problem should share that work, so the
//! cache key is the FNV-1a 64 hash of the **canonical** deck text (the
//! exact-round-trip [`InputDeck`] `Display` form): whitespace, comments
//! and key order wash out, while any semantic difference — a different
//! `n`, a toggled `[ale]` — lands on a different key. The proptest
//! suite pins both directions.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::Mutex;

use bookleaf_core::{Deck, InputDeck};
use bookleaf_util::DeckError;

/// FNV-1a 64 over everything written to it — tiny, dependency-free,
/// stable.
struct Fnv1a64(u64);

impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The cache key of a parsed deck: FNV-1a 64 of its canonical text,
/// hashed as it is rendered (the text itself is never built).
#[must_use]
pub fn deck_cache_key(input: &InputDeck) -> u64 {
    let mut hash = Fnv1a64(0xcbf2_9ce4_8422_2325);
    write!(hash, "{input}").expect("hashing cannot fail");
    hash.0
}

/// A bounded build-once deck cache with FIFO eviction.
///
/// Values are built [`Deck`]s (mesh + initial state); lookups clone the
/// cached deck out so concurrent requests never share mutable state.
#[derive(Debug)]
pub struct DeckCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Deck>,
    order: VecDeque<u64>,
}

impl DeckCache {
    /// A cache holding at most `capacity` built decks (clamped ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DeckCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The deck for `input`, built on first sight, cloned from cache
    /// after. The flag is `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// [`DeckError`] when the input fails validation at build time.
    pub fn get_or_build(&self, input: &InputDeck) -> Result<(Deck, bool), DeckError> {
        let key = deck_cache_key(input);
        {
            let inner = self.inner.lock().expect("deck cache poisoned");
            if let Some(deck) = inner.map.get(&key) {
                return Ok((deck.clone(), true));
            }
        }
        // Build outside the lock: mesh generation is the expensive part
        // and must not serialize unrelated tenants.
        let deck = input.build_deck()?;
        let mut inner = self.inner.lock().expect("deck cache poisoned");
        if !inner.map.contains_key(&key) {
            while inner.order.len() >= self.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                }
            }
            inner.order.push_back(key);
            inner.map.insert(key, deck.clone());
        }
        Ok((deck, false))
    }

    /// Number of decks currently cached.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("deck cache poisoned").map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosmetic_differences_share_a_key() {
        let a: InputDeck = "problem = noh\nn = 8\n".parse().unwrap();
        let b: InputDeck = "# comment\n  problem = noh\n\nn = 8   # same\n"
            .parse()
            .unwrap();
        assert_eq!(deck_cache_key(&a), deck_cache_key(&b));
        // Hashing the render equals hashing the rendered text.
        let mut whole = Fnv1a64(0xcbf2_9ce4_8422_2325);
        whole.write_str(&a.to_string()).unwrap();
        assert_eq!(deck_cache_key(&a), whole.0);
    }

    #[test]
    fn semantic_differences_split_keys() {
        let a: InputDeck = "problem = noh\nn = 8\n".parse().unwrap();
        let b: InputDeck = "problem = noh\nn = 9\n".parse().unwrap();
        let c: InputDeck = "problem = sedov\nn = 8\n".parse().unwrap();
        assert_ne!(deck_cache_key(&a), deck_cache_key(&b));
        assert_ne!(deck_cache_key(&a), deck_cache_key(&c));
    }

    #[test]
    fn cache_hits_after_first_build_and_evicts_fifo() {
        let cache = DeckCache::new(2);
        let noh: InputDeck = "problem = noh\nn = 4\n".parse().unwrap();
        let sedov: InputDeck = "problem = sedov\nn = 4\n".parse().unwrap();
        let sod: InputDeck = "problem = sod\nnx = 4\nny = 2\n".parse().unwrap();

        assert!(!cache.get_or_build(&noh).unwrap().1);
        assert!(cache.get_or_build(&noh).unwrap().1, "second sight must hit");
        assert!(!cache.get_or_build(&sedov).unwrap().1);
        // Capacity 2: inserting a third evicts the oldest (noh).
        assert!(!cache.get_or_build(&sod).unwrap().1);
        assert_eq!(cache.len(), 2);
        assert!(!cache.get_or_build(&noh).unwrap().1, "noh was evicted");
    }
}
