//! The one entity sweep: every kernel of `hydro` and `ale` is a
//! per-entity *body* plus one call of [`sweep`] (or [`sweep_reduce`]).
//!
//! A kernel writes a few per-entity output arrays — its *columns* — and
//! entity `i`'s outputs depend on nothing another entity writes in the
//! same kernel (§IV-B's "trivially parallelisable"). So how the index
//! range is traversed is not the kernel's business, and it is written
//! here once:
//!
//! * **serial or threaded** ([`Threading`]): a zipped walk over the
//!   columns (no per-entity bounds checks), or the same walk at the
//!   leaves of a fork-join tree that halves the columns with
//!   `split_at_mut` — each leaf owns its rows outright, so there is no
//!   `unsafe` and nothing to synchronise;
//! * **which entities** ([`Pass`]): all of them, all but a sorted list
//!   (the *interior* pass of an overlapped halo exchange, run while the
//!   messages are in flight), or exactly a sorted list (the *boundary*
//!   pass, run after the exchange completes, at a cost proportional to
//!   the list). `Except(ids)` then `Only(ids)`, in either order, visits
//!   every entity exactly once, and since nothing is reduced across
//!   entities the pair is bitwise the `All` sweep.
//!
//! This module is the only place in `hydro` and `ale` that names
//! `rayon` or branches on [`Threading`]; `scripts/one_sweep.sh` holds
//! the line.
//!
//! The fork-join tree halves down to about four leaves per pool thread,
//! like rayon's own indexed iterators. Its shape depends on the length,
//! the list and the pool width only; the one value a sweep may reduce
//! (a "no element failed" flag, a first failing element) is merged with
//! an associative, commutative operator, so it does not depend on the
//! shape either.

use crate::Threading;

/// Which entities of the column range a sweep visits. Id lists are
/// strictly ascending and inside the range (checked on every sweep).
#[derive(Debug, Clone, Copy)]
pub enum Pass<'a> {
    /// Every entity.
    All,
    /// Every entity not listed.
    Except(&'a [u32]),
    /// Exactly the listed entities.
    Only(&'a [u32]),
}

impl<'a> Pass<'a> {
    /// The pass restricted to entities below / from `mid`.
    fn split_at(self, mid: usize) -> (Self, Self) {
        let cut = |ids: &'a [u32]| ids.split_at(ids.partition_point(|&id| (id as usize) < mid));
        match self {
            Pass::All => (Pass::All, Pass::All),
            Pass::Except(ids) => {
                let (below, from) = cut(ids);
                (Pass::Except(below), Pass::Except(from))
            }
            Pass::Only(ids) => {
                let (below, from) = cut(ids);
                (Pass::Only(below), Pass::Only(from))
            }
        }
    }
}

/// A tuple of equally long `&mut` slices: the per-entity outputs of one
/// kernel. Implemented for tuples of one to eight slices.
pub trait Columns: Sized + Send {
    /// One `&mut` per column: entity `i`'s outputs.
    type Row;
    /// The common length.
    fn n_rows(&self) -> usize;
    /// Rows `..mid` and rows `mid..`.
    fn split_at(self, mid: usize) -> (Self, Self);
    /// Every row, in order.
    fn rows(self) -> impl Iterator<Item = Self::Row>;
}

macro_rules! zipped {
    ($a:expr) => { $a };
    ($a:expr, $($rest:expr),+) => { $a.zip(zipped!($($rest),+)) };
}
macro_rules! nested {
    ($a:pat) => { $a };
    ($a:pat, $($rest:pat),+) => { ($a, nested!($($rest),+)) };
}
macro_rules! columns {
    ($($T:ident $c:ident),+) => {
        impl<'a, $($T: Send),+> Columns for ($(&'a mut [$T],)+) {
            type Row = ($(&'a mut $T,)+);
            fn n_rows(&self) -> usize {
                let ($($c,)+) = self;
                let lens = [$($c.len()),+];
                assert!(
                    lens.iter().all(|&n| n == lens[0]),
                    "sweep columns of unequal length: {lens:?}"
                );
                lens[0]
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let ($($c,)+) = self;
                $(let $c = $c.split_at_mut(mid);)+
                (($($c.0,)+), ($($c.1,)+))
            }
            fn rows(self) -> impl Iterator<Item = Self::Row> {
                let ($($c,)+) = self;
                zipped!($($c.iter_mut()),+).map(|nested!($($c),+)| ($($c,)+))
            }
        }
    };
}
columns!(A a);
columns!(A a, B b);
columns!(A a, B b, C c);
columns!(A a, B b, C c, D d);
columns!(A a, B b, C c, D d, E e);
columns!(A a, B b, C c, D d, E e, F f);
columns!(A a, B b, C c, D d, E e, F f, G g);
columns!(A a, B b, C c, D d, E e, F f, G g, H h);

/// Run `body(i, row)` for every entity `i` of `pass`, where `row` holds
/// the `&mut` entries `i` of `columns`.
pub fn sweep<C, B>(threading: Threading, pass: Pass<'_>, columns: C, body: B)
where
    C: Columns,
    B: Fn(usize, C::Row) + Sync,
{
    sweep_reduce(threading, pass, columns, (), |(), ()| (), body);
}

/// [`sweep`] whose body returns a value: `merge` (associative and
/// commutative, with `identity` as its neutral element) folds them
/// into one.
///
/// # Panics
/// If the pass's id list is not strictly ascending or names an entity
/// outside the columns.
pub fn sweep_reduce<C, R, M, B>(
    threading: Threading,
    pass: Pass<'_>,
    columns: C,
    identity: R,
    merge: M,
    body: B,
) -> R
where
    C: Columns,
    R: Copy + Send + Sync,
    M: Fn(R, R) -> R + Sync,
    B: Fn(usize, C::Row) -> R + Sync,
{
    let n = columns.n_rows();
    if let Pass::Except(ids) | Pass::Only(ids) = pass {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "sweep id list is not strictly ascending"
        );
        assert!(
            ids.last().is_none_or(|&id| (id as usize) < n),
            "sweep id list names an entity outside the {n} swept"
        );
    }
    let run = Run {
        identity,
        merge,
        body,
    };
    match threading {
        Threading::Serial => run.walk(columns, 0, pass),
        Threading::Rayon => run.fork(columns, 0, pass, 4 * rayon::current_num_threads()),
    }
}

/// What every leaf of one sweep shares.
struct Run<R, M, B> {
    identity: R,
    merge: M,
    body: B,
}

impl<R: Copy + Send + Sync, M: Fn(R, R) -> R + Sync, B> Run<R, M, B> {
    /// Sweep `columns`, which hold entities `base..`, sequentially.
    fn walk<C>(&self, columns: C, base: usize, pass: Pass<'_>) -> R
    where
        C: Columns,
        B: Fn(usize, C::Row) -> R,
    {
        let mut acc = self.identity;
        let mut visit = |i: usize, row: C::Row| acc = (self.merge)(acc, (self.body)(i, row));
        match pass {
            Pass::All => {
                for (i, row) in columns.rows().enumerate() {
                    visit(base + i, row);
                }
            }
            Pass::Except(ids) => {
                let mut skip = ids.iter().peekable();
                for (i, row) in columns.rows().enumerate() {
                    if skip.next_if(|&&id| id as usize == base + i).is_none() {
                        visit(base + i, row);
                    }
                }
            }
            Pass::Only(ids) => {
                // Walk the list, not the range: drop the rows up to the
                // next listed one, take it, carry on in what follows.
                let (mut rest, mut at) = (columns, base);
                for &id in ids {
                    let (_, from) = rest.split_at(id as usize - at);
                    let (one, after) = from.split_at(1);
                    visit(id as usize, one.rows().next().expect("a one-row split"));
                    (rest, at) = (after, id as usize + 1);
                }
            }
        }
        acc
    }

    /// Sweep `columns` (entities `base..`) across the current rayon
    /// pool: halve until `splits` leaves, [`Run::walk`] each. A listed
    /// pass halves its list (and cuts the columns where the second half
    /// begins), the others halve the range.
    fn fork<C>(&self, columns: C, base: usize, pass: Pass<'_>, splits: usize) -> R
    where
        C: Columns,
        B: Fn(usize, C::Row) -> R + Sync,
    {
        let mid = match pass {
            Pass::Only(ids) if ids.len() >= 2 => ids[ids.len() / 2] as usize - base,
            Pass::Only(_) => 0,
            _ => columns.n_rows() / 2,
        };
        if splits <= 1 || mid == 0 {
            return self.walk(columns, base, pass);
        }
        let (left, right) = columns.split_at(mid);
        let (first, second) = pass.split_at(base + mid);
        let (a, b) = rayon::join(
            || self.fork(left, base, first, splits / 2),
            || self.fork(right, base + mid, second, splits - splits / 2),
        );
        (self.merge)(a, b)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic xorshift: the tests' only source of randomness.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n.max(1) as u64) as usize
        }
    }

    /// Id lists over `0..n`: the edge cases, then random ones (sparse,
    /// dense, in runs).
    fn lists(n: usize, rng: &mut Rng) -> Vec<Vec<u32>> {
        let mut out = vec![vec![], (0..n as u32).collect()];
        if n > 0 {
            out.push(vec![n as u32 - 1]);
            out.push(vec![0]);
        }
        for keep_one_in in [2, 5, 50] {
            out.push(
                (0..n as u32)
                    .filter(|_| rng.below(keep_one_in) == 0)
                    .collect(),
            );
        }
        let mut runs = Vec::new();
        let mut i = rng.below(9);
        while i < n {
            let end = (i + 1 + rng.below(12)).min(n);
            runs.extend(i as u32..end as u32);
            i = end + 1 + rng.below(40);
        }
        out.push(runs);
        out
    }

    /// Two columns of `n` rows: a visit counter, and the index the body
    /// was handed for the row.
    struct Table {
        visits: Vec<u32>,
        seen_as: Vec<[usize; 1]>,
    }

    impl Table {
        fn new(n: usize) -> Table {
            Table {
                visits: vec![0; n],
                seen_as: vec![[usize::MAX]; n],
            }
        }

        /// Sweep `pass`, returning the (wrapping) sum of `i² + 1` over
        /// the entities visited.
        fn sweep(&mut self, threading: Threading, pass: Pass<'_>) -> u64 {
            let columns = (&mut self.visits[..], &mut self.seen_as[..]);
            let add = |a: u64, b: u64| a.wrapping_add(b);
            sweep_reduce(threading, pass, columns, 0, add, |i, (visits, seen_as)| {
                *visits += 1;
                seen_as[0] = i;
                (i as u64).wrapping_mul(i as u64).wrapping_add(1)
            })
        }

        /// Every row visited exactly `times` times if `expect(i)`, never
        /// otherwise, and always as itself.
        fn assert_visited(&self, times: u32, expect: impl Fn(usize) -> bool, what: &str) {
            for (i, (&visits, seen_as)) in self.visits.iter().zip(&self.seen_as).enumerate() {
                let want = if expect(i) { times } else { 0 };
                assert_eq!(visits, want, "{what}: visits of row {i}");
                if visits > 0 {
                    assert_eq!(seen_as[0], i, "{what}: row {i} handed out as another");
                }
            }
        }
    }

    /// `check(threading, what)` under serial loops and under rayon in
    /// pools of width 1, 2 and 4.
    pub(crate) fn under_every_driver(check: impl Fn(Threading, &str) + Sync) {
        check(Threading::Serial, "serial");
        for width in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            pool.install(|| check(Threading::Rayon, &format!("rayon x{width}")));
        }
    }

    #[test]
    fn except_then_only_visits_every_row_once_as_itself_and_equals_all() {
        // 0, 1, the leaf sizes of a 4-wide pool's 16-leaf tree and their
        // neighbours, and a mesh-sized range.
        for n in [0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 100, 10_007] {
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ n as u64);
            for ids in lists(n, &mut rng) {
                let listed = |i: usize| ids.binary_search(&(i as u32)).is_ok();
                let sum_of = |keep: &dyn Fn(usize) -> bool| {
                    (0..n as u64)
                        .filter(|&i| keep(i as usize))
                        .fold(0u64, |a, i| {
                            a.wrapping_add(i.wrapping_mul(i).wrapping_add(1))
                        })
                };
                under_every_driver(|th, driver| {
                    let what = format!("{driver}, n = {n}, {} listed", ids.len());
                    let mut all = Table::new(n);
                    assert_eq!(all.sweep(th, Pass::All), sum_of(&|_| true), "{what}");
                    all.assert_visited(1, |_| true, &what);

                    let mut only = Table::new(n);
                    assert_eq!(only.sweep(th, Pass::Only(&ids)), sum_of(&listed), "{what}");
                    only.assert_visited(1, listed, &what);

                    let mut except = Table::new(n);
                    let rest = except.sweep(th, Pass::Except(&ids));
                    assert_eq!(rest, sum_of(&|i| !listed(i)), "{what}");
                    except.assert_visited(1, |i| !listed(i), &what);

                    for order in [
                        [Pass::Except(&ids), Pass::Only(&ids)],
                        [Pass::Only(&ids), Pass::Except(&ids)],
                    ] {
                        let mut both = Table::new(n);
                        let sum = order
                            .iter()
                            .fold(0u64, |sum, &pass| sum.wrapping_add(both.sweep(th, pass)));
                        assert_eq!(sum, sum_of(&|_| true), "{what}");
                        assert_eq!(both.visits, all.visits, "{what}");
                        assert_eq!(both.seen_as, all.seen_as, "{what}");
                    }
                });
            }
        }
    }

    #[test]
    fn only_nothing_is_a_no_op() {
        under_every_driver(|th, what| {
            let mut table = Table::new(50);
            assert_eq!(table.sweep(th, Pass::Only(&[])), 0, "{what}");
            table.assert_visited(1, |_| false, what);
        });
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn an_unsorted_list_panics() {
        Table::new(10).sweep(Threading::Serial, Pass::Except(&[3, 2]));
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn a_repeated_id_panics() {
        Table::new(10).sweep(Threading::Rayon, Pass::Only(&[4, 4]));
    }

    #[test]
    #[should_panic(expected = "outside the 10 swept")]
    fn an_id_outside_the_range_panics() {
        Table::new(10).sweep(Threading::Serial, Pass::Only(&[2, 10]));
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn columns_of_unequal_length_panic() {
        let (mut a, mut b) = (vec![0.0; 4], vec![0.0; 5]);
        sweep(
            Threading::Serial,
            Pass::All,
            (&mut a[..], &mut b[..]),
            |_, _| {},
        );
    }
}
