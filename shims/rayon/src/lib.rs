//! Offline stand-in for `rayon 1` — see `shims/README.md`.
//!
//! Unlike the first-generation shim (which degraded to sequential
//! iteration), this version actually fans work out over a scoped
//! worker pool: items are materialised into indexed slots, workers
//! pull *chunks* off a shared atomic cursor (`std::thread::scope`
//! keeps borrows safe without `'static` bounds), and results land in
//! their input slot — so output order is input order and results are
//! bit-identical to sequential execution regardless of scheduling.
//!
//! Surface implemented: the `prelude` traits `IntoParallelIterator`
//! (`into_par_iter`) and `IntoParallelRefIterator` (`par_iter`), whose
//! iterators support `map` followed by `collect` — the subset the
//! workspace uses (`replend_sim::runner::run_many_parallel` and the
//! partition-parallel checkpoint export and import in
//! `replend_rocq::concurrent`). Call sites compile unchanged against the real crate; swap
//! the workspace dependency when a networked build is available.
//!
//! Thread count: `RAYON_NUM_THREADS` when set (0 or unset ⇒ all
//! available cores), capped by the number of items.

// A stand-in for an external crate, so the workspace ban on std hash
// maps (`clippy.toml`) does not apply here.
#![allow(clippy::disallowed_types)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for the next pool: `RAYON_NUM_THREADS` or all cores.
fn pool_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => cores,
    }
}

/// The pool core: applies `f` to every item, chunked over scoped
/// workers, returning outputs in input order.
fn run_chunked<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = pool_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Uncontended by construction: the chunk cursor hands every index
    // to exactly one worker, so each slot mutex is locked once for
    // the take and once for the store.
    let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let output: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // ~4 chunks per worker balances scheduling slack against cursor
    // contention on very uneven workloads.
    let chunk = n.div_ceil(threads * 4).max(1);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    let item = input[i]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("each index is handed out once");
                    let value = f(item);
                    *output[i].lock().expect("output slot poisoned") = Some(value);
                }
            });
        }
    });
    output
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot poisoned")
                .expect("every index was executed")
        })
        .collect()
}

/// A materialised parallel iterator (the shim's sole base iterator).
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParIter<T> {
    /// Maps every item through `f` on the pool.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The `map` adapter; executes on the pool at the terminal call.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Chains another map (fused into one pool pass).
    pub fn map<R2, G>(self, g: G) -> ParMap<T, impl Fn(T) -> R2 + Sync>
    where
        R2: Send,
        G: Fn(R) -> R2 + Sync,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |t| g(f(t)),
        }
    }

    /// Executes the mapped pipeline on the pool and collects the
    /// results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run_chunked(self.items, &self.f).into_iter().collect()
    }
}

pub mod prelude {
    //! The usual `use rayon::prelude::*;` surface.

    use super::IntoParIter;

    /// `par_iter()` on shared references — materialises the borrow
    /// list, then fans out on the pool.
    pub trait IntoParallelRefIterator<'data> {
        /// Item type (a shared reference).
        type Item: Send + 'data;
        /// Starts a parallel pipeline over `&self`.
        fn par_iter(&'data self) -> IntoParIter<Self::Item>;
    }

    impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoIterator,
        <&'data C as IntoIterator>::Item: Send,
    {
        type Item = <&'data C as IntoIterator>::Item;
        fn par_iter(&'data self) -> IntoParIter<Self::Item> {
            IntoParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    /// `into_par_iter()` — materialises the source, then fans out on
    /// the pool.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;
        /// Starts a parallel pipeline over `self`.
        fn into_par_iter(self) -> IntoParIter<Self::Item>;
    }

    impl<C: IntoIterator> IntoParallelIterator for C
    where
        C::Item: Send,
    {
        type Item = C::Item;
        fn into_par_iter(self) -> IntoParIter<Self::Item> {
            IntoParIter {
                items: self.into_iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<u64> = (0..10_000u64).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn chained_maps_fuse() {
        let out: Vec<String> = (0..100u32)
            .into_par_iter()
            .map(|i| i + 1)
            .map(|i| i.to_string())
            .collect();
        assert_eq!(out[0], "1");
        assert_eq!(out[99], "100");
    }

    #[test]
    fn par_iter_over_slice() {
        let data = vec![1u64, 2, 3, 4];
        let sum: Vec<u64> = data.par_iter().map(|&x| x * x).collect();
        assert_eq!(sum, vec![1, 4, 9, 16]);
    }

    #[test]
    fn workers_actually_fan_out() {
        // With >1 core, a blocking-ish workload must be observed on
        // more than one thread id. Skip on single-core machines.
        if std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            < 2
        {
            return;
        }
        let ids: std::collections::HashSet<_> = (0..64u32)
            .into_par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                std::thread::current().id()
            })
            .collect();
        assert!(
            ids.len() > 1,
            "work stayed on one thread: pool did not fan out"
        );
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(none.is_empty());
        let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }
}
