//! Seeded multi-run execution.
//!
//! Every figure in the paper averages 10 independent runs (§4.3).
//! [`run_many`] executes a closure once per run with a derived seed;
//! [`run_many_parallel`] does the same across threads — runs are
//! independent by construction, so the two produce *identical*
//! results (tested), parallelism being purely a wall-clock
//! optimization. `replend_core`'s `CommunityCluster` runs K seeded
//! communities through [`run_many_parallel`].

use replend_types::hash::seed_for_run;

/// Runs `f` once per run index with a seed derived from `base_seed`,
/// collecting the per-run outputs.
///
/// The seed schedule is `seed_for_run(base_seed, i)` — deterministic,
/// distinct per run, and identical to the schedule used by
/// [`run_many_parallel`].
pub fn run_many<T, F>(n_runs: usize, base_seed: u64, mut f: F) -> Vec<T>
where
    F: FnMut(u64) -> T,
{
    (0..n_runs as u64)
        .map(|i| f(seed_for_run(base_seed, i)))
        .collect()
}

/// Like [`run_many`] but fans runs out over the shared rayon pool
/// (the workspace shim is a real `std::thread::scope` worker pool
/// with a chunked work queue; the real crate is a drop-in swap).
/// Outputs are returned in run order regardless of thread scheduling,
/// so results are bit-identical to [`run_many`].
pub fn run_many_parallel<T, F>(n_runs: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    use rayon::prelude::*;
    (0..n_runs as u64)
        .into_par_iter()
        .map(|i| f(seed_for_run(base_seed, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn run_many_derives_distinct_seeds() {
        let seeds = run_many(10, 77, |s| s);
        let mut dedup = seeds.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn run_many_is_deterministic() {
        let f = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            rng.gen::<f64>()
        };
        assert_eq!(run_many(5, 1, f), run_many(5, 1, f));
        assert_ne!(run_many(5, 1, f), run_many(5, 2, f));
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let f = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1000).map(|_| rng.gen::<u32>() as u64).sum::<u64>()
        };
        let serial = run_many(16, 9, f);
        let parallel = run_many_parallel(16, 9, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_single_run() {
        assert_eq!(run_many_parallel(1, 5, |s| s), run_many(1, 5, |s| s));
    }

    #[test]
    fn parallel_zero_runs() {
        let out: Vec<u64> = run_many_parallel(0, 5, |s| s);
        assert!(out.is_empty());
    }
}
