//! A Fenwick (binary indexed) tree over non-negative integer weights,
//! supporting O(log n) point updates and O(log n) weighted sampling.
//!
//! This is the engine behind [`ScaleFreeTopology`]: the community
//! grows by Poisson arrivals during a run, so the degree distribution
//! changes constantly and a static alias table would need O(n)
//! rebuilds per arrival. The Fenwick tree instead supports:
//!
//! * `add(i, delta)` — adjust one weight,
//! * `total()` — current weight sum,
//! * `sample_index(u)` — find the smallest index whose prefix sum
//!   exceeds a uniform draw `u ∈ [0, total)`,
//!
//! all in O(log n).
//!
//! [`ScaleFreeTopology`]: crate::scale_free::ScaleFreeTopology

/// Fenwick tree over `u64` weights.
#[derive(Clone, Debug, Default)]
pub(crate) struct Fenwick {
    /// 1-based partial sums, `tree[0]` unused.
    tree: Vec<u64>,
    /// Number of logical slots.
    len: usize,
}

impl Fenwick {
    /// An empty tree.
    pub(crate) fn new() -> Self {
        Fenwick::default()
    }

    /// Appends a new slot with the given weight, returning its index.
    pub(crate) fn push(&mut self, weight: u64) -> usize {
        if self.tree.is_empty() {
            // Slot 0 of the 1-based tree array is a sentinel.
            self.tree.push(0);
        }
        let i = self.len;
        self.len += 1;
        self.tree.push(0);
        // Initialize the new internal node from already-stored prefix
        // information, then add the weight.
        let pos = self.len; // 1-based
        let lsb = pos & pos.wrapping_neg();
        // Sum of the (pos-lsb, pos-1] range already stored:
        let mut sum = 0;
        let mut j = pos - 1;
        let stop = pos - lsb;
        while j > stop {
            sum += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        self.tree[pos] = sum;
        if weight > 0 {
            self.add(i, weight as i64);
        }
        i
    }

    /// Adds `delta` to slot `i`'s weight.
    ///
    /// # Panics
    /// In debug builds, if the resulting weight would underflow below
    /// zero (weights are unsigned).
    pub(crate) fn add(&mut self, i: usize, delta: i64) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        debug_assert!(
            delta >= 0 || self.weight(i) as i64 + delta >= 0,
            "weight underflow at slot {i}"
        );
        let mut pos = i + 1;
        while pos <= self.len {
            self.tree[pos] = (self.tree[pos] as i64 + delta) as u64;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// The weight of slot `i`.
    pub(crate) fn weight(&self, i: usize) -> u64 {
        self.prefix_sum(i + 1) - self.prefix_sum(i)
    }

    /// Sum of weights of slots `[0, n)`.
    pub(crate) fn prefix_sum(&self, n: usize) -> u64 {
        let mut pos = n.min(self.len);
        let mut sum = 0;
        while pos > 0 {
            sum += self.tree[pos];
            pos -= pos & pos.wrapping_neg();
        }
        sum
    }

    /// Total weight.
    pub(crate) fn total(&self) -> u64 {
        self.prefix_sum(self.len)
    }

    /// Finds the smallest index `i` such that `prefix_sum(i + 1) > u`,
    /// i.e. samples slot `i` with probability `weight(i) / total()`
    /// when `u` is uniform on `[0, total())`.
    ///
    /// Returns `None` if `u >= total()` (in particular when the tree
    /// is empty or all weights are zero).
    pub(crate) fn sample_index(&self, mut u: u64) -> Option<usize> {
        if u >= self.total() {
            return None;
        }
        let mut pos = 0usize; // 1-based cursor
        let mut step = self.len.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= self.len && self.tree[next] <= u {
                u -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        Some(pos) // pos is 0-based index of the sampled slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A tree with `n` zero-weight slots.
    fn with_len(n: usize) -> Fenwick {
        let mut f = Fenwick::new();
        for _ in 0..n {
            f.push(0);
        }
        f
    }

    #[test]
    fn empty_tree() {
        let f = Fenwick::new();
        assert_eq!(f.total(), 0);
        assert_eq!(f.sample_index(0), None);
    }

    #[test]
    fn push_and_weights() {
        let mut f = Fenwick::new();
        assert_eq!(f.push(5), 0);
        assert_eq!(f.push(0), 1);
        assert_eq!(f.push(3), 2);
        assert_eq!(f.weight(0), 5);
        assert_eq!(f.weight(1), 0);
        assert_eq!(f.weight(2), 3);
        assert_eq!(f.total(), 8);
    }

    #[test]
    fn add_and_prefix_sums() {
        let mut f = with_len(4);
        f.add(0, 1);
        f.add(1, 2);
        f.add(2, 3);
        f.add(3, 4);
        assert_eq!(f.prefix_sum(0), 0);
        assert_eq!(f.prefix_sum(1), 1);
        assert_eq!(f.prefix_sum(2), 3);
        assert_eq!(f.prefix_sum(3), 6);
        assert_eq!(f.prefix_sum(4), 10);
        f.add(1, -2);
        assert_eq!(f.prefix_sum(4), 8);
        assert_eq!(f.weight(1), 0);
    }

    #[test]
    fn sample_index_boundaries() {
        let mut f = Fenwick::new();
        f.push(2); // covers u in {0, 1}
        f.push(3); // covers u in {2, 3, 4}
        assert_eq!(f.sample_index(0), Some(0));
        assert_eq!(f.sample_index(1), Some(0));
        assert_eq!(f.sample_index(2), Some(1));
        assert_eq!(f.sample_index(4), Some(1));
        assert_eq!(f.sample_index(5), None);
    }

    #[test]
    fn zero_weight_slots_never_sampled() {
        let mut f = Fenwick::new();
        f.push(0);
        f.push(7);
        f.push(0);
        for u in 0..7 {
            assert_eq!(f.sample_index(u), Some(1));
        }
    }

    #[test]
    fn sampling_distribution_matches_weights() {
        let mut f = Fenwick::new();
        let weights = [1u64, 2, 3, 4, 10];
        for &w in &weights {
            f.push(w);
        }
        let total = f.total();
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0usize; 5];
        let trials = 200_000;
        for _ in 0..trials {
            let u = rng.gen_range(0..total);
            counts[f.sample_index(u).unwrap()] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = trials as f64 * w as f64 / total as f64;
            let got = counts[i] as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.max(30.0).sqrt() * 3.0,
                "slot {i}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_out_of_bounds_panics() {
        let mut f = with_len(2);
        f.add(2, 1);
    }

    #[test]
    fn push_after_adds_keeps_prefixes_consistent() {
        // Regression guard for the internal-node initialization in
        // `push`: interleave pushes and adds, verify against a naive
        // vector.
        let mut f = Fenwick::new();
        let mut naive: Vec<u64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..200 {
            if naive.is_empty() || rng.gen_bool(0.4) {
                let w = rng.gen_range(0..10u64);
                f.push(w);
                naive.push(w);
            } else {
                let i = rng.gen_range(0..naive.len());
                let delta = rng.gen_range(0..5u64);
                f.add(i, delta as i64);
                naive[i] += delta;
            }
            let n = naive.len();
            let picks = [0, n / 2, n];
            for &p in &picks {
                let expect: u64 = naive[..p].iter().sum();
                assert_eq!(f.prefix_sum(p), expect, "round {round}, prefix {p}");
            }
        }
    }

    proptest! {
        /// Fenwick prefix sums always equal naive prefix sums, under
        /// arbitrary interleavings of pushes and weight increments.
        #[test]
        fn matches_naive_model(ops in proptest::collection::vec(
            (proptest::bool::ANY, 0usize..64, 0u64..100), 1..200)
        ) {
            let mut f = Fenwick::new();
            let mut naive: Vec<u64> = Vec::new();
            for (push, idx, w) in ops {
                if push || naive.is_empty() {
                    f.push(w);
                    naive.push(w);
                } else {
                    let i = idx % naive.len();
                    f.add(i, w as i64);
                    naive[i] += w;
                }
            }
            for i in 0..=naive.len() {
                prop_assert_eq!(f.prefix_sum(i), naive[..i].iter().sum::<u64>());
            }
            for (i, &w) in naive.iter().enumerate() {
                prop_assert_eq!(f.weight(i), w);
            }
        }

        /// sample_index(u) returns the unique slot whose cumulative
        /// range contains u.
        #[test]
        fn sample_inverts_prefix_sum(
            weights in proptest::collection::vec(0u64..50, 1..64),
            u_frac in 0.0f64..1.0,
        ) {
            let mut f = Fenwick::new();
            for &w in &weights {
                f.push(w);
            }
            let total = f.total();
            prop_assume!(total > 0);
            let u = ((total as f64) * u_frac) as u64;
            let u = u.min(total - 1);
            let i = f.sample_index(u).unwrap();
            prop_assert!(f.prefix_sum(i) <= u);
            prop_assert!(u < f.prefix_sum(i + 1));
        }
    }
}
