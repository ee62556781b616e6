//! K independent communities, run in parallel and merged.
//!
//! A [`CommunityCluster`] describes K independent communities —
//! separate populations, engines and RNG streams — by one
//! [`CommunityBuilder`] and a base seed. [`CommunityCluster::run`]
//! steps them on the rayon pool through
//! [`run_many_parallel`], so community `i` is seeded with
//! `seed_for_run(base_seed, i)` and a K-community cluster reproduces K
//! independent seeded runs exactly.
//!
//! Each finished community leaves one [`CommunityReport`]. The merge
//! — summed [`Population`] counters, [`CommunityStats::accumulate`],
//! the population-weighted means, bucket-summed histograms — reads
//! only report fields, visiting communities in seed-schedule order as
//! a serial loop would. Per-community views read
//! [`CommunityCluster::reports`] directly.
//!
//! This is the one path that runs K seeded communities: `replend run`
//! is a cluster for every K (K = 1 by default), and the figure and
//! ablation binaries average their runs through one.

use crate::community::CommunityBuilder;
use crate::stats::{CommunityStats, Population};
use replend_sim::runner::run_many_parallel;
use replend_sim::stats::Histogram;

/// Everything the cluster merge needs from one finished community.
#[derive(Clone, Debug, PartialEq)]
pub struct CommunityReport {
    /// Final population snapshot.
    pub population: Population,
    /// Cumulative protocol counters.
    pub stats: CommunityStats,
    /// Mean reputation over cooperative members, if any.
    pub mean_coop_rep: Option<f64>,
    /// Mean reputation over uncooperative members, if any.
    pub mean_uncoop_rep: Option<f64>,
    /// Member-reputation histogram buckets (the cluster's histogram
    /// bucket count over `[0, 1]`; empty when not requested).
    pub histogram: Vec<u64>,
    /// Mean cooperative reputation sampled every sample interval
    /// (empty when not requested). `None` marks a sample taken while
    /// the community had no cooperative members — distinct from a
    /// true `0.0` mean, so cluster merges stay exact when some
    /// communities are empty.
    pub series: Vec<Option<f64>>,
}

/// K independent communities, run in parallel and merged from their
/// reports.
pub struct CommunityCluster {
    builder: CommunityBuilder,
    communities: usize,
    base_seed: u64,
    histogram_buckets: usize,
    sample_interval: u64,
    reports: Vec<CommunityReport>,
}

impl CommunityCluster {
    /// A cluster of `communities` communities from one configured
    /// builder, community `i` seeded with `seed_for_run(base_seed, i)`
    /// — the exact schedule of [`run_many_parallel`], so a
    /// K-community cluster reproduces K independent seeded runs.
    pub fn build(builder: CommunityBuilder, communities: usize, base_seed: u64) -> Self {
        CommunityCluster {
            builder,
            communities,
            base_seed,
            histogram_buckets: 0,
            sample_interval: 0,
            reports: Vec::new(),
        }
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.communities
    }

    /// True when the cluster holds no communities.
    pub fn is_empty(&self) -> bool {
        self.communities == 0
    }

    /// Requests an `buckets`-bin member-reputation histogram in every
    /// report of subsequent runs (0 disables).
    pub fn set_histogram_buckets(&mut self, buckets: usize) {
        self.histogram_buckets = buckets;
    }

    /// Executes the cluster for `ticks` ticks **from construction
    /// state**: every community is built fresh from the builder and
    /// its seed, the communities run on the rayon pool, and their
    /// reports replace any previous run's, in seed-schedule order.
    /// Calling `run` again does not continue the previous run — it
    /// re-executes the same deterministic simulations (same `ticks`
    /// ⇒ bit-identical reports).
    pub fn run(&mut self, ticks: u64) {
        self.reports = run_many_parallel(self.communities, self.base_seed, |seed| {
            self.run_one(seed, ticks)
        });
    }

    /// Builds and runs one community with the given seed, producing
    /// its report.
    fn run_one(&self, seed: u64, ticks: u64) -> CommunityReport {
        let mut community = self.builder.seed(seed).build();
        let series = if self.sample_interval > 0 {
            // The sample stays `Option` end to end: a cohort with no
            // cooperative members reports "no mean", never a fake 0.0.
            community.run_sampled_with(ticks, self.sample_interval, |c| {
                c.mean_cooperative_reputation()
            })
        } else {
            community.run(ticks);
            Vec::new()
        };
        let histogram = if self.histogram_buckets > 0 {
            community
                .reputation_histogram(self.histogram_buckets)
                .buckets()
                .to_vec()
        } else {
            Vec::new()
        };
        CommunityReport {
            population: community.population(),
            stats: *community.stats(),
            mean_coop_rep: community.mean_cooperative_reputation(),
            mean_uncoop_rep: community.mean_uncooperative_reputation(),
            histogram,
            series,
        }
    }

    /// [`CommunityCluster::run`] with a sampling interval: every
    /// community records its mean cooperative reputation every
    /// `interval` ticks. Returns one aligned series per community;
    /// a `None` sample means the community had no cooperative members
    /// at that tick (not a `0.0` mean). Feed them to
    /// [`average_present`](replend_sim::series::average_present) for
    /// the paper's cross-run averages.
    pub fn run_sampled(&mut self, ticks: u64, interval: u64) -> Vec<Vec<Option<f64>>> {
        self.sample_interval = interval;
        self.run(ticks);
        self.reports.iter().map(|r| r.series.clone()).collect()
    }

    /// The per-community reports of the last run, in seed-schedule
    /// order (empty before the first run).
    pub fn reports(&self) -> &[CommunityReport] {
        &self.reports
    }

    /// Merged population counters over all communities.
    pub fn population(&self) -> Population {
        let mut total = Population::default();
        for r in &self.reports {
            // Exhaustive destructuring (no `..`): adding a Population
            // counter without merging it here is a compile error.
            let Population {
                members,
                cooperative,
                uncooperative,
                waiting,
                refused,
                flagged,
                departed,
            } = r.population;
            total.members += members;
            total.cooperative += cooperative;
            total.uncooperative += uncooperative;
            total.waiting += waiting;
            total.refused += refused;
            total.flagged += flagged;
            total.departed += departed;
        }
        total
    }

    /// Summed protocol counters over all communities.
    pub fn stats(&self) -> CommunityStats {
        let mut total = CommunityStats::default();
        for r in &self.reports {
            total.accumulate(&r.stats);
        }
        total
    }

    /// Mean reputation over every cooperative member in the cluster
    /// (each community's O(1) mean, weighted by its cooperative
    /// population). `None` when there are none.
    pub fn mean_cooperative_reputation(&self) -> Option<f64> {
        Self::weighted_mean(
            self.reports
                .iter()
                .map(|r| (r.mean_coop_rep, r.population.cooperative)),
        )
    }

    /// Mean reputation over every uncooperative member in the
    /// cluster. `None` when there are none.
    pub fn mean_uncooperative_reputation(&self) -> Option<f64> {
        Self::weighted_mean(
            self.reports
                .iter()
                .map(|r| (r.mean_uncoop_rep, r.population.uncooperative)),
        )
    }

    fn weighted_mean(parts: impl Iterator<Item = (Option<f64>, usize)>) -> Option<f64> {
        let (mut sum, mut n) = (0.0, 0usize);
        for (mean, count) in parts {
            if let Some(m) = mean {
                sum += m * count as f64;
                n += count;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Merged member-reputation histogram — bucket-wise sum of the
    /// per-community histograms requested via
    /// [`CommunityCluster::set_histogram_buckets`]. `None` when no
    /// histogram was requested.
    pub fn reputation_histogram(&self) -> Option<Histogram> {
        let buckets = self.histogram_buckets;
        if buckets == 0 {
            return None;
        }
        let mut merged = Histogram::new(0.0, crate::peer_table::HIST_HI, buckets);
        for r in &self.reports {
            for (i, &count) in r.histogram.iter().enumerate() {
                merged.add_to_bucket(i, count);
            }
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replend_types::hash::seed_for_run;
    use replend_types::Table1;

    fn small_builder() -> CommunityBuilder {
        CommunityBuilder::new(
            Table1::paper_defaults()
                .with_num_init(40)
                .with_arrival_rate(0.05)
                .with_num_trans(5_000),
        )
    }

    #[test]
    fn cluster_reproduces_independent_runs_exactly() {
        let mut cluster = CommunityCluster::build(small_builder(), 4, 77);
        cluster.run(2_000);
        for (i, r) in cluster.reports().iter().enumerate() {
            let mut solo = small_builder().seed(seed_for_run(77, i as u64)).build();
            solo.run(2_000);
            assert_eq!(r.stats, *solo.stats(), "community {i}");
            assert_eq!(r.population, solo.population());
            assert_eq!(
                r.mean_coop_rep.map(f64::to_bits),
                solo.mean_cooperative_reputation().map(f64::to_bits),
                "community {i} mean must be bit-identical to its solo run"
            );
        }
    }

    #[test]
    fn merged_aggregates_are_reductions_of_members() {
        let mut cluster = CommunityCluster::build(small_builder(), 3, 5);
        cluster.set_histogram_buckets(10);
        cluster.run(3_000);
        let merged = cluster.population();
        let by_hand: usize = cluster.reports().iter().map(|r| r.population.members).sum();
        assert_eq!(merged.members, by_hand);
        assert_eq!(
            merged.members,
            merged.cooperative + merged.uncooperative,
            "behaviour split covers the membership"
        );

        // Weighted mean equals the flat mean over all members.
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in cluster.reports() {
            if let Some(m) = r.mean_coop_rep {
                sum += m * r.population.cooperative as f64;
                n += r.population.cooperative;
            }
        }
        let expect = sum / n as f64;
        let got = cluster.mean_cooperative_reputation().unwrap();
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");

        // Histogram conserves the merged member count.
        let hist = cluster.reputation_histogram().unwrap();
        assert_eq!(hist.count() as usize, merged.members);

        // Summed stats cover every community's ticks.
        assert_eq!(cluster.stats().ticks, 3 * 3_000);
    }

    #[test]
    fn sampled_cluster_run_matches_solo_sampled_run() {
        let mut cluster = CommunityCluster::build(small_builder(), 2, 31);
        let series = cluster.run_sampled(2_000, 500);
        assert_eq!(series.len(), 2);
        let mut solo = small_builder().seed(seed_for_run(31, 0)).build();
        let solo_series = solo.run_sampled_with(2_000, 500, |c| c.mean_cooperative_reputation());
        assert_eq!(series[0], solo_series);
    }

    #[test]
    fn empty_cluster_aggregates_are_neutral() {
        let mut cluster = CommunityCluster::build(small_builder(), 0, 1);
        assert!(cluster.is_empty());
        cluster.set_histogram_buckets(5);
        cluster.run(100);
        assert_eq!(cluster.population(), Population::default());
        assert_eq!(cluster.mean_cooperative_reputation(), None);
        assert_eq!(cluster.reputation_histogram().unwrap().count(), 0);
    }

    /// The empty-cohort regression: a community with no uncooperative
    /// members must merge as "no mean" — never as a fabricated `0.0`.
    #[test]
    fn empty_cohort_means_merge_as_none() {
        let mut config = Table1::paper_defaults()
            .with_num_init(30)
            .with_arrival_rate(0.05)
            .with_num_trans(5_000);
        // No uncooperative entrants: that cohort stays empty in every
        // community for the whole run.
        config.sim.f_uncoop = 0.0;
        let mut cluster = CommunityCluster::build(CommunityBuilder::new(config), 3, 21);
        cluster.run_sampled(1_500, 500);
        for r in cluster.reports() {
            assert_eq!(
                r.mean_uncoop_rep, None,
                "an empty cohort reports no mean, not 0.0"
            );
        }
        assert_eq!(cluster.mean_uncooperative_reputation(), None);
        assert!(cluster.mean_cooperative_reputation().is_some());
    }

    #[test]
    fn report_matches_direct_community_run() {
        let mut cluster = CommunityCluster::build(small_builder(), 4, 77);
        cluster.sample_interval = 500;
        cluster.set_histogram_buckets(8);
        let report = cluster.run_one(seed_for_run(77, 3), 1_500);

        let mut solo = small_builder().seed(seed_for_run(77, 3)).build();
        let series = solo.run_sampled_with(1_500, 500, |c| c.mean_cooperative_reputation());
        assert_eq!(report.population, solo.population());
        assert_eq!(report.stats, *solo.stats());
        assert_eq!(
            report.mean_coop_rep.map(f64::to_bits),
            solo.mean_cooperative_reputation().map(f64::to_bits)
        );
        assert_eq!(report.series, series);
        assert_eq!(
            report.histogram,
            solo.reputation_histogram(8).buckets().to_vec()
        );
    }
}
