//! Multi-community cluster, generic over the worker transport.
//!
//! A [`CommunityCluster`] owns K independent communities — separate
//! populations, engines and RNG streams, seeds derived via the
//! workspace's standard `seed_for_run(base_seed, i)` schedule — but
//! it does **not** own the simulations themselves: it describes them
//! as [`WorkerJob`]s and hands them to its [`Worker`]s, then merges
//! the decoded [`CommunityReport`]s. The merge — summed
//! [`Population`] counters, [`CommunityStats::accumulate`], the
//! population-weighted means, bucket-summed histograms — operates
//! purely on report fields, and every `f64` in a report is a
//! bit-exact copy of the community's own accumulator value (in
//! process trivially, across processes via the bit-exact
//! `replend-wire` floats). Merged output is therefore **byte-identical
//! regardless of transport**:
//!
//! * [`CommunityCluster::build`] — today's in-process path, the K
//!   communities stepped on the rayon pool;
//! * [`CommunityCluster::with_workers`] — any transport, e.g. a
//!   [`SubprocessWorker`](crate::worker::SubprocessWorker) fleet
//!   speaking the wire format with `replend worker` children
//!   (shared-nothing scale-out; the CLI's `run --workers N`).
//!
//! The cluster splits its index range into contiguous slices, one per
//! worker, runs the slices concurrently, and concatenates the reports
//! in worker order — which is index order, so the merge arithmetic
//! visits communities in the same order as a serial loop would.

use crate::community::CommunityBuilder;
use crate::stats::{CommunityStats, Population};
use crate::worker::{CommunityReport, InProcessWorker, Worker, WorkerError, WorkerJob};
use replend_sim::stats::Histogram;

/// Everything a sweep or operator view needs from one member
/// community of a cluster.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommunitySummary {
    /// Index in the cluster (seed schedule position).
    pub index: usize,
    /// Final population snapshot.
    pub population: Population,
    /// Mean reputation of cooperative members, if any.
    pub mean_coop_rep: Option<f64>,
    /// Mean reputation of uncooperative members, if any.
    pub mean_uncoop_rep: Option<f64>,
    /// §4.1 decision success rate, if any decision was taken.
    pub success_rate: Option<f64>,
}

/// K independent communities, executed by pluggable workers and
/// merged from their reports.
pub struct CommunityCluster<W: Worker = InProcessWorker> {
    /// The job template: full builder spec + the cluster's complete
    /// index range. Tick/sampling knobs are filled in by `run`.
    job: WorkerJob,
    workers: Vec<W>,
    reports: Vec<CommunityReport>,
}

impl CommunityCluster<InProcessWorker> {
    /// Builds the classic in-process cluster: `communities`
    /// communities from one configured builder, community `i` seeded
    /// with `seed_for_run(base_seed, i)` — the exact schedule of
    /// [`run_many_parallel`](replend_sim::runner::run_many_parallel),
    /// so a K-community cluster reproduces K independent seeded runs.
    pub fn build(builder: CommunityBuilder, communities: usize, base_seed: u64) -> Self {
        Self::with_workers(builder, communities, base_seed, vec![InProcessWorker])
    }
}

impl<W: Worker> CommunityCluster<W> {
    /// A cluster whose communities are distributed over `workers`
    /// (contiguous index slices, one per worker; workers beyond the
    /// community count stay idle).
    ///
    /// # Panics
    /// If `workers` is empty.
    pub fn with_workers(
        builder: CommunityBuilder,
        communities: usize,
        base_seed: u64,
        workers: Vec<W>,
    ) -> Self {
        assert!(!workers.is_empty(), "a cluster needs at least one worker");
        let indices: Vec<u64> = (0..communities as u64).collect();
        CommunityCluster {
            job: WorkerJob::from_builder(&builder, base_seed, indices),
            workers,
            reports: Vec::new(),
        }
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.job.indices.len()
    }

    /// True when the cluster holds no communities.
    pub fn is_empty(&self) -> bool {
        self.job.indices.is_empty()
    }

    /// Requests an `buckets`-bin member-reputation histogram in every
    /// report of subsequent runs (0 disables).
    pub fn set_histogram_buckets(&mut self, buckets: usize) {
        self.job.histogram_buckets = buckets as u64;
    }

    /// Requests a mean-cooperative-reputation sample every `interval`
    /// ticks in every report of subsequent runs (0 disables).
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.job.sample_interval = interval;
    }

    /// Executes the cluster for `ticks` ticks **from construction
    /// state**: splits the index range over the workers, runs the
    /// slices concurrently (each worker builds its communities fresh
    /// from the job spec and seed schedule), and stores the reports
    /// in index order, replacing any previous run's. Calling `run`
    /// again does not continue the previous run — it re-executes the
    /// same deterministic simulations (same `ticks` ⇒ bit-identical
    /// reports).
    pub fn run(&mut self, ticks: u64) -> Result<(), WorkerError> {
        self.job.ticks = ticks;
        let jobs = self.job.split(self.workers.len());
        let mut outcomes: Vec<Option<Result<Vec<CommunityReport>, WorkerError>>> =
            (0..jobs.len()).map(|_| None).collect();
        if jobs.len() <= 1 {
            // Zero or one slice: no fan-out thread needed.
            for (job, slot) in jobs.iter().zip(&mut outcomes) {
                *slot = Some(self.workers[0].run(job));
            }
        } else {
            std::thread::scope(|scope| {
                for ((worker, job), slot) in self.workers.iter_mut().zip(&jobs).zip(&mut outcomes) {
                    scope.spawn(move || *slot = Some(worker.run(job)));
                }
            });
        }
        let mut reports = Vec::with_capacity(self.job.indices.len());
        for outcome in outcomes {
            reports.extend(outcome.expect("every slice was executed")?);
        }
        debug_assert!(
            reports
                .iter()
                .zip(&self.job.indices)
                .all(|(r, &i)| r.index == i),
            "workers must return reports in index order"
        );
        self.reports = reports;
        Ok(())
    }

    /// [`CommunityCluster::run`] with a sampling interval: every
    /// community records its mean cooperative reputation every
    /// `interval` ticks. Returns one aligned series per community;
    /// a `None` sample means the community had no cooperative members
    /// at that tick (not a `0.0` mean). Feed them to
    /// [`average_present`](replend_sim::series::average_present) for
    /// the paper's cross-run averages.
    pub fn run_sampled(
        &mut self,
        ticks: u64,
        interval: u64,
    ) -> Result<Vec<Vec<Option<f64>>>, WorkerError> {
        self.set_sample_interval(interval);
        self.run(ticks)?;
        Ok(self.series())
    }

    /// The per-community reports of the last run, in seed-schedule
    /// order (empty before the first run).
    pub fn reports(&self) -> &[CommunityReport] {
        &self.reports
    }

    /// The sampled series of the last run, one per community (empty
    /// unless a sample interval was set). Samples are `Option`: a
    /// cohort that was empty at a sample tick reports `None`, exactly
    /// as it crossed the wire.
    pub fn series(&self) -> Vec<Vec<Option<f64>>> {
        self.reports.iter().map(|r| r.series.clone()).collect()
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
        let buckets = self.job.histogram_buckets as usize;
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

    /// Per-community summaries, in seed-schedule order.
    pub fn summaries(&self) -> Vec<CommunitySummary> {
        self.reports
            .iter()
            .map(|r| CommunitySummary {
                index: r.index as usize,
                population: r.population,
                mean_coop_rep: r.mean_coop_rep,
                mean_uncoop_rep: r.mean_uncoop_rep,
                success_rate: r.stats.success_rate(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::run_job;
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
        cluster.run(2_000).unwrap();
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
        cluster.run(3_000).unwrap();
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
    fn summaries_line_up_with_reports() {
        let mut cluster = CommunityCluster::build(small_builder(), 3, 9);
        cluster.run(1_500).unwrap();
        let summaries = cluster.summaries();
        assert_eq!(summaries.len(), 3);
        for (s, r) in summaries.iter().zip(cluster.reports()) {
            assert_eq!(s.population, r.population);
            assert_eq!(s.success_rate, r.stats.success_rate());
        }
        assert_eq!(summaries[2].index, 2);
    }

    #[test]
    fn sampled_cluster_run_matches_solo_sampled_run() {
        let mut cluster = CommunityCluster::build(small_builder(), 2, 31);
        let series = cluster.run_sampled(2_000, 500).unwrap();
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
        cluster.run(100).unwrap();
        assert_eq!(cluster.population(), Population::default());
        assert_eq!(cluster.mean_cooperative_reputation(), None);
        assert_eq!(cluster.reputation_histogram().unwrap().count(), 0);
    }

    /// The empty-cohort regression (ISSUE 6): a community with no
    /// uncooperative members must merge as "no mean" — never as a
    /// fabricated `0.0` — and the merge must be bit-identical whether
    /// the reports stayed in process or crossed the wire.
    #[test]
    fn empty_cohort_means_merge_exactly_across_transports() {
        let mut config = Table1::paper_defaults()
            .with_num_init(30)
            .with_arrival_rate(0.05)
            .with_num_trans(5_000);
        // No uncooperative entrants: that cohort stays empty in every
        // community for the whole run.
        config.sim.f_uncoop = 0.0;
        let builder = || CommunityBuilder::new(config);

        let mut in_process = CommunityCluster::build(builder(), 3, 21);
        let in_process_series = in_process.run_sampled(1_500, 500).unwrap();
        let mut wired = CommunityCluster::with_workers(builder(), 3, 21, vec![EncodingWorker]);
        let wired_series = wired.run_sampled(1_500, 500).unwrap();

        for r in in_process.reports() {
            assert_eq!(
                r.mean_uncoop_rep, None,
                "an empty cohort reports no mean, not 0.0"
            );
        }
        assert_eq!(in_process.mean_uncooperative_reputation(), None);
        assert_eq!(wired.mean_uncooperative_reputation(), None);
        // The dense cohort's weighted mean is bit-identical through
        // the wire, and so is every sampled series value.
        assert_eq!(
            in_process.mean_cooperative_reputation().map(f64::to_bits),
            wired.mean_cooperative_reputation().map(f64::to_bits)
        );
        assert_eq!(in_process_series, wired_series);

        // An `Option` series with absent samples survives a wire
        // round trip exactly (the encoding is a tagged Option, not a
        // 0.0 substitute).
        let mut report = in_process.reports()[0].clone();
        report.series = vec![Some(0.25), None, Some(0.0)];
        let bytes = replend_wire::to_bytes(&report).unwrap();
        let back: CommunityReport = replend_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, report);
    }

    /// A transport that proxies [`run_job`] through an extra
    /// encode/decode of every message — the in-memory twin of the
    /// subprocess path, proving the merge is transport-independent
    /// without spawning processes.
    struct EncodingWorker;

    impl Worker for EncodingWorker {
        fn run(&mut self, job: &WorkerJob) -> Result<Vec<CommunityReport>, WorkerError> {
            let job_bytes = replend_wire::to_bytes(job)?;
            let decoded: WorkerJob = replend_wire::from_bytes(&job_bytes)?;
            run_job(&decoded)
                .into_iter()
                .map(|r| Ok(replend_wire::from_bytes(&replend_wire::to_bytes(&r)?)?))
                .collect()
        }
    }

    #[test]
    fn wire_transport_is_byte_identical_to_in_process() {
        let run = |workers: usize| -> (Population, CommunityStats, Vec<u64>, Option<u64>) {
            let mut cluster = if workers == 0 {
                CommunityCluster::build(small_builder(), 5, 13)
            } else {
                CommunityCluster::with_workers(
                    small_builder(),
                    5,
                    13,
                    (0..workers).map(|_| InProcessWorker).collect(),
                )
            };
            cluster.set_histogram_buckets(10);
            cluster.set_sample_interval(500);
            cluster.run(2_000).unwrap();
            (
                cluster.population(),
                cluster.stats(),
                cluster.reputation_histogram().unwrap().buckets().to_vec(),
                cluster.mean_cooperative_reputation().map(f64::to_bits),
            )
        };
        let baseline = run(0);
        // More workers than one, and more workers than communities.
        assert_eq!(run(2), baseline);
        assert_eq!(run(7), baseline);

        // And through a full encode/decode of jobs and reports.
        let mut wired =
            CommunityCluster::with_workers(small_builder(), 5, 13, vec![EncodingWorker]);
        wired.set_histogram_buckets(10);
        wired.set_sample_interval(500);
        wired.run(2_000).unwrap();
        assert_eq!(wired.population(), baseline.0);
        assert_eq!(wired.stats(), baseline.1);
        assert_eq!(
            wired.reputation_histogram().unwrap().buckets().to_vec(),
            baseline.2
        );
        assert_eq!(
            wired.mean_cooperative_reputation().map(f64::to_bits),
            baseline.3,
            "the merged mean must survive the wire bit-exactly"
        );
    }
}
