//! Shared experiment machinery: run a configuration `n` times with
//! derived seeds, average the metrics each figure reads out.
//!
//! Repeated runs execute as a
//! [`CommunityCluster`] — K
//! independent communities stepped in parallel on the rayon pool,
//! with the same `seed_for_run` schedule the serial path uses, so
//! results are bit-identical to running them one after another.

use replend_core::community::{Community, CommunityBuilder};
use replend_core::stats::{CommunityStats, Population};
use replend_core::{BootstrapPolicy, CommunityCluster, CommunityReport, EngineKind};
use replend_types::Table1;
use serde::{Deserialize, Serialize};

/// Everything a figure might need from one finished run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Cooperative members at the end of the run.
    pub coop_members: f64,
    /// Uncooperative members at the end of the run.
    pub uncoop_members: f64,
    /// Arrivals still waiting out the introduction period.
    pub waiting: f64,
    /// "Entry Refused due to Introducer Reputation" (Figures 4, 6).
    pub refused_introducer_rep: f64,
    /// "Entry Refused to Uncooperative Peer" (Figures 4, 6).
    pub refused_selective: f64,
    /// Cooperative arrivals over the run.
    pub arrived_coop: f64,
    /// Uncooperative arrivals over the run.
    pub arrived_uncoop: f64,
    /// Cooperative arrivals admitted.
    pub admitted_coop: f64,
    /// Uncooperative arrivals admitted.
    pub admitted_uncoop: f64,
    /// §4.1 decision success rate.
    pub success_rate: f64,
    /// Audits passed / failed.
    pub audits_passed: f64,
    /// Audits with unsatisfactory verdicts.
    pub audits_failed: f64,
    /// Mean reputation of cooperative members at the end.
    pub mean_coop_rep: f64,
    /// Mean reputation of uncooperative members at the end (0 when
    /// none).
    pub mean_uncoop_rep: f64,
}

impl RunMetrics {
    /// Element-wise mean of several runs.
    pub fn average(runs: &[RunMetrics]) -> RunMetrics {
        let n = runs.len().max(1) as f64;
        let mut acc = RunMetrics::default();
        for r in runs {
            acc.coop_members += r.coop_members;
            acc.uncoop_members += r.uncoop_members;
            acc.waiting += r.waiting;
            acc.refused_introducer_rep += r.refused_introducer_rep;
            acc.refused_selective += r.refused_selective;
            acc.arrived_coop += r.arrived_coop;
            acc.arrived_uncoop += r.arrived_uncoop;
            acc.admitted_coop += r.admitted_coop;
            acc.admitted_uncoop += r.admitted_uncoop;
            acc.success_rate += r.success_rate;
            acc.audits_passed += r.audits_passed;
            acc.audits_failed += r.audits_failed;
            acc.mean_coop_rep += r.mean_coop_rep;
            acc.mean_uncoop_rep += r.mean_uncoop_rep;
        }
        RunMetrics {
            coop_members: acc.coop_members / n,
            uncoop_members: acc.uncoop_members / n,
            waiting: acc.waiting / n,
            refused_introducer_rep: acc.refused_introducer_rep / n,
            refused_selective: acc.refused_selective / n,
            arrived_coop: acc.arrived_coop / n,
            arrived_uncoop: acc.arrived_uncoop / n,
            admitted_coop: acc.admitted_coop / n,
            admitted_uncoop: acc.admitted_uncoop / n,
            success_rate: acc.success_rate / n,
            audits_passed: acc.audits_passed / n,
            audits_failed: acc.audits_failed / n,
            mean_coop_rep: acc.mean_coop_rep / n,
            mean_uncoop_rep: acc.mean_uncoop_rep / n,
        }
    }
}

/// One x-axis point of a sweep, with averaged metrics.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// The sweep variable (λ, f_naive, introAmt, % uncooperative, …).
    pub x: f64,
    /// Metrics averaged over the runs at this point.
    pub metrics: RunMetrics,
}

/// Reads the metrics out of a finished community.
pub fn metrics_of(community: &Community) -> RunMetrics {
    metrics_from_parts(
        &community.population(),
        community.stats(),
        community.mean_cooperative_reputation(),
        community.mean_uncooperative_reputation(),
    )
}

/// Reads the metrics out of a cluster report — the same arithmetic
/// as [`metrics_of`], so a cluster run cannot change figure output.
pub fn metrics_of_report(report: &CommunityReport) -> RunMetrics {
    metrics_from_parts(
        &report.population,
        &report.stats,
        report.mean_coop_rep,
        report.mean_uncoop_rep,
    )
}

fn metrics_from_parts(
    pop: &Population,
    stats: &CommunityStats,
    mean_coop_rep: Option<f64>,
    mean_uncoop_rep: Option<f64>,
) -> RunMetrics {
    RunMetrics {
        coop_members: pop.cooperative as f64,
        uncoop_members: pop.uncooperative as f64,
        waiting: pop.waiting as f64,
        refused_introducer_rep: stats.refused_introducer_reputation as f64,
        refused_selective: stats.refused_selective as f64,
        arrived_coop: stats.arrived_cooperative as f64,
        arrived_uncoop: stats.arrived_uncooperative as f64,
        admitted_coop: stats.admitted_cooperative as f64,
        admitted_uncoop: stats.admitted_uncooperative as f64,
        success_rate: stats.success_rate().unwrap_or(0.0),
        audits_passed: stats.audits_passed as f64,
        audits_failed: stats.audits_failed as f64,
        mean_coop_rep: mean_coop_rep.unwrap_or(0.0),
        mean_uncoop_rep: mean_uncoop_rep.unwrap_or(0.0),
    }
}

/// Executes one run of `ticks` ticks and extracts the metrics.
pub fn run_once(
    config: Table1,
    policy: BootstrapPolicy,
    engine: EngineKind,
    seed: u64,
    ticks: u64,
) -> RunMetrics {
    let mut community = CommunityBuilder::new(config)
        .policy(policy)
        .engine(engine)
        .seed(seed)
        .build();
    community.run(ticks);
    metrics_of(&community)
}

/// Averages `n_runs` seeded runs, executed as a parallel
/// [`CommunityCluster`]. Seed schedule and results are identical to
/// calling [`run_once`] per derived seed.
pub fn run_average(
    config: Table1,
    policy: BootstrapPolicy,
    engine: EngineKind,
    base_seed: u64,
    n_runs: usize,
    ticks: u64,
) -> RunMetrics {
    let builder = CommunityBuilder::new(config).policy(policy).engine(engine);
    let mut cluster = CommunityCluster::build(builder, n_runs, base_seed);
    cluster.run(ticks);
    let runs: Vec<RunMetrics> = cluster.reports().iter().map(metrics_of_report).collect();
    RunMetrics::average(&runs)
}

/// Number of repeated runs per data point; §4.3 of the paper: *"we
/// repeat each run 10 times and average the results"*.
pub const PAPER_RUNS: usize = 10;

/// Run length of the growth experiments (Figures 1, 3, 4, 5, 6):
/// 50 000 ticks (see DESIGN.md §4 for the decoding).
pub const GROWTH_TICKS: u64 = 50_000;

/// Arrival rate of the growth experiments: λ = 0.1.
pub const GROWTH_LAMBDA: f64 = 0.1;

/// Number of runs per point, overridable with `REPLEND_RUNS` (smoke
/// tests of the binaries set it to 1–2).
pub fn env_runs(default: usize) -> usize {
    std::env::var("REPLEND_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Run length in ticks, overridable with `REPLEND_TICKS`.
pub fn env_ticks(default: u64) -> u64 {
    std::env::var("REPLEND_TICKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
