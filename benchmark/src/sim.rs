//! The simulation workloads: community ticks driven through
//! `replend_core::Community`.
//!
//! The untraced run builds the community (the set-up), then steps it
//! until the time is up, timing every eighth tick for the tick-latency
//! figures. The traced run first repeats the untraced run, then
//!
//! * (a) replays the same communities for exactly the same tick counts
//!   with every `Community::step` timed and classified by the change in
//!   `stats()`, checking that the stats come out identical;
//! * (b) drives a `RocqEngine` and a `Topology` of the same population
//!   size and topology kind through their public functions, with the
//!   call counts (a) measured.

use crate::report::Report;
use crate::stats::{median, Samples, Windows};
use crate::sys::{clock_cost_ns, ns};
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use replend_core::community::BA_ATTACHMENT;
use replend_core::stats::{CommunityStats, Population};
use replend_core::{Community, CommunityBuilder, EngineKind};
use replend_rocq::RocqParams;
use replend_topology::build_topology;
use replend_types::hash::seed_for_run;
use replend_types::{Feedback, PeerId, Reputation, ReputationDelta, Table1};
use std::hint::black_box;
use std::time::Instant;

/// One simulation workload.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// Founding members (`numInit`).
    pub founders: usize,
    /// Poisson departure rate per tick.
    pub departure_rate: f64,
    /// The engine's crash-loss probability per re-homing.
    pub crash_prob: f64,
    /// How much stepping one run does.
    pub length: Length,
    /// Builds timed for `setup_s` before measuring (paper runs instead
    /// time the build of every run).
    pub setups: usize,
}

/// How much stepping one run does.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// Whole Table-1 runs (`numTrans` ticks each, a fresh community and
    /// seed per run), repeated until `--seconds` is up. Each complete
    /// run is one measurement window.
    PaperRuns,
    /// One community stepped for `per_second` ticks per second of
    /// `--seconds`, calibrated so a run takes about that long on the
    /// reference host. Every build does the same work, so a faster
    /// build does not step further into the run-length drift; the ticks
    /// fall into [`TICK_WINDOWS`] equal windows.
    Ticks { per_second: u64 },
}

/// `sim_table1`: the exact Table-1 run, repeated.
pub const TABLE1: SimSpec = SimSpec {
    founders: 500,
    departure_rate: 0.0,
    crash_prob: 0.0,
    length: Length::PaperRuns,
    setups: 0,
};

/// `sim_churn_50k`: 50 000 founders with departures and engine crashes.
pub const CHURN_50K: SimSpec = SimSpec {
    founders: 50_000,
    departure_rate: 0.005,
    crash_prob: 0.1,
    length: Length::Ticks { per_second: 36_000 },
    setups: 5,
};

/// The Figure-2 sampling interval (ticks).
const SAMPLE_EVERY: u64 = 5_000;
/// Ticks stepped between clock checks.
const CHUNK: u64 = 1_024;
/// One tick in this many is timed for the end-to-end tick latency.
const LATENCY_EVERY: u64 = 8;
/// Measurement windows of a [`Length::Ticks`] run.
const TICK_WINDOWS: u64 = 15;
/// Leading windows left out of the medians while caches fill.
const WARMUP_WINDOWS: usize = 1;
/// Upper bound on the calls of each kind made in layer isolation.
const ISOLATION_CAP: u64 = 200_000;

impl SimSpec {
    fn config(&self) -> Table1 {
        Table1::paper_defaults().with_num_init(self.founders)
    }

    fn builder(&self, seed: u64) -> CommunityBuilder {
        CommunityBuilder::new(self.config())
            .seed(seed)
            .departure_rate(self.departure_rate)
            .engine(self.engine())
    }

    fn engine(&self) -> EngineKind {
        EngineKind::Rocq(RocqParams {
            crash_prob: self.crash_prob,
            ..RocqParams::default()
        })
    }
}

/// One community stepped during the measurement.
#[derive(Clone, Debug)]
struct Segment {
    seed: u64,
    ticks: u64,
    step_ns: f64,
    stats: CommunityStats,
    population: Population,
    messages: u64,
}

/// What the untraced run measured.
struct Untraced {
    setup_s: Vec<f64>,
    segments: Vec<Segment>,
    windows: Windows,
    /// `(cumulative stepping ns, cumulative ticks)` at every chunk end.
    progress: Vec<(f64, u64)>,
    figure2: Figure2,
}

/// The Figure-2 sampler's readings, folded so they cannot be optimised
/// away and can be range-checked.
#[derive(Clone, Copy, Debug, Default)]
struct Figure2 {
    samples: u64,
    out_of_range: u64,
}

impl Figure2 {
    fn sample(&mut self, c: &Community) {
        let pop = black_box(c.population());
        self.samples += 1;
        for mean in [
            c.mean_cooperative_reputation(),
            c.mean_uncooperative_reputation(),
        ]
        .into_iter()
        .flatten()
        {
            if !(0.0..=1.0).contains(&mean) {
                self.out_of_range += 1;
            }
        }
        if pop.members != pop.cooperative + pop.uncooperative {
            self.out_of_range += 1;
        }
    }
}

/// Total protocol messages sent by one community.
fn messages(c: &Community) -> u64 {
    let m = c.messages();
    m.introduction_requests + m.deduct_stake + m.credit_sent + m.responses + m.audit_verdicts
}

/// Runs a simulation workload and fills `report`.
pub fn run(spec: SimSpec, args: &Args, report: &mut Report) {
    let untraced = run_untraced(spec, args);
    report_untraced(spec, &untraced, report);
    if report.traced() {
        let counts = run_traced(spec, &untraced, report);
        isolate_layers(spec, args.seed, &counts, report);
    }
}

fn run_untraced(spec: SimSpec, args: &Args) -> Untraced {
    let mut run = Untraced {
        setup_s: Vec::new(),
        segments: Vec::new(),
        windows: Windows::new(),
        progress: Vec::new(),
        figure2: Figure2::default(),
    };
    let paper_runs = matches!(spec.length, Length::PaperRuns);
    let (limit, window) = match spec.length {
        Length::PaperRuns => {
            let horizon = spec.config().sim.num_trans;
            (horizon, horizon)
        }
        Length::Ticks { per_second } => {
            let total = ((per_second as f64 * args.seconds) as u64).max(1);
            (total, (total / TICK_WINDOWS).max(1))
        }
    };
    let time_left = |since: Instant| !paper_runs || since.elapsed().as_secs_f64() < args.seconds;
    let mut stepping_ns = 0.0;
    let mut total_ticks = 0u64;
    let mut built: Option<Community> = None;
    for _ in 0..spec.setups {
        drop(built.take());
        let t = Instant::now();
        built = Some(spec.builder(args.seed).build());
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup_end = Instant::now();
    for index in 0.. {
        if !time_left(setup_end) {
            break;
        }
        let seed = if paper_runs {
            seed_for_run(args.seed, index)
        } else if index == 0 {
            args.seed
        } else {
            break;
        };
        let mut c = match built.take() {
            Some(c) => c,
            None => {
                let t = Instant::now();
                let c = spec.builder(seed).build();
                run.setup_s.push(t.elapsed().as_secs_f64());
                c
            }
        };
        let mut ticks = 0u64;
        let mut seg_ns = 0.0;
        while ticks < limit && time_left(setup_end) {
            // Chunks end on window edges.
            let n = CHUNK.min(limit - ticks).min(window - ticks % window);
            let t0 = Instant::now();
            for _ in 0..n {
                ticks += 1;
                if ticks % LATENCY_EVERY == 0 {
                    let a = Instant::now();
                    c.step();
                    run.windows.latency(ns(a, Instant::now()));
                } else {
                    c.step();
                }
                if ticks % SAMPLE_EVERY == 0 {
                    run.figure2.sample(&c);
                }
            }
            let chunk_ns = ns(t0, Instant::now());
            seg_ns += chunk_ns;
            total_ticks += n;
            run.progress.push((stepping_ns + seg_ns, total_ticks));
            run.windows.work(n, chunk_ns / 1e9);
            if ticks % window == 0 {
                run.windows.close();
            }
        }
        stepping_ns += seg_ns;
        run.segments.push(Segment {
            seed,
            ticks,
            step_ns: seg_ns,
            stats: *c.stats(),
            population: c.population(),
            messages: messages(&c),
        });
    }
    run
}

/// Population bookkeeping that must balance after any run.
fn conservation(spec: SimSpec, seg: &Segment, peers_seen: Option<usize>) -> Result<(), String> {
    let (p, s) = (seg.population, seg.stats);
    let mut broken = Vec::new();
    if p.members != p.cooperative + p.uncooperative {
        broken.push("members != cooperative + uncooperative".to_string());
    }
    let accounted = p.members + p.waiting + p.refused + p.flagged + p.departed;
    let arrived = spec.founders as u64 + s.arrived_total();
    if accounted as u64 != arrived {
        broken.push(format!(
            "{accounted} peers accounted for, {arrived} arrived"
        ));
    }
    if let Some(seen) = peers_seen {
        if seen != accounted {
            broken.push(format!("{seen} peers seen, {accounted} accounted for"));
        }
    }
    if p.departed as u64 != s.departures {
        broken.push(format!(
            "{} departed, {} departures",
            p.departed, s.departures
        ));
    }
    let admitted = spec.founders as u64 + s.admitted_total();
    if (p.members + p.departed + p.flagged) as u64 != admitted {
        broken.push(format!(
            "{} members + departed + flagged, {admitted} admitted",
            p.members + p.departed + p.flagged
        ));
    }
    if (p.refused + p.flagged) as u64 != s.refused_total() + s.flagged_malicious {
        broken.push("refusals do not match the refusal counters".into());
    }
    if s.ticks != seg.ticks {
        broken.push(format!("{} ticks counted, {} stepped", s.ticks, seg.ticks));
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("seed {}: {}", seg.seed, broken.join("; ")))
    }
}

fn report_untraced(spec: SimSpec, run: &Untraced, report: &mut Report) {
    for seg in &run.segments {
        report.check(seg.ticks > 0, || {
            format!("seed {} stepped no ticks", seg.seed)
        });
        if let Err(e) = conservation(spec, seg, None) {
            report.check(false, || format!("population conservation: {e}"));
        }
    }
    report.check(run.figure2.out_of_range == 0, || {
        format!("{} Figure-2 samples out of range", run.figure2.out_of_range)
    });
    report.attempted = run.segments.iter().map(|s| s.ticks).sum();

    // Medians over windows: whole paper runs, or equal tick ranges of
    // the single long community.
    let summary = run.windows.summary(WARMUP_WINDOWS);
    report.set("setup_s", median(&run.setup_s));
    report.set("ops_per_s", summary.rate);
    report.set_quantile("op_latency_p50_us", summary.p50, 1e-3);
    report.set_quantile("op_latency_p90_us", summary.p90, 1e-3);
    report.set_quantile("op_latency_p99_us", summary.p99, 1e-3);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb());

    let (first, last) = tenths(&run.progress);
    report.set("community.ticks_per_s.first_tenth", first);
    report.set("community.ticks_per_s.last_tenth", last);

    report.note("run.communities", run.segments.len().to_string());
    report.note("run.windows", summary.windows.to_string());
    report.note("run.ticks", report.attempted.to_string());
    report.note("run.setups", run.setup_s.len().to_string());
    report.note("run.figure2_samples", run.figure2.samples.to_string());
    report.note("run.tick_latency_every", LATENCY_EVERY.to_string());
}

/// Tick rates over the first and last tenth of the stepping time.
fn tenths(progress: &[(f64, u64)]) -> (f64, f64) {
    let Some(&(total_ns, total_ticks)) = progress.last() else {
        return (0.0, 0.0);
    };
    let ticks_at = |t: f64| -> f64 {
        let mut prev = (0.0, 0u64);
        for &(at, ticks) in progress {
            if at >= t {
                let span = at - prev.0;
                let frac = if span > 0.0 { (t - prev.0) / span } else { 1.0 };
                return prev.1 as f64 + frac * (ticks - prev.1) as f64;
            }
            prev = (at, ticks);
        }
        total_ticks as f64
    };
    let tenth = total_ns / 10.0;
    let secs = tenth / 1e9;
    let first = ticks_at(tenth) / secs;
    let last = (total_ticks as f64 - ticks_at(total_ns - tenth)) / secs;
    (first, last)
}

/// Tick kinds, by what the tick changed in `stats()`. A tick that did
/// several things takes the first kind in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TickKind {
    Depart,
    Resolve,
    Audit,
    Arrival,
    Transact,
}

const KINDS: [(TickKind, &str); 5] = [
    (TickKind::Transact, "transact"),
    (TickKind::Arrival, "arrival"),
    (TickKind::Resolve, "resolve"),
    (TickKind::Audit, "audit"),
    (TickKind::Depart, "depart"),
];

fn classify(before: &CommunityStats, after: &CommunityStats) -> TickKind {
    let resolved = |s: &CommunityStats| {
        s.admitted_total()
            + s.refused_introducer_reputation
            + s.refused_selective
            + s.flagged_malicious
    };
    if after.departures != before.departures {
        TickKind::Depart
    } else if resolved(after) != resolved(before) {
        TickKind::Resolve
    } else if after.audits_passed + after.audits_failed
        != before.audits_passed + before.audits_failed
    {
        TickKind::Audit
    } else if after.arrived_total() != before.arrived_total() {
        TickKind::Arrival
    } else {
        TickKind::Transact
    }
}

/// Call counts measured by the traced replay, for layer isolation.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    ticks: u64,
    served: u64,
    arrived: u64,
    admitted: u64,
    departures: u64,
    flagged: u64,
    /// Members of the last community at its end: the population size
    /// layer isolation builds.
    members: usize,
}

fn run_traced(spec: SimSpec, run: &Untraced, report: &mut Report) -> Counts {
    let clock = clock_cost_ns();
    let mut step = Samples::new();
    let mut kind_ns = [0.0f64; 5];
    let mut kind_ticks = [0u64; 5];
    let mut traced_ns = 0.0;
    let mut untraced_ns = 0.0;
    let mut totals = CommunityStats::default();
    let mut messages_total = 0u64;
    let mut counts = Counts::default();
    let mut figure2 = Figure2::default();
    for seg in &run.segments {
        let mut c = spec.builder(seg.seed).build();
        let seg_start = Instant::now();
        let mut before = *c.stats();
        for tick in 1..=seg.ticks {
            let a = Instant::now();
            c.step();
            let b = Instant::now();
            let after = *c.stats();
            let t = (ns(a, b) - clock).max(0.0);
            step.record(t);
            let k = KINDS
                .iter()
                .position(|&(k, _)| k == classify(&before, &after))
                .expect("every kind is listed");
            kind_ns[k] += t;
            kind_ticks[k] += 1;
            before = after;
            if tick % SAMPLE_EVERY == 0 {
                figure2.sample(&c);
            }
        }
        traced_ns += ns(seg_start, Instant::now());
        untraced_ns += seg.step_ns;
        let replay = Segment {
            stats: *c.stats(),
            population: c.population(),
            messages: messages(&c),
            ..seg.clone()
        };
        report.check(replay.stats == seg.stats, || {
            format!(
                "seed {}: traced stats {:?} differ from untraced {:?}",
                seg.seed, replay.stats, seg.stats
            )
        });
        report.check(
            replay.population == seg.population && replay.messages == seg.messages,
            || format!("seed {}: traced population or messages differ", seg.seed),
        );
        if let Err(e) = conservation(spec, &replay, Some(c.peers_seen())) {
            report.check(false, || format!("population conservation (traced): {e}"));
        }
        totals.accumulate(c.stats());
        messages_total += replay.messages;
        counts.members = replay.population.members;
    }

    let sorted = step.sorted();
    report.set_quantile("community.step.p50_ns", sorted.median(), 1.0);
    report.set_quantile("community.step.p99_ns", sorted.tail(99.0), 1.0);
    for (i, &(_, name)) in KINDS.iter().enumerate() {
        let mean = if kind_ticks[i] > 0 {
            kind_ns[i] / kind_ticks[i] as f64
        } else {
            0.0
        };
        report.set(&format!("community.step.{name}.mean_ns"), mean);
        report.set(&format!("community.ticks.{name}"), kind_ticks[i] as f64);
    }
    report.set("trace.overhead_frac", traced_ns / untraced_ns - 1.0);

    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    report.set(
        "community.served_frac",
        ratio(totals.served_transactions, totals.ticks),
    );
    report.set(
        "lending.admit_frac",
        ratio(totals.admitted_total(), totals.arrived_total()),
    );
    report.set(
        "lending.audit_pass_frac",
        ratio(
            totals.audits_passed,
            totals.audits_passed + totals.audits_failed,
        ),
    );
    report.set(
        "messages.per_admission",
        ratio(messages_total, totals.admitted_total()),
    );
    report.note("trace.clock_cost_ns", format!("{clock}"));

    counts.ticks = totals.ticks;
    counts.served = totals.served_transactions;
    counts.arrived = totals.arrived_total();
    counts.admitted = totals.admitted_total();
    counts.departures = totals.departures;
    counts.flagged = totals.flagged_malicious;
    counts
}

/// (b): the engine and the topology driven directly, at the workload's
/// population size and topology kind, with the call counts of (a)
/// (each capped at [`ISOLATION_CAP`]). Reported as per-call means.
fn isolate_layers(spec: SimSpec, seed: u64, counts: &Counts, report: &mut Report) {
    let clock = clock_cost_ns();
    let config = spec.config();
    let n = counts.members.max(2) as u64;
    let cap = |c: u64| c.min(ISOLATION_CAP);
    let mut keys = crate::loadgen::Rng::new(seed, 3);

    let mut engine = spec.engine().build(&config.sim, seed);
    let mut deltas: Vec<ReputationDelta> = Vec::new();
    for p in 0..n {
        engine.register_peer(PeerId(p), Reputation::ONE);
    }
    engine.drain_deltas(&mut deltas);
    deltas.clear();

    // report_batch, each followed by drain_deltas, as the tick does.
    let reports = cap(counts.served);
    let batches: Vec<[Feedback; 2]> = (0..reports)
        .map(|_| {
            let a = keys.below(n);
            let b = (a + 1 + keys.below(n - 1)) % n;
            let opinion = (keys.below(4) != 0) as u8 as f64;
            [
                Feedback::new(PeerId(a), PeerId(b), opinion),
                Feedback::new(PeerId(b), PeerId(a), opinion),
            ]
        })
        .collect();
    let (mut report_ns, mut drain_ns) = (0.0, 0.0);
    for batch in &batches {
        let a = Instant::now();
        engine.report_batch(batch);
        let b = Instant::now();
        engine.drain_deltas(&mut deltas);
        let c = Instant::now();
        deltas.clear();
        report_ns += (ns(a, b) - clock).max(0.0);
        drain_ns += (ns(b, c) - clock).max(0.0);
    }
    report.set("rocq.engine.report_batch.mean_ns", mean(report_ns, reports));
    report.set("rocq.engine.drain_deltas.mean_ns", mean(drain_ns, reports));

    // reputation: one per tick (the requester) and one per admission.
    let reads = cap(counts.ticks + counts.admitted);
    let probes: Vec<PeerId> = (0..reads).map(|_| PeerId(keys.below(n))).collect();
    let a = Instant::now();
    for &p in &probes {
        black_box(engine.reputation(black_box(p)));
    }
    report.set(
        "rocq.engine.reputation.mean_ns",
        mean(ns(a, Instant::now()), reads),
    );

    // register_peer (arrivals admitted) and remove_peer (departures),
    // each with its delta drain outside the timed call.
    let joins = cap(counts.admitted);
    let mut join_ns = 0.0;
    for p in n..n + joins {
        let a = Instant::now();
        engine.register_peer(PeerId(p), Reputation::new(config.lending.intro_amt));
        join_ns += (ns(a, Instant::now()) - clock).max(0.0);
        engine.drain_deltas(&mut deltas);
        deltas.clear();
    }
    report.set("rocq.engine.register_peer.mean_ns", mean(join_ns, joins));
    let leaves = cap(counts.departures).min(n);
    let victims = distinct(&mut keys, n, leaves);
    let mut leave_ns = 0.0;
    for &p in &victims {
        let a = Instant::now();
        engine.remove_peer(PeerId(p));
        leave_ns += (ns(a, Instant::now()) - clock).max(0.0);
        engine.drain_deltas(&mut deltas);
        deltas.clear();
    }
    report.set("rocq.engine.remove_peer.mean_ns", mean(leave_ns, leaves));
    drop(engine);

    // The topology: respondent and introducer choice (sample), requester
    // and departure choice (sample_uniform), departures and flags
    // (remove_peer).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topology = build_topology(config.sim.topology, n as usize, BA_ATTACHMENT);
    for p in 0..n {
        topology.add_peer(PeerId(p), &mut rng);
    }
    let samples = cap(counts.ticks + counts.arrived);
    let a = Instant::now();
    for _ in 0..samples {
        black_box(topology.sample(&mut rng, None));
    }
    report.set(
        "topology.sample.mean_ns",
        mean(ns(a, Instant::now()), samples),
    );
    let uniform = cap(counts.ticks + counts.departures);
    let a = Instant::now();
    for _ in 0..uniform {
        black_box(topology.sample_uniform(&mut rng, None));
    }
    report.set(
        "topology.sample_uniform.mean_ns",
        mean(ns(a, Instant::now()), uniform),
    );
    let removals = cap(counts.departures + counts.flagged).min(n);
    let gone = distinct(&mut keys, n, removals);
    let mut remove_ns = 0.0;
    for &p in &gone {
        let a = Instant::now();
        topology.remove_peer(PeerId(p));
        remove_ns += (ns(a, Instant::now()) - clock).max(0.0);
    }
    report.set("topology.remove_peer.mean_ns", mean(remove_ns, removals));

    report.note(
        "isolation.calls",
        format!(
            "{{\"population\": {n}, \"report_batch\": {reports}, \"reputation\": {reads}, \
             \"register_peer\": {joins}, \"remove_peer\": {leaves}, \"topology.sample\": {samples}, \
             \"topology.sample_uniform\": {uniform}, \"topology.remove_peer\": {removals}}}"
        ),
    );
}

fn mean(total_ns: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns / calls as f64
    }
}

/// `k` distinct ids drawn from `0..n` (a partial Fisher–Yates shuffle).
fn distinct(rng: &mut crate::loadgen::Rng, n: u64, k: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n).collect();
    for i in 0..k as usize {
        let j = i + rng.below(n - i as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(k as usize);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CommunityStats {
        CommunityStats::default()
    }

    #[test]
    fn ticks_are_classified_by_what_changed() {
        let before = stats();
        let mut after = stats();
        after.ticks = 1;
        assert_eq!(classify(&before, &after), TickKind::Transact);
        after.arrived_cooperative = 1;
        assert_eq!(classify(&before, &after), TickKind::Arrival);
        after.audits_failed = 1;
        assert_eq!(classify(&before, &after), TickKind::Audit);
        after.refused_selective = 1;
        assert_eq!(classify(&before, &after), TickKind::Resolve);
        after.departures = 1;
        assert_eq!(classify(&before, &after), TickKind::Depart);
    }

    #[test]
    fn tenths_read_the_rate_at_both_ends_of_the_window() {
        // 10 s at 100 ticks/s, then 10 s at 50 ticks/s.
        let progress: Vec<(f64, u64)> = (1..=20)
            .map(|s| {
                let ticks = if s <= 10 {
                    100 * s
                } else {
                    1_000 + 50 * (s - 10)
                };
                (s as f64 * 1e9, ticks as u64)
            })
            .collect();
        let (first, last) = tenths(&progress);
        assert!((first - 100.0).abs() < 1e-9, "{first}");
        assert!((last - 50.0).abs() < 1e-9, "{last}");
    }

    #[test]
    fn a_short_table1_community_balances_its_population() {
        let spec = TABLE1;
        let mut c = spec.builder(9).build();
        c.run(3_000);
        let seg = Segment {
            seed: 9,
            ticks: 3_000,
            step_ns: 1.0,
            stats: *c.stats(),
            population: c.population(),
            messages: messages(&c),
        };
        assert_eq!(conservation(spec, &seg, Some(c.peers_seen())), Ok(()));
        let mut broken = seg.clone();
        broken.population.refused += 1;
        assert!(conservation(spec, &broken, None).is_err());
    }

    /// The engine calls of one whole Table-1 paper run, as
    /// `serve_online`'s op mix counts them (`[report_batch,
    /// register_peer, credit, debit]`), and the mean cooperative share of
    /// the members at the Figure-2 samples.
    fn table1_traffic(seed: u64) -> ([u64; 4], f64) {
        let mut c = TABLE1.builder(seed).build();
        let (mut share, mut samples) = (0.0, 0u32);
        for tick in 1..=TABLE1.config().sim.num_trans {
            c.step();
            if tick % SAMPLE_EVERY == 0 {
                let p = c.population();
                share += p.cooperative as f64 / p.members as f64;
                samples += 1;
            }
        }
        let s = c.stats();
        // A loan debits the introducer and registers the newcomer; a
        // passed audit credits the introducer; a failed audit or a flag
        // debits the newcomer.
        let admitted = s.admitted_total();
        let calls = [
            s.served_transactions,
            admitted,
            s.audits_passed,
            admitted + s.audits_failed + s.flagged_malicious,
        ];
        (calls, share / f64::from(samples))
    }

    #[test]
    fn online_mix_follows_table1_traffic() {
        use crate::loadgen::{CREDIT_PPM, DEBIT_PPM, HONEST_SHARE, REGISTER_PPM};
        let seeds = [1, 2, 3, 4];
        let (mut calls, mut share) = ([0u64; 4], 0.0);
        for seed in seeds {
            let (c, s) = table1_traffic(seed);
            for (total, c) in calls.iter_mut().zip(c) {
                *total += c;
            }
            share += s / seeds.len() as f64;
        }
        let total: u64 = calls.iter().sum();
        let measured: Vec<f64> = calls[1..]
            .iter()
            .map(|&c| c as f64 * 1e6 / total as f64)
            .collect();
        let declared = [REGISTER_PPM, CREDIT_PPM, DEBIT_PPM];
        for (m, d) in measured.iter().zip(declared) {
            assert!(
                (m / d as f64 - 1.0).abs() < 0.1,
                "measured {measured:?} ppm, declared {declared:?}"
            );
        }
        assert!(
            (share - HONEST_SHARE).abs() < 0.02,
            "measured cooperative share {share}, declared {HONEST_SHARE}"
        );
    }
}
