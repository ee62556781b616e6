//! Criterion bench: the engine's per-feedback critical path, dense
//! arena layout vs. the seed layout, at 10 k / 50 k subjects.
//!
//! Groups, all emitted into the machine-readable perf trajectory
//! (`REPLEND_BENCH_JSON`, see the criterion shim):
//!
//! * `hot_path/report_batch/…` — one full-population batch applied
//!   end-to-end, plus the delta drain the community performs after
//!   every batch.
//! * `hot_path_churn/join_leave/…` — one overlay join + leave,
//!   re-homing the moved replica arcs (the path the borrowed-in-place
//!   key index and inline assignment lists speed up).
//! * `hot_path_reads/…` — steady-state snapshot reads: the O(1)
//!   cached `reputation()` probe and the full replica snapshot.
//! * `hot_path_refresh/report_kernel/…` — the fused per-feedback
//!   report + credibility kernel in isolation: the PR 5 scalar walk
//!   over the interleaved `ScoreState` layout (per-lane early return,
//!   serial divide) vs. the PR 7 `report_span` over the split-array
//!   slab (unrolled by 4, branchless selects, pipelined divides).
//! * `hot_path_refresh/refresh_kernel/…` — the cached-aggregate
//!   refresh kernel in isolation, scalar (one sequential sum per
//!   subject over the interleaved `ScoreState` layout — the PR 5
//!   shape) vs. vectorised (the split `r` array with eight
//!   independent accumulator chains via `sum_spans` — the PR 7
//!   shape), at each subject size × numSM ∈ {3, 6, 8}. Both walk
//!   bit-identical summation orders; only memory traffic and
//!   instruction-level parallelism differ.
//!
//! The `seed` layout is [`ReferenceEngine`] — the pre-arena
//! `HashMap`-of-records engine preserved in `replend-rocq` — so the
//! comparison runs in the same binary on the same host. Results are
//! byte-identical between layouts (pinned by the churn oracle in
//! `replend-tests`); this bench measures only the wall-clock
//! difference. The ids keep their historical `/1shards` suffix so
//! they stay comparable with the committed `BENCH_*.json` baselines.
//!
//! `REPLEND_BENCH_SUBJECTS` (comma-separated counts) scales the
//! subject sizes down for CI smoke runs, like `REPLEND_TICKS` does
//! for the figure binaries.

use criterion::{criterion_group, criterion_main, Criterion};
use replend_rocq::score::ScoreState;
use replend_rocq::slab::ScoreSlab;
use replend_rocq::{ReferenceEngine, ReputationEngine, RocqEngine, RocqParams};
use replend_types::{Feedback, PeerId, Reputation};
use std::hint::black_box;

/// Score managers per subject — the Table-1 default.
const NUM_SM: usize = 6;

/// The two memory layouts under comparison.
const LAYOUTS: &[&str] = &["arena", "seed"];

/// Subject-store sizes exercised (10 k is well past the paper's
/// Table-1 scale, 50 k is the ROADMAP scale target), overridable via
/// `REPLEND_BENCH_SUBJECTS` for smoke runs.
fn sizes() -> Vec<usize> {
    match std::env::var("REPLEND_BENCH_SUBJECTS") {
        Ok(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("REPLEND_BENCH_SUBJECTS: comma-separated subject counts")
            })
            .collect(),
        Err(_) => vec![10_000, 50_000],
    }
}

/// An engine of the given layout with `n` registered subjects.
fn engine_of(layout: &str, n: usize) -> Box<dyn ReputationEngine> {
    let params = RocqParams::default();
    let mut e: Box<dyn ReputationEngine> = match layout {
        "arena" => Box::new(RocqEngine::new(params, NUM_SM, 0xE5)),
        "seed" => Box::new(ReferenceEngine::new(params, NUM_SM, 0xE5)),
        other => panic!("unknown layout {other}"),
    };
    for p in 0..n as u64 {
        e.register_peer(PeerId(p), Reputation::ONE);
    }
    e
}

/// One tick's worth of opinions for every subject: `n` feedbacks,
/// reporters striding over the population, opinions alternating.
fn batch_of(n: usize) -> Vec<Feedback> {
    (0..n as u64)
        .map(|i| {
            Feedback::new(
                PeerId((i * 7 + 1) % n as u64),
                PeerId(i % n as u64),
                (i % 2) as f64,
            )
        })
        .collect()
}

fn bench_report_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path");
    for &n in &sizes() {
        let batch = batch_of(n);
        for &layout in LAYOUTS {
            let mut engine = engine_of(layout, n);
            let mut deltas = Vec::new();
            group.bench_function(format!("report_batch/{layout}/{n}subj/1shards"), |b| {
                b.iter(|| {
                    engine.report_batch(black_box(&batch));
                    // Drain like the community does, so the buffers
                    // (and the canonical order) are part of the cost.
                    deltas.clear();
                    engine.drain_deltas(&mut deltas);
                    black_box(deltas.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path_churn");
    for &n in &sizes() {
        for &layout in LAYOUTS {
            let mut engine = engine_of(layout, n);
            let mut next = n as u64;
            group.bench_function(format!("join_leave/{layout}/{n}subj/1shards"), |b| {
                b.iter(|| {
                    // One overlay join (register) and one leave
                    // (remove), each re-homing the moved replica arc.
                    engine.register_peer(PeerId(next), Reputation::HALF);
                    engine.remove_peer(PeerId(next));
                    next += 1;
                    black_box(engine.contains(PeerId(next)))
                })
            });
        }
    }
    group.finish();
}

fn bench_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path_reads");
    for &n in &sizes() {
        // The cached-aggregate probe, both layouts.
        for &layout in LAYOUTS {
            let engine = engine_of(layout, n);
            let mut p = 0u64;
            group.bench_function(format!("reputation/{layout}/{n}subj"), |b| {
                b.iter(|| {
                    p = (p * 31 + 17) % n as u64;
                    black_box(engine.reputation(PeerId(p)))
                })
            });
        }
        // The full replica snapshot (arena engine's inspection API).
        let engine = {
            let mut e = RocqEngine::new(RocqParams::default(), NUM_SM, 0xE5);
            for p in 0..n as u64 {
                e.register_peer(PeerId(p), Reputation::ONE);
            }
            e
        };
        let mut p = 0u64;
        group.bench_function(format!("snapshot/arena/{n}subj"), |b| {
            b.iter(|| {
                p = (p * 31 + 17) % n as u64;
                black_box(engine.snapshot(PeerId(p)).map(|s| s.replicas.len()))
            })
        });
    }
    group.finish();
}

/// Replication factors exercised by the refresh-kernel bench —
/// below, at and above the Table-1 default, covering odd (tail-heavy)
/// and power-of-two strides.
const REFRESH_NUM_SM: &[usize] = &[3, 6, 8];

/// A slab of `lanes` score states with deterministic, non-trivial
/// values (so the summed reputations aren't constant-folded).
fn slab_of(lanes: usize) -> ScoreSlab {
    let mut slab = ScoreSlab::new();
    for i in 0..lanes as u64 {
        let r = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / (1u64 << 24) as f64;
        slab.push(ScoreState::new(Reputation::new(r), 1.0));
    }
    slab
}

/// Feedback-kernel parameters, shared by both layouts (loop-invariant
/// in the engine, hoisted the same way here).
const OPINION: f64 = 0.7;
const QUALITY: f64 = 0.8;
const GAMMA: f64 = 0.1;
const THRESHOLD: f64 = 0.3;
const WEIGHT_CAP: f64 = 40.0;

fn bench_report_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path_refresh");
    for &n in &sizes() {
        for &sm in REFRESH_NUM_SM {
            // Interleaved PR 5 layout + its verbatim scalar walk: the
            // per-lane early return, the serial divide, the branchy
            // credibility update.
            let mut states: Vec<ScoreState> = Vec::with_capacity(n * sm);
            {
                let proto = slab_of(n * sm);
                for i in 0..n * sm {
                    states.push(proto.get(i));
                }
            }
            let mut creds_a = vec![0.6f64; n * sm];
            group.bench_function(format!("report_kernel/scalar/{n}subj/sm{sm}"), |b| {
                b.iter(|| {
                    for s in 0..n {
                        let base = s * sm;
                        for k in 0..sm {
                            let cred = &mut creds_a[base + k];
                            let c = *cred;
                            let state = &mut states[base + k];
                            let prev = state.reputation().value();
                            let agreed = (OPINION - prev).abs() <= THRESHOLD;
                            state.report(OPINION, c * QUALITY, WEIGHT_CAP);
                            *cred = replend_rocq::credibility::credibility_update(c, agreed, GAMMA);
                        }
                    }
                    black_box(states.len())
                })
            });
            // Split-array PR 7 layout + the fused branchless kernel.
            // Both sides mutate bit-identical state trajectories, so
            // the compared work stays identical across iterations.
            let mut slab = slab_of(n * sm);
            let mut creds_b = vec![0.6f64; n * sm];
            group.bench_function(format!("report_kernel/vector/{n}subj/sm{sm}"), |b| {
                b.iter(|| {
                    for s in 0..n {
                        let base = s * sm;
                        slab.report_span(
                            base,
                            sm,
                            &mut creds_b[base..base + sm],
                            OPINION,
                            QUALITY,
                            GAMMA,
                            THRESHOLD,
                            WEIGHT_CAP,
                        );
                    }
                    black_box(slab.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_refresh_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path_refresh");
    for &n in &sizes() {
        for &sm in REFRESH_NUM_SM {
            let slab = slab_of(n * sm);
            // Scalar: the PR 5 refresh — one sequential left-to-right
            // sum per subject over the *interleaved* `ScoreState`
            // layout PR 5 shipped, so every 8-byte reputation read
            // drags its 8-byte evidence-mass neighbour through the
            // cache (twice the traffic of the split `r` array).
            let states: Vec<ScoreState> = (0..n * sm).map(|i| slab.get(i)).collect();
            group.bench_function(format!("refresh_kernel/scalar/{n}subj/sm{sm}"), |b| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for s in 0..n {
                        let span = &states[s * sm..(s + 1) * sm];
                        acc += span.iter().map(|st| st.reputation().value()).sum::<f64>();
                    }
                    black_box(acc)
                })
            });
            // Vectorised: the PR 7 refresh — eight subjects advance
            // in lock-step as independent accumulator chains (the
            // engine's chunking: 8, then 4, then scalar tail).
            // Per-subject sums are bit-identical to the scalar walk.
            group.bench_function(format!("refresh_kernel/vector/{n}subj/sm{sm}"), |b| {
                b.iter(|| {
                    let mut acc = 0.0;
                    let mut s = 0;
                    while s + 8 <= n {
                        let bases: [usize; 8] = std::array::from_fn(|k| (s + k) * sm);
                        let sums = slab.sum_spans(bases, sm);
                        acc += sums.iter().sum::<f64>();
                        s += 8;
                    }
                    while s + 4 <= n {
                        let bases: [usize; 4] = std::array::from_fn(|k| (s + k) * sm);
                        let sums = slab.sum_spans(bases, sm);
                        acc += sums.iter().sum::<f64>();
                        s += 4;
                    }
                    while s < n {
                        acc += slab.sum_span(s * sm, sm);
                        s += 1;
                    }
                    black_box(acc)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_report_batch,
    bench_churn,
    bench_reads,
    bench_report_kernel,
    bench_refresh_kernel
);
criterion_main!(benches);
