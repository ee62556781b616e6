//! Wire-format round-trip property suite: **every type that crosses
//! a process boundary — in a journal, a checkpoint or a `.scn` file —
//! must encode→decode bit-identically**, and a version-bumped envelope
//! must fail decode with the typed error.
//!
//! Bit-identity is asserted at the byte level — `encode(decode(
//! encode(x))) == encode(x)` — which is exactly "the decoded value is
//! indistinguishable on the wire from the original" and stays
//! meaningful for `f64` fields even when the generator produces NaN
//! (the encoding carries the IEEE bit pattern, so even NaN payloads
//! must survive).

use proptest::prelude::*;
use proptest::strategy::Strategy;
use replend_core::serve::{JournalOp, StatusPolicy};
use replend_core::stats::{CommunityStats, Population};
use replend_core::BootstrapPolicy;
use replend_scenario::{
    builtin, decode_scenario, encode_scenario, AdversaryClass, ArrivalPhase, CohortEvent,
    CohortSpec, FaultAction, FaultEvent, MetricsRow, Observation, Scenario, ScenarioError,
    ScenarioOutcome, SCENARIO_MAGIC,
};
use replend_sim::stats::Histogram;
use replend_types::{
    Feedback, LendingParams, PeerId, Reputation, ReputationDelta, SimParams, SimTime, Table1,
    TopologyKind,
};
use replend_wire::{
    decode_checkpoint, encode_checkpoint, from_bytes, to_bytes, write_checkpoint, ByteRun,
    JournalError, JournalReader, JournalWriter, SummaryEnvelope, SyncPolicy, WireError,
    PROTOCOL_VERSION,
};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The largest single allocation this test binary has made, so a
/// decode can be shown not to have sized a buffer from an untrusted
/// length prefix.
static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

struct LargestAllocation;

// SAFETY: delegates every operation to `System`, only recording the
// requested sizes.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAllocation = LargestAllocation;

/// The suite's single oracle: one encode→decode→re-encode cycle must
/// reproduce the exact byte string (and decoding must consume every
/// byte — `from_bytes` rejects trailing input).
fn assert_bit_identical_round_trip<T>(value: &T)
where
    T: Serialize + DeserializeOwned + std::fmt::Debug,
{
    let bytes = to_bytes(value).expect("encode");
    let decoded: T = from_bytes(&bytes).expect("decode");
    let re_encoded = to_bytes(&decoded).expect("re-encode");
    assert_eq!(bytes, re_encoded, "round trip changed the wire bytes");
}

// ---------------------------------------------------------------------------
// Strategies for every boundary-crossing type
// ---------------------------------------------------------------------------

fn any_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (proptest::bool::ANY, proptest::num::f64::ANY).prop_map(|(some, v)| some.then_some(v))
}

fn any_population() -> impl Strategy<Value = Population> {
    (
        proptest::num::usize::ANY,
        proptest::num::usize::ANY,
        proptest::num::usize::ANY,
        proptest::num::usize::ANY,
        proptest::num::usize::ANY,
        proptest::num::usize::ANY,
        proptest::num::usize::ANY,
    )
        .prop_map(
            |(members, cooperative, uncooperative, waiting, refused, flagged, departed)| {
                Population {
                    members,
                    cooperative,
                    uncooperative,
                    waiting,
                    refused,
                    flagged,
                    departed,
                }
            },
        )
}

fn any_stats() -> impl Strategy<Value = CommunityStats> {
    let u = || proptest::num::u64::ANY;
    (
        (u(), u(), u(), u(), u(), u(), u(), u(), u()),
        (u(), u(), u(), u(), u(), u(), u(), u()),
    )
        .prop_map(
            |((a, b, c, d, e, f, g, h, i), (j, k, l, m, n, o, p, q))| CommunityStats {
                arrived_cooperative: a,
                arrived_uncooperative: b,
                admitted_cooperative: c,
                admitted_uncooperative: d,
                refused_introducer_reputation: e,
                refused_selective: f,
                refused_no_introducer: g,
                flagged_malicious: h,
                audits_passed: i,
                audits_failed: j,
                accepted_cooperative: k,
                denied_cooperative: l,
                accepted_uncooperative: m,
                denied_uncooperative: n,
                departures: o,
                ticks: p,
                served_transactions: q,
            },
        )
}

fn any_topology() -> impl Strategy<Value = TopologyKind> {
    (0u32..3).prop_map(|i| match i {
        0 => TopologyKind::Random,
        1 => TopologyKind::Powerlaw,
        _ => TopologyKind::Zipf,
    })
}

fn any_sim_params() -> impl Strategy<Value = SimParams> {
    (
        proptest::num::usize::ANY,
        proptest::num::u64::ANY,
        proptest::num::usize::ANY,
        proptest::num::f64::ANY,
        proptest::num::f64::ANY,
        proptest::num::f64::ANY,
        proptest::num::f64::ANY,
        any_topology(),
    )
        .prop_map(
            |(num_init, num_trans, num_sm, arrival_rate, f_uncoop, f_naive, err_sel, topology)| {
                SimParams {
                    num_init,
                    num_trans,
                    num_sm,
                    arrival_rate,
                    f_uncoop,
                    f_naive,
                    err_sel,
                    topology,
                }
            },
        )
}

fn any_lending_params() -> impl Strategy<Value = LendingParams> {
    (
        proptest::num::f64::ANY,
        proptest::num::f64::ANY,
        proptest::num::u64::ANY,
        proptest::num::u32::ANY,
        proptest::num::f64::ANY,
        any_opt_f64(),
    )
        .prop_map(
            |(intro_amt, reward, wait_period, audit_trans, audit_threshold, min_intro_override)| {
                LendingParams {
                    intro_amt,
                    reward,
                    wait_period,
                    audit_trans,
                    audit_threshold,
                    min_intro_override,
                }
            },
        )
}

fn any_table1() -> impl Strategy<Value = Table1> {
    (any_sim_params(), any_lending_params()).prop_map(|(sim, lending)| Table1 { sim, lending })
}

fn any_policy() -> impl Strategy<Value = BootstrapPolicy> {
    ((0u32..5), proptest::num::f64::ANY).prop_map(|(i, v)| match i {
        0 => BootstrapPolicy::ReputationLending,
        1 => BootstrapPolicy::OpenAdmission { initial: v },
        2 => BootstrapPolicy::FixedCredit { credit: v },
        3 => BootstrapPolicy::PositiveOnly,
        _ => BootstrapPolicy::ComplaintsOnly,
    })
}

/// A journal frame's payload: one opinion batch, the op the service
/// journals most.
fn any_journal_op() -> impl Strategy<Value = JournalOp> {
    proptest::collection::vec(
        (
            proptest::num::u64::ANY,
            proptest::num::u64::ANY,
            proptest::num::f64::ANY,
        ),
        0..24,
    )
    .prop_map(|raw| JournalOp::Batch {
        batch: raw
            .into_iter()
            .map(|(reporter, subject, opinion)| {
                Feedback::new(PeerId(reporter), PeerId(subject), opinion)
            })
            .collect(),
    })
}

fn any_histogram() -> impl Strategy<Value = Histogram> {
    (
        (1usize..40),
        proptest::collection::vec(-0.5f64..1.5, 0..100),
    )
        .prop_map(|(buckets, samples)| {
            let mut h = Histogram::new(0.0, 1.0, buckets);
            for s in samples {
                h.record(s);
            }
            h
        })
}

// ---------------------------------------------------------------------------
// Strategies for the scenario-DSL boundary types (PR 9) — the `.scn`
// file payload and the runner outcome both cross the wire, so they
// get the same bit-identity treatment. The generators deliberately
// produce *semantically invalid* scenarios too (NaN rates, faults
// past the horizon): the wire layer must round-trip anything
// representable; `Scenario::validate` is a separate, later gate.
// ---------------------------------------------------------------------------

fn any_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        proptest::num::u64::ANY.prop_map(|v| format!("cohort-{v:x}")),
        proptest::num::u64::ANY.prop_map(|v| format!("péer-✓-{v}")),
    ]
}

fn any_arrival_phase() -> impl Strategy<Value = ArrivalPhase> {
    (proptest::num::u64::ANY, proptest::num::f64::ANY)
        .prop_map(|(at_tick, rate)| ArrivalPhase { at_tick, rate })
}

fn any_adversary_class() -> impl Strategy<Value = AdversaryClass> {
    let u64s = proptest::num::u64::ANY;
    let u32s = proptest::num::u32::ANY;
    prop_oneof![
        (u64s, u64s, u64s, u32s, u64s, proptest::bool::ANY).prop_map(
            |(at_tick, introducer, honest_ticks, waves, wave_gap, duplicate_probe)| {
                AdversaryClass::CollusionRing {
                    at_tick,
                    introducer,
                    honest_ticks,
                    waves,
                    wave_gap,
                    duplicate_probe,
                }
            }
        ),
        (u64s, u32s, u64s, u64s, proptest::bool::ANY).prop_map(
            |(at_tick, waves, life, introducer_stride, depart_between_waves)| {
                AdversaryClass::Whitewash {
                    at_tick,
                    waves,
                    life,
                    introducer_stride,
                    depart_between_waves,
                }
            }
        ),
        (u64s, u32s, u32s).prop_map(|(at_tick, size, per_tick)| AdversaryClass::SybilFlood {
            at_tick,
            size,
            per_tick,
        }),
        (u64s, u32s, u64s, u32s).prop_map(|(at_tick, size, period, flips)| {
            AdversaryClass::Oscillator {
                at_tick,
                size,
                period,
                flips,
            }
        }),
        (u64s, u32s, u64s).prop_map(|(at_tick, size, milk_after)| AdversaryClass::Milker {
            at_tick,
            size,
            milk_after,
        }),
        (u64s, u32s, u64s).prop_map(|(at_tick, size, every)| AdversaryClass::Freeriders {
            at_tick,
            size,
            every,
        }),
    ]
}

fn any_cohort_spec() -> impl Strategy<Value = CohortSpec> {
    (any_label(), any_adversary_class()).prop_map(|(label, class)| CohortSpec { label, class })
}

fn any_fault_action() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        proptest::num::f64::ANY.prop_map(|fraction| FaultAction::KillFraction { fraction }),
        proptest::num::u32::ANY.prop_map(|groups| FaultAction::Partition { groups }),
        Just(FaultAction::Heal),
        proptest::num::u32::ANY.prop_map(|cohort| FaultAction::FlipCohort { cohort }),
        proptest::num::f64::ANY.prop_map(|rate| FaultAction::SetArrivalRate { rate }),
    ]
}

fn any_fault_event() -> impl Strategy<Value = FaultEvent> {
    (proptest::num::u64::ANY, any_fault_action())
        .prop_map(|(at_tick, action)| FaultEvent { at_tick, action })
}

fn any_status_policy() -> impl Strategy<Value = StatusPolicy> {
    (
        proptest::num::u64::ANY,
        proptest::num::f64::ANY,
        proptest::num::f64::ANY,
    )
        .prop_map(
            |(min_observations, throttle_below, ban_below)| StatusPolicy {
                min_observations,
                throttle_below,
                ban_below,
            },
        )
}

fn any_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            any_label(),
            any_label(),
            proptest::num::u64::ANY,
            proptest::num::u64::ANY,
            proptest::num::u64::ANY,
        ),
        (
            any_table1(),
            any_policy(),
            any_status_policy(),
            proptest::num::f64::ANY,
        ),
        (
            proptest::collection::vec(any_arrival_phase(), 0..4),
            proptest::collection::vec(any_cohort_spec(), 0..4),
            proptest::collection::vec(any_fault_event(), 0..6),
        ),
    )
        .prop_map(
            |(
                (name, description, seed, horizon, metrics_every),
                (config, policy, status, departure_rate),
                (arrival_curve, cohorts, faults),
            )| Scenario {
                name,
                description,
                seed,
                horizon,
                metrics_every,
                config,
                policy,
                status,
                departure_rate,
                arrival_curve,
                cohorts,
                faults,
            },
        )
}

fn any_metrics_row() -> impl Strategy<Value = MetricsRow> {
    let u = || proptest::num::u64::ANY;
    (
        (u(), u(), u(), u()),
        (any_opt_f64(), any_opt_f64()),
        (u(), u(), u()),
        (any_opt_f64(), any_opt_f64()),
    )
        .prop_map(
            |(
                (tick, members, honest, adversaries),
                (honest_mean, adversary_mean),
                (whitelisted, throttled, banned),
                (false_positive_rate, false_negative_rate),
            )| MetricsRow {
                tick,
                members,
                honest,
                adversaries,
                honest_mean,
                adversary_mean,
                whitelisted,
                throttled,
                banned,
                false_positive_rate,
                false_negative_rate,
            },
        )
}

fn any_cohort_event() -> impl Strategy<Value = CohortEvent> {
    let f = proptest::num::f64::ANY;
    let u32s = proptest::num::u32::ANY;
    prop_oneof![
        (proptest::bool::ANY, f)
            .prop_map(|(member, reputation)| CohortEvent::MoleAdmitted { member, reputation }),
        f.prop_map(|reputation| CohortEvent::HonestPhaseDone { reputation }),
        (u32s, proptest::bool::ANY)
            .prop_map(|(wave, admitted)| CohortEvent::WaveResolved { wave, admitted }),
        (u32s, f)
            .prop_map(|(wave, reputation)| CohortEvent::VouchingPowerLost { wave, reputation }),
        (u32s, u32s, f).prop_map(|(admitted, refused, reputation)| CohortEvent::WavesDone {
            admitted,
            refused,
            reputation,
        }),
        (
            proptest::num::u64::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY
        )
            .prop_map(
                |(peer, flagged, reputation_zeroed)| CohortEvent::DuplicateProbe {
                    peer,
                    flagged,
                    reputation_zeroed,
                }
            ),
        (u32s, proptest::bool::ANY)
            .prop_map(|(wave, admitted)| CohortEvent::IdentityResolved { wave, admitted }),
        (u32s, any_opt_f64())
            .prop_map(|(wave, reputation)| CohortEvent::IdentityRetired { wave, reputation }),
        u32s.prop_map(|count| CohortEvent::CohortSpawned { count }),
        u32s.prop_map(|members| CohortEvent::CohortFlipped { members }),
        (any_fault_action(), u32s)
            .prop_map(|(action, affected)| CohortEvent::FaultApplied { action, affected }),
    ]
}

fn any_observation() -> impl Strategy<Value = Observation> {
    (proptest::num::u64::ANY, any_label(), any_cohort_event()).prop_map(|(tick, cohort, event)| {
        Observation {
            tick,
            cohort,
            event,
        }
    })
}

fn any_scenario_outcome() -> impl Strategy<Value = ScenarioOutcome> {
    (
        (any_label(), proptest::num::u64::ANY),
        proptest::collection::vec(any_metrics_row(), 0..4),
        proptest::collection::vec(any_observation(), 0..4),
        (any_population(), any_stats(), proptest::num::u64::ANY),
    )
        .prop_map(
            |(
                (name, ticks_run),
                rows,
                observations,
                (final_population, final_stats, partition_blocked),
            )| ScenarioOutcome {
                name,
                ticks_run,
                rows,
                observations,
                final_population,
                final_stats,
                partition_blocked,
            },
        )
}

// ---------------------------------------------------------------------------
// The round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn identifiers_and_scalars_round_trip(
        peer in proptest::num::u64::ANY,
        rep in proptest::num::f64::ANY,
        time in proptest::num::u64::ANY,
    ) {
        assert_bit_identical_round_trip(&PeerId(peer));
        assert_bit_identical_round_trip(&Reputation::new(rep));
        assert_bit_identical_round_trip(&SimTime(time));
    }

    #[test]
    fn feedback_round_trips(
        reporter in proptest::num::u64::ANY,
        subject in proptest::num::u64::ANY,
        opinion in proptest::num::f64::ANY,
    ) {
        assert_bit_identical_round_trip(&Feedback::new(
            PeerId(reporter),
            PeerId(subject),
            opinion,
        ));
    }

    #[test]
    fn reputation_delta_round_trips(
        subject in proptest::num::u64::ANY,
        old in proptest::num::f64::ANY,
        new in proptest::num::f64::ANY,
    ) {
        assert_bit_identical_round_trip(&ReputationDelta {
            subject: PeerId(subject),
            old: Reputation::new(old),
            new: Reputation::new(new),
        });
    }

    #[test]
    fn population_round_trips(population in any_population()) {
        assert_bit_identical_round_trip(&population);
    }

    #[test]
    fn community_stats_round_trip(stats in any_stats()) {
        assert_bit_identical_round_trip(&stats);
    }

    #[test]
    fn configs_round_trip(config in any_table1()) {
        assert_bit_identical_round_trip(&config.sim);
        assert_bit_identical_round_trip(&config.lending);
        assert_bit_identical_round_trip(&config);
    }

    #[test]
    fn policies_and_engines_round_trip(policy in any_policy()) {
        assert_bit_identical_round_trip(&policy);
    }

    #[test]
    fn histograms_round_trip(histogram in any_histogram()) {
        assert_bit_identical_round_trip(&histogram);
        // The decoded histogram is also structurally equal (no NaN
        // fields, so PartialEq is meaningful here).
        let decoded: Histogram =
            from_bytes(&to_bytes(&histogram).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &histogram);
    }

    #[test]
    fn envelopes_round_trip_but_bumped_versions_fail_typed(
        seed in proptest::num::u64::ANY,
        op in any_journal_op(),
        bump in 1u32..1000,
    ) {
        let envelope = SummaryEnvelope::wrap(seed, &op).unwrap();
        let bytes = envelope.encode().unwrap();
        let reopened = SummaryEnvelope::decode(&bytes).unwrap();
        prop_assert_eq!(
            to_bytes(&reopened.open::<JournalOp>().unwrap()).unwrap(),
            to_bytes(&op).unwrap()
        );

        // Any bumped version must fail decode with the typed error —
        // before the payload is interpreted.
        let mut stale = envelope;
        stale.version = PROTOCOL_VERSION.wrapping_add(bump);
        let err = SummaryEnvelope::decode(&stale.encode().unwrap()).unwrap_err();
        prop_assert_eq!(
            err,
            WireError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION.wrapping_add(bump),
            }
        );
    }

    // -- scenario DSL (PR 9) ------------------------------------------------

    #[test]
    fn scenario_dsl_types_round_trip(
        phase in any_arrival_phase(),
        cohort in any_cohort_spec(),
        fault in any_fault_event(),
        status in any_status_policy(),
    ) {
        assert_bit_identical_round_trip(&phase);
        assert_bit_identical_round_trip(&cohort.class);
        assert_bit_identical_round_trip(&cohort);
        assert_bit_identical_round_trip(&fault.action);
        assert_bit_identical_round_trip(&fault);
        assert_bit_identical_round_trip(&status);
    }

    #[test]
    fn scenarios_round_trip(scenario in any_scenario()) {
        assert_bit_identical_round_trip(&scenario);
    }

    #[test]
    fn metrics_rows_and_observations_round_trip(
        row in any_metrics_row(),
        observation in any_observation(),
    ) {
        assert_bit_identical_round_trip(&row);
        assert_bit_identical_round_trip(&observation.event);
        assert_bit_identical_round_trip(&observation);
    }

    #[test]
    fn scenario_outcomes_round_trip(outcome in any_scenario_outcome()) {
        assert_bit_identical_round_trip(&outcome);
    }

    #[test]
    fn scenario_files_round_trip_but_bumped_versions_fail_typed(bump in 1u32..1000) {
        // The `.scn` container wraps the same version-gated envelope,
        // so the version check fires before any payload byte is
        // interpreted — a stale file can never half-decode.
        let scenario = builtin("sybil_flood").expect("shipped builtin");
        let bytes = encode_scenario(&scenario).unwrap();
        let reopened = decode_scenario(&bytes).unwrap();
        prop_assert_eq!(encode_scenario(&reopened).unwrap(), bytes.clone());

        let mut stale = SummaryEnvelope::decode(&bytes[SCENARIO_MAGIC.len()..]).unwrap();
        stale.version = PROTOCOL_VERSION.wrapping_add(bump);
        let mut stale_bytes = SCENARIO_MAGIC.to_vec();
        stale_bytes.extend_from_slice(&stale.encode().unwrap());
        prop_assert_eq!(
            decode_scenario(&stale_bytes).unwrap_err(),
            ScenarioError::Wire(WireError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION.wrapping_add(bump),
            })
        );
    }
}

// ---------------------------------------------------------------------------
// Byte runs: the same bytes as `Vec<u8>`, refused when they over-claim
// ---------------------------------------------------------------------------

/// A checkpoint-shaped document whose blobs are byte runs borrowed
/// from the input (the serve layer's checkpoint document has this
/// shape).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct RunDoc<'a> {
    generation: u64,
    #[serde(borrow)]
    blobs: Vec<ByteRun<'a>>,
}

/// [`RunDoc`] with its blobs as plain `Vec<u8>`s: one serde element
/// per byte.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct VecDoc {
    generation: u64,
    blobs: Vec<Vec<u8>>,
}

/// An envelope in the layout every stored file has used since v1,
/// built by hand: `version u32 LE ‖ seed u64 LE ‖ len u64 LE ‖ payload`.
fn old_envelope(seed: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = PROTOCOL_VERSION.to_le_bytes().to_vec();
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A checkpoint file around `payload`, built by hand.
fn old_checkpoint(seed: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = b"RLCK".to_vec();
    out.extend_from_slice(&old_envelope(seed, payload));
    out
}

proptest! {
    #[test]
    fn byte_runs_keep_the_old_layout(
        seed in proptest::num::u64::ANY,
        generation in proptest::num::u64::ANY,
        payload in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        blobs in proptest::collection::vec(
            proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            0..5,
        ),
    ) {
        // The envelope: the payload run is the old per-byte layout.
        let old = old_envelope(seed, &payload);
        let envelope = SummaryEnvelope {
            version: PROTOCOL_VERSION,
            seed,
            payload: Cow::Borrowed(&payload),
        };
        prop_assert_eq!(&envelope.encode().unwrap(), &old);
        let decoded = SummaryEnvelope::decode(&old).unwrap();
        prop_assert_eq!(&decoded, &envelope);
        prop_assert!(
            matches!(decoded.payload, Cow::Borrowed(p) if p.as_ptr() == old[20..].as_ptr()),
            "the decoded payload is not borrowed from the input"
        );

        // A checkpoint document encodes to the same bytes whether its
        // blobs are byte runs or `Vec<u8>`s, and either type decodes
        // the other's file.
        let vecs = VecDoc { generation, blobs: blobs.clone() };
        let runs = RunDoc {
            generation,
            blobs: blobs.iter().map(|b| ByteRun(b)).collect(),
        };
        let doc = to_bytes(&vecs).unwrap();
        prop_assert_eq!(&to_bytes(&runs).unwrap(), &doc);
        let file = old_checkpoint(seed, &doc);
        prop_assert_eq!(&encode_checkpoint(seed, &runs).unwrap(), &file);
        prop_assert_eq!(&encode_checkpoint(seed, &vecs).unwrap(), &file);
        // Streamed into a file, the same document is the same bytes,
        // whatever the number of runs (none included).
        let path = std::env::temp_dir()
            .join(format!("replend-wire-streamed-{}.ckpt", std::process::id()));
        let written = write_checkpoint(
            BufWriter::new(File::create(&path).unwrap()),
            seed,
            &runs,
        )
        .unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&on_disk, &file);
        prop_assert_eq!(written, file.len() as u64);
        prop_assert_eq!(decode_checkpoint::<RunDoc>(&file).unwrap(), (seed, runs));
        prop_assert_eq!(decode_checkpoint::<VecDoc>(&file).unwrap(), (seed, vecs));

        // A journal frame is the `u32` length of the old envelope,
        // then that envelope.
        let mut log = Vec::new();
        JournalWriter::with_policy(&mut log, seed, SyncPolicy::Always)
            .append(&ByteRun(&payload))
            .unwrap();
        let sealed = old_envelope(seed, &to_bytes(&payload).unwrap());
        let mut frame = (sealed.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&sealed);
        prop_assert_eq!(&log, &frame);
        let mut reader = JournalReader::new(log.as_slice(), seed);
        prop_assert_eq!(reader.next::<Vec<u8>>().unwrap(), Some(payload));
    }
}

/// Length prefixes that claim far more than the input holds.
const OVER_CLAIMS: [u64; 2] = [1 << 40, u64::MAX];

/// The refusal an over-long run must get: the input ran out (or the
/// claim does not even fit a `usize`).
fn is_short_input(err: &WireError) -> bool {
    matches!(err, WireError::Eof | WireError::LengthOverflow(_))
}

#[test]
fn over_long_byte_runs_fail_typed_without_allocating_their_claim() {
    for claim in OVER_CLAIMS {
        // Envelope level: the payload run over-claims.
        let mut envelope = PROTOCOL_VERSION.to_le_bytes().to_vec();
        envelope.extend_from_slice(&7u64.to_le_bytes());
        envelope.extend_from_slice(&claim.to_le_bytes());
        envelope.extend_from_slice(b"abc");
        let err = SummaryEnvelope::decode(&envelope).unwrap_err();
        assert!(is_short_input(&err), "envelope, claim {claim}: {err:?}");

        // Checkpoint level: the envelope over-claims, or an intact
        // envelope holds a partition blob that over-claims.
        let mut file = b"RLCK".to_vec();
        file.extend_from_slice(&envelope);
        let err = decode_checkpoint::<RunDoc>(&file).unwrap_err();
        assert!(
            is_short_input(&err),
            "checkpoint envelope, claim {claim}: {err:?}"
        );
        let mut doc = 3u64.to_le_bytes().to_vec();
        doc.extend_from_slice(&1u64.to_le_bytes());
        doc.extend_from_slice(&claim.to_le_bytes());
        doc.extend_from_slice(b"abc");
        for err in [
            decode_checkpoint::<RunDoc>(&old_checkpoint(7, &doc)).unwrap_err(),
            decode_checkpoint::<VecDoc>(&old_checkpoint(7, &doc)).unwrap_err(),
        ] {
            assert!(
                is_short_input(&err),
                "checkpoint blob, claim {claim}: {err:?}"
            );
        }

        // Journal-frame level: a full-length frame whose envelope
        // over-claims is corruption, a typed error, not a torn tail.
        let mut log = (envelope.len() as u32).to_le_bytes().to_vec();
        log.extend_from_slice(&envelope);
        let mut reader = JournalReader::new(log.as_slice(), 7);
        match reader.next::<u64>() {
            Err(JournalError::Wire(err)) => {
                assert!(
                    is_short_input(&err),
                    "journal frame, claim {claim}: {err:?}"
                )
            }
            other => panic!("journal frame, claim {claim}: {other:?}"),
        }
        assert!(!reader.torn_tail());
    }
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 39,
        "a {largest}-byte buffer was sized from an untrusted length prefix"
    );
}

/// A scenario file whose magic is wrong — or missing entirely — is
/// rejected as foreign before the envelope is even opened.
#[test]
fn scenario_files_reject_foreign_magic() {
    let scenario = builtin("churn_storm").expect("shipped builtin");
    let mut bytes = encode_scenario(&scenario).unwrap();
    bytes[0] ^= 0x20;
    assert_eq!(
        decode_scenario(&bytes).unwrap_err(),
        ScenarioError::Wire(WireError::BadMagic)
    );
    assert_eq!(
        decode_scenario(&[]).unwrap_err(),
        ScenarioError::Wire(WireError::BadMagic)
    );
}
