//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the names and units
//! `BENCHMARK.json` declares (a test keeps the two in step). Every run
//! prints all metrics of its mode: an untraced run every end-to-end
//! metric, a traced run every per-layer metric. A per-layer metric of a
//! layer the workload does not use reads 0: that layer did no work.

use crate::stats::Quantile;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_latency_p50_us", "us"),
    ("op_latency_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Simulation: tick timing (a).
    ("community.step.p50_ns", "ns"),
    ("community.step.p99_ns", "ns"),
    ("community.step.transact.mean_ns", "ns"),
    ("community.step.arrival.mean_ns", "ns"),
    ("community.step.resolve.mean_ns", "ns"),
    ("community.step.audit.mean_ns", "ns"),
    ("community.step.depart.mean_ns", "ns"),
    ("community.ticks.transact", "count"),
    ("community.ticks.arrival", "count"),
    ("community.ticks.resolve", "count"),
    ("community.ticks.audit", "count"),
    ("community.ticks.depart", "count"),
    ("community.ticks_per_s.first_tenth", "1/s"),
    ("community.ticks_per_s.last_tenth", "1/s"),
    ("community.served_frac", "fraction"),
    ("lending.admit_frac", "fraction"),
    ("lending.audit_pass_frac", "fraction"),
    ("messages.per_admission", "count"),
    // Simulation: layer isolation (b).
    ("rocq.engine.report_batch.mean_ns", "ns"),
    ("rocq.engine.drain_deltas.mean_ns", "ns"),
    ("rocq.engine.reputation.mean_ns", "ns"),
    ("rocq.engine.register_peer.mean_ns", "ns"),
    ("rocq.engine.remove_peer.mean_ns", "ns"),
    ("topology.sample.mean_ns", "ns"),
    ("topology.sample_uniform.mean_ns", "ns"),
    ("topology.remove_peer.mean_ns", "ns"),
    // Service: the traced replica (append, then apply).
    ("wire.encode.p50_ns", "ns"),
    ("wire.journal_append.p50_ns", "ns"),
    ("wire.journal_append.p99_ns", "ns"),
    ("wire.journal.frames", "count"),
    ("wire.journal.bytes_per_opinion", "B"),
    ("rocq.concurrent.report_batch.p50_ns", "ns"),
    ("rocq.concurrent.report_batch.p99_ns", "ns"),
    ("rocq.concurrent.report_batch.ns_per_opinion", "ns"),
    ("rocq.concurrent.register_peer.p50_ns", "ns"),
    ("rocq.concurrent.remove_peer.p50_ns", "ns"),
    ("rocq.concurrent.credit.p50_ns", "ns"),
    ("rocq.concurrent.debit.p50_ns", "ns"),
    ("rocq.concurrent.register_batch_s", "s"),
    ("core.serve.mutate_residual.p50_ns", "ns"),
    // Service: reads.
    ("rocq.snapshot.reputation.p50_ns", "ns"),
    ("rocq.snapshot.reputation.p99_ns", "ns"),
    ("core.serve.status.p50_ns", "ns"),
    ("core.serve.status.p99_ns", "ns"),
    ("read_latency_p50_ns", "ns"),
    ("read_latency_p99_ns", "ns"),
    ("reads_per_s", "1/s"),
    // Service: ingest, checkpoint and restart.
    ("ingest_opinions_per_s", "1/s"),
    ("checkpoint_s", "s"),
    ("rocq.state.export_partitions_s", "s"),
    ("wire.partition_encode_s", "s"),
    ("checkpoint.residual_s", "s"),
    ("checkpoint.bytes_per_subject", "B"),
    ("restart_s", "s"),
    ("wire.partition_decode_s", "s"),
    ("rocq.state.import_partitions_s", "s"),
    ("restart.replay_s", "s"),
    ("restart.residual_s", "s"),
    // The end-to-end tail beyond the bounded p90.
    ("op_latency_p99_us", "us"),
    // Benchmark health.
    ("loadgen.late.p99_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

/// One run's result: metrics, operation counts, output checks and
/// provenance.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    /// Operations attempted (ticks, service ops and reads).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub broken: Vec<String>,
    /// Provenance entries, as `(key, JSON value)`.
    provenance: Vec<(String, String)>,
}

impl Report {
    /// An empty report for a traced or untraced run.
    pub fn new(traced: bool) -> Self {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        Report {
            traced,
            catalogue,
            values: vec![None; catalogue.len()],
            attempted: 0,
            failed: 0,
            broken: Vec::new(),
            provenance: Vec::new(),
        }
    }

    /// True for a traced run's report.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Sets metric `name`. Names outside this mode's catalogue are
    /// ignored, so one workload body can serve both modes.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(i) = self.catalogue.iter().position(|&(n, _)| n == name) {
            self.values[i] = Some(value);
        }
    }

    /// Sets metric `name` from a quantile scaled by `scale` (for unit
    /// conversion) and records the samples behind it.
    pub fn set_quantile(&mut self, name: &str, q: Quantile, scale: f64) {
        self.set(name, q.value * scale);
        self.note(
            &format!("samples.{name}"),
            format!(
                "{{\"percentile\": {}, \"samples\": {}, \"seen\": {}}}",
                json_number(q.percentile),
                q.samples,
                q.seen
            ),
        );
    }

    /// Records a provenance entry (`value` is already JSON).
    pub fn note(&mut self, key: &str, value: String) {
        self.provenance.push((key.to_string(), value));
    }

    /// Records a provenance string.
    pub fn note_str(&mut self, key: &str, value: &str) {
        self.note(key, json_string(value));
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    /// The provenance line (a JSON object).
    pub fn provenance_line(&self) -> String {
        let mut out = String::from("{\"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", json_string(k));
        }
        out.push_str("}}");
        out
    }

    /// The result line. An end-to-end metric the workload never set is
    /// a bug in the benchmark; a per-layer metric left unset reads 0.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.broken.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (&(name, unit), value)) in self.catalogue.iter().zip(&self.values).enumerate() {
            let value = match value {
                Some(v) => *v,
                None if self.traced() => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number. `+∞` (a tail made of failed ops) is written as the
/// largest finite `f64`, since JSON has no infinity.
pub fn json_number(v: f64) -> String {
    format!("{}", if v.is_finite() { v } else { f64::MAX })
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// catalogue this program prints, in the same order.
    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..].split('"').next().expect("value").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn names_are_unique_across_both_catalogues() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn untraced_result_line_holds_every_end_to_end_metric() {
        let mut r = Report::new(false);
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        r.set("community.step.p50_ns", 1.0); // not in this mode: ignored
        r.attempted = 3;
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(!line.contains("community.step"));
    }

    #[test]
    fn a_broken_check_makes_the_run_incorrect() {
        let mut r = Report::new(true);
        r.check(true, || unreachable!());
        r.check(false, || "digest differs".into());
        assert!(r.result_line().starts_with("{\"correct\": false"));
        assert_eq!(r.broken, vec!["digest differs".to_string()]);
    }

    #[test]
    fn infinity_is_written_as_a_finite_json_number() {
        assert_eq!(json_number(1.5), "1.5");
        assert!(json_number(f64::INFINITY)
            .parse::<f64>()
            .unwrap()
            .is_finite());
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
