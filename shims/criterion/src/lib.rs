//! Offline stand-in for `criterion 0.5` — see `shims/README.md`.
//!
//! Times each benchmark with `std::time::Instant` and prints
//! mean/min per iteration. No statistical analysis, outlier
//! rejection, plots or baselines — just honest wall-clock numbers so
//! `cargo bench` produces comparable figures across commits on the
//! same machine.
//!
//! ## Machine-readable output
//!
//! When the `REPLEND_BENCH_JSON` environment variable names a file,
//! every benchmark result is additionally collected and written
//! there as one JSON document when the bench binary finishes (the
//! [`criterion_main!`] expansion calls [`write_json_report`]). This
//! is how CI seeds the repo's `BENCH_<pr>.json` perf trajectory —
//! the real criterion writes machine-readable estimates under
//! `target/criterion/`; on swap, keep the env-var emitter in the
//! bench harness or read criterion's own JSON instead.

use std::fmt::Display;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Target measurement time per benchmark.
const MEASURE_FOR: Duration = Duration::from_millis(300);
/// Iterations used to estimate a benchmark's cost.
const PROBE_ITERS: u64 = 3;

/// Entry point handed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), f);
        self
    }
}

/// A named collection of benchmarks (prefixes their ids).
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API parity; the shim sizes runs by wall-clock.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API parity.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// How `iter_batched` amortises setup cost (accepted for parity; the
/// shim always runs setup once per measured batch element).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Passed to the benchmark closure; collects timing.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, keeping its output alive via `black_box`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over inputs produced (untimed) by `setup`.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, mut f: F) {
    // Probe to size the measured run to roughly MEASURE_FOR.
    let mut probe = Bencher {
        iters: PROBE_ITERS,
        elapsed: Duration::ZERO,
    };
    f(&mut probe);
    let per_iter = probe.elapsed.max(Duration::from_nanos(1)) / PROBE_ITERS as u32;
    let iters = (MEASURE_FOR.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

    let mut bench = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut bench);
    let mean = bench.elapsed.as_secs_f64() / bench.iters as f64;
    println!(
        "{id:<60} {:>12} iters   mean {}",
        bench.iters,
        fmt_time(mean)
    );
    RESULTS
        .lock()
        .expect("bench result registry poisoned")
        .push(BenchRecord {
            id: id.to_string(),
            iters: bench.iters,
            total_ns: bench.elapsed.as_nanos(),
            mean_ns: mean * 1e9,
        });
}

/// Records an externally-timed measurement into the report — for
/// harnesses that measure throughput or tail latency themselves (a
/// sustained concurrent workload cannot be expressed as a `Bencher`
/// closure). The record lands in the same registry, console line and
/// JSON document as `bench_function` results: `iters` is the number
/// of timed operations, `total_ns` their summed wall-clock, `mean_ns`
/// the reported statistic (a mean — or a percentile, when the id says
/// so).
pub fn record_measurement(id: &str, iters: u64, total_ns: u128, mean_ns: f64) {
    println!(
        "{id:<60} {iters:>12} iters   mean {}",
        fmt_time(mean_ns / 1e9)
    );
    RESULTS
        .lock()
        .expect("bench result registry poisoned")
        .push(BenchRecord {
            id: id.to_string(),
            iters,
            total_ns,
            mean_ns,
        });
}

/// One finished benchmark, kept for the optional JSON report.
struct BenchRecord {
    id: String,
    iters: u64,
    total_ns: u128,
    mean_ns: f64,
}

/// Every benchmark result of this process, in execution order.
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Minimal JSON string escaping for benchmark ids (ASCII control
/// characters, quotes and backslashes).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The thread-pool size a benchmark in this process would run with —
/// the same rule the workspace's rayon shim and
/// `replend_rocq::pool_threads` use:
/// `RAYON_NUM_THREADS` when set to a positive number, otherwise the
/// host's available parallelism.
fn effective_threads() -> usize {
    if let Ok(raw) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = raw.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The optional host tag stamped into the JSON report so diff tooling
/// can refuse apples-to-oranges cross-host comparisons:
/// `REPLEND_BENCH_HOST`, then `HOSTNAME`, else absent.
fn report_host() -> Option<String> {
    for var in ["REPLEND_BENCH_HOST", "HOSTNAME"] {
        if let Ok(v) = std::env::var(var) {
            if !v.is_empty() {
                return Some(v);
            }
        }
    }
    None
}

/// Writes all collected results to the file named by
/// `REPLEND_BENCH_JSON` (no-op when the variable is unset). Called by
/// the [`criterion_main!`] expansion after every group has run; also
/// callable directly from a custom `main`.
///
/// Besides the per-benchmark `results`, the document records the
/// effective `threads` of the run and (when the environment knows
/// one) a `host` tag — both exist so baseline-diff tooling can detect
/// numbers measured under different conditions.
///
/// # Panics
/// If the file cannot be written — a bench run asked for a report it
/// could not produce should fail loudly, not silently.
pub fn write_json_report() {
    let Ok(path) = std::env::var("REPLEND_BENCH_JSON") else {
        return;
    };
    let results = RESULTS.lock().expect("bench result registry poisoned");
    let mut doc = String::from("{\n  \"schema\": 1,\n");
    doc.push_str(&format!("  \"threads\": {},\n", effective_threads()));
    if let Some(host) = report_host() {
        doc.push_str(&format!("  \"host\": \"{}\",\n", escape_json(&host)));
    }
    doc.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        doc.push_str(&format!(
            "    {{\"id\": \"{}\", \"iters\": {}, \"total_ns\": {}, \"mean_ns\": {:.3}}}{sep}\n",
            escape_json(&r.id),
            r.iters,
            r.total_ns,
            r.mean_ns,
        ));
    }
    doc.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("REPLEND_BENCH_JSON: cannot create {dir:?}: {e}"));
        }
    }
    std::fs::write(&path, doc)
        .unwrap_or_else(|e| panic!("REPLEND_BENCH_JSON: cannot write {path}: {e}"));
    println!("bench JSON report written to {path}");
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:8.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:8.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:8.2} ms", secs * 1e3)
    } else {
        format!("{secs:8.2} s ")
    }
}

/// `criterion_group!(name, target, ...)` — builds a runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// `criterion_main!(group, ...)` — builds `main` (and emits the
/// optional JSON report once every group has run).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_report();
        }
    };
}
