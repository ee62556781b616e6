//! The replend benchmark.
//!
//! ```text
//! replend-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the library crates (`replend-core`,
//! `replend-rocq`, `replend-wire`, `replend-topology`), checks its
//! outputs, and prints a provenance line followed, as the last line, by
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics, a traced
//! run (`--trace 1`) the per-layer ones. See `README.md`.

mod loadgen;
mod report;
mod serve;
mod sim;
mod stats;
mod sys;

use report::{json_string, Report};
use std::process::ExitCode;

/// The workloads: `sim_table1`, which runs by name but is not declared
/// in `BENCHMARK.json` (its figures do not repeat within the bounds on a
/// shared host; see README.md), then those `BENCHMARK.json` lists, in
/// its order.
const WORKLOADS: [&str; 4] = [
    "sim_table1",
    "sim_churn_50k",
    "serve_online",
    "serve_bulk_restart",
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

const USAGE: &str = "usage: replend-benchmark --workload <sim_table1|sim_churn_50k|serve_online|\
                     serve_bulk_restart> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.trace);
    provenance(&args, &mut report);
    let started = std::time::Instant::now();
    let outcome = match args.workload.as_str() {
        "sim_table1" => {
            sim::run(sim::TABLE1, &args, &mut report);
            Ok(())
        }
        "sim_churn_50k" => {
            sim::run(sim::CHURN_50K, &args, &mut report);
            Ok(())
        }
        "serve_online" => serve::online(&args, &mut report),
        "serve_bulk_restart" => serve::bulk_restart(&args, &mut report),
        other => unreachable!("workload {other} passed validation"),
    };
    if let Err(e) = outcome {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    report.note("run.wall_s", format!("{}", started.elapsed().as_secs_f64()));
    for broken in &report.broken {
        eprintln!("check failed: {broken}");
    }
    println!("{}", report.provenance_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

/// Host, code and run identity, recorded on every result.
fn provenance(args: &Args, report: &mut Report) {
    let (host, cpu) = sys::host();
    report.note_str("workload", &args.workload);
    report.note("seed", args.seed.to_string());
    report.note("seconds", format!("{}", args.seconds));
    report.note("trace", args.trace.to_string());
    report.note_str("host", &host);
    report.note_str("cpu", &cpu);
    report.note("nproc", sys::nproc().to_string());
    // Load comes from one driver thread, plus the closed-loop reader in
    // serve_online; the library's pool keeps its default size.
    let drivers = if args.workload == "serve_online" {
        2
    } else {
        1
    };
    report.note("threads.driver", drivers.to_string());
    report.note(
        "threads.library_pool",
        replend_rocq::pool_threads().to_string(),
    );
    report.note_str("commit", &sys::commit());
    report.note_str("source_digest", &sys::source_digest());
    report.note("version", json_string(env!("CARGO_PKG_VERSION")));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(argv(
            "--workload sim_table1 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "sim_table1");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse(argv("--workload sim_table1 --seconds 1")).is_err());
        assert!(parse(argv("--workload sim_table1 --seed 1 --seconds 0")).is_err());
        assert!(parse(argv("--workload sim_table1 --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(argv("--workload")).is_err());
    }
}
