//! **Ablation A2** — score-manager redundancy under crash-prone churn
//! (ours; motivated by §2's redundancy argument and §3's claim that
//! multiple score managers mask churn, demonstrated in ROCQ ref \[7\]).
//!
//! Sweeps the number of score managers `numSM` and the probability
//! that a replica re-homing (caused by DHT churn as peers join) loses
//! its state. With `numSM = 1` a crash destroys a peer's reputation
//! history; with the Table-1 default of 6 the sibling copy masks it.

use replend_bench::experiment::{env_runs, env_ticks, run_average, PAPER_RUNS};
use replend_bench::output::{fmt, print_table, write_csv};
use replend_core::{BootstrapPolicy, EngineKind};
use replend_rocq::RocqParams;
use replend_types::Table1;

fn main() {
    let runs = env_runs(PAPER_RUNS);
    let ticks = env_ticks(50_000);
    println!("Ablation A2: score-manager redundancy vs. crash probability (λ = 0.1, {ticks} ticks, {runs} runs)");

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for num_sm in [1usize, 2, 4, 6, 8] {
        for crash_prob in [0.0, 0.2, 0.5] {
            let config = Table1::paper_defaults()
                .with_arrival_rate(0.1)
                .with_num_trans(ticks)
                .with_num_sm(num_sm);
            let engine = EngineKind::Rocq(RocqParams {
                crash_prob,
                ..RocqParams::default()
            });
            let m = run_average(
                config,
                BootstrapPolicy::default(),
                engine,
                0xAB2A,
                runs,
                ticks,
            );
            rows.push(vec![
                num_sm.to_string(),
                fmt(crash_prob, 1),
                fmt(m.mean_coop_rep, 3),
                fmt(m.success_rate * 100.0, 2) + "%",
                fmt(m.uncoop_members, 1),
            ]);
            csv_rows.push(vec![
                num_sm.to_string(),
                fmt(crash_prob, 2),
                fmt(m.mean_coop_rep, 4),
                fmt(m.success_rate, 4),
                fmt(m.uncoop_members, 2),
            ]);
        }
    }

    print_table(
        "Redundancy ablation (expected: numSM = 1 degrades with crash probability; numSM >= 2 masks crashes)",
        &["numSM", "crash prob", "coop rep", "success rate", "uncoop members"],
        &rows,
    );

    match write_csv(
        "ablation_sm.csv",
        &[
            "num_sm",
            "crash_prob",
            "mean_coop_rep",
            "success_rate",
            "uncoop_members",
        ],
        &csv_rows,
    ) {
        Ok(path) => println!("CSV written to {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
