//! `replend scenario run` refuses a `REPLEND_TICKS` cap that is not a
//! positive integer, as the figure binaries do, instead of running
//! the full horizon (unparsable cap) or no ticks at all (zero cap).

use std::path::Path;
use std::process::Command;

#[test]
fn scenario_run_refuses_a_cap_that_is_not_a_positive_integer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scenario = root.join("examples/scenarios/file_sharing_open.scn");
    let out = std::env::temp_dir().join(format!(
        "replend-cli-scenario-ticks-{}.csv",
        std::process::id()
    ));
    for bad in ["two", "0"] {
        let run = Command::new(env!("CARGO_BIN_EXE_replend"))
            .args(["scenario", "run"])
            .arg(&scenario)
            .arg("--out")
            .arg(&out)
            .env("REPLEND_TICKS", bad)
            .output()
            .expect("the replend binary runs");
        assert!(!run.status.success(), "REPLEND_TICKS={bad} exited 0");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(&format!(
                "REPLEND_TICKS must be a positive integer, got {bad:?}"
            )),
            "REPLEND_TICKS={bad}: {stderr}"
        );
        assert!(!out.exists(), "REPLEND_TICKS={bad} wrote a CSV");
    }
}
