//! `replend` — command-line front end. All logic lives in the library
//! (`replend_cli`) so it can be unit-tested; this shell only handles
//! process arguments and the exit code.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match replend_cli::run_cli(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            // Only usage problems warrant reprinting the usage text;
            // a runtime failure would just bury its message under it.
            if matches!(err, replend_cli::CliError::Usage(_)) {
                eprintln!("{}", replend_cli::usage());
            }
            ExitCode::FAILURE
        }
    }
}
