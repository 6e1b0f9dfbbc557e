//! The unified SmartExchange experiment CLI: every paper table/figure as a
//! subcommand plus trace-artifact management. `se help` lists everything;
//! the full reference is `docs/CLI.md`.

use std::process::ExitCode;

/// Runs the CLI; a failure prints `error: <message>` on stderr and exits
/// with status 1.
fn main() -> ExitCode {
    match se_bench::cli::main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
