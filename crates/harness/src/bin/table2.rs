//! Prints Table II: the simulated system parameters.
//!
//! Usage: `cargo run --release -p harness --bin table2` (no arguments)
//!
//! Routed through [`cli::main_with`] like every other binary so the standardized exit
//! codes (0 ok, 1 usage, 2 point failures) hold across the whole suite —
//! trivially 0 here, since rendering a static table runs no points.

use std::process::ExitCode;

use harness::cli;
use harness::experiments::table2;
use simx::MachineConfig;

fn main() -> ExitCode {
    cli::main_with("table2", &[], &[], |_ctx, _args| {
        println!("{}", table2::render(&MachineConfig::haswell_quad()));
        Ok(())
    })
}
