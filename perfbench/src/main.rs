//! `hytlb-perfbench`: the repository's benchmark. One process runs one
//! workload and prints one JSON result line; see README.md for the
//! workloads, the metrics and how they relate.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tlb-hot --seed 42 --seconds 10 --trace 0
//! ```

#![forbid(unsafe_code)]

mod args;
mod bench;
mod cascade;
mod golden;
mod layers;
mod plan;
mod spans;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("hytlb-perfbench: {message}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace { bench::traced(&args) } else { bench::untraced(&args) };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("hytlb-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
