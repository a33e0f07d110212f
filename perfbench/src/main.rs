//! The dhpf benchmark: cold, parallel and served compilations plus
//! simulated SPMD runs, each checked against an independent reference.
//!
//! ```text
//! dhpf-perfbench --workload <compile_cold|compile_par2|serve_mix|figure7_sim>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of the repository (normally through `run.py`,
//! which builds it first). With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced passes and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` next to this package for what each workload is for.

mod compile;
mod harness;
mod kernels;
mod layers;
mod probe;
mod record;
mod serve;
mod sim;
mod stats;

use record::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dhpf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "compile_cold" => compile::cold(&args),
        "compile_par2" => compile::par2(&args),
        "serve_mix" => serve::run(&args),
        "figure7_sim" => sim::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match report {
        Ok(r) => {
            record::emit(&args, &r);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dhpf-perfbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
