//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Workloads (each a closed loop with one client; scheduler and simulator
//! use their default worker counts, i.e. every available core):
//!
//! * `schedule_suite` — the scheduling traffic of a paper-size
//!   `reproduce` plus seeded random B variants ([`schedule_suite`]);
//! * `cloudsc_trace` — exact simulation of the four CLOUDSC versions at
//!   `NBLOCKS = 4096` ([`trace`]);
//! * `polybench_trace` — exact simulation of the 15 PolyBench B variants
//!   at `Dataset::Medium` ([`trace`]).
//!
//! `--trace 0` measures with telemetry off and prints the end-to-end
//! metrics; `--trace 1` repeats the timed loop with an aggregating
//! recorder installed (the difference is the tracing overhead), runs the
//! per-layer pass of [`layers`] and prints the per-layer metrics. Both
//! modes check every output outside the timed region and print, before the
//! result, one `{"report": ...}` line with the environment, the workload
//! census, wall-clock figures and one row per input. The last line of
//! standard output is the result: `{"correct", "attempted", "failed",
//! "metrics"}`. A failed check makes the exit code 1.
//!
//! End-to-end timings are process CPU time, not wall clock: on a shared
//! virtual machine the host steals whole stretches of time, which moves
//! wall-clock figures by up to 2x within a minute; CPU time leaves the
//! stolen time out. Wall-clock figures are in the report line.
//!
//! The benchmark's own tests: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

mod harness;
mod layers;
mod metrics;
mod schedule_suite;
mod stats;
mod trace;

use harness::{Options, WorkDir};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["schedule_suite", "cloudsc_trace", "polybench_trace"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(&WorkDir::run_root(), &options.workload) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create a work directory: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match options.workload.as_str() {
        "schedule_suite" => schedule_suite::run(&options, &work),
        "cloudsc_trace" => trace::run(trace::TraceKind::Cloudsc, &options, &work),
        "polybench_trace" => trace::run(trace::TraceKind::Polybench, &options, &work),
        other => unreachable!("workload {other} passed validation"),
    };
    drop(work);
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", outcome.report_json(&options));
    println!("{}", outcome.result_json(&options));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
