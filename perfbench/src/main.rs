//! End-to-end and per-layer benchmark of the qsc-suite workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload classical_dense --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `classical_dense` — `Pipeline::hermitian(3)` (dense `eigh` + k-means)
//!   on DSBM graphs with n ∈ {100, 200, 300, 400}.
//! * `quantum_density` — the simulated quantum pipeline on the exact
//!   density-matrix channel, n ∈ {100, 200}.
//! * `served_mix` — an in-process `qsc-serve` server under cache hits,
//!   cache misses and remote backend calls.
//!
//! Every workload is a closed loop of one client thread per available
//! core. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced, replays the same operations through timing wrappers
//! around the public traits and endpoints, checks that both passes produce
//! identical outputs, and prints the per-layer metrics. The last line of
//! standard output is always the JSON result.

mod batch;
mod hostref;
mod provenance;
mod report;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line, plus what the run derives from its environment.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Closed-loop client threads: one per available core.
    pub clients: usize,
    /// Where spans, the result record and the service cache are written.
    pub out_dir: PathBuf,
}

const WORKLOADS: &[&str] = &["classical_dense", "quantum_density", "served_mix"];

const USAGE: &str = "usage: perfbench --workload <classical_dense|quantum_density|served_mix> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance::stamp(&args);
    println!("provenance {provenance}");

    let report = match args.workload.as_str() {
        "classical_dense" => batch::run(&batch::CLASSICAL_DENSE, &args),
        "quantum_density" => batch::run(&batch::QUANTUM_DENSITY, &args),
        _ => served::run(&args),
    };

    for line in report.lines(args.trace) {
        println!("{line}");
    }
    for why in report.errors.iter().chain(&report.wrong).take(20) {
        eprintln!("perfbench: failed: {why}");
    }
    let metrics = match report.metrics_json(args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.correct(),
        report.attempted,
        report.failed
    );
    let record = args.out_dir.join(format!(
        "{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(
        &record,
        format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n"),
    ) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
