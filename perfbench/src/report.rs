//! What one run reports: attempts, failures, output-check verdicts and the
//! metrics, printed by name with their units and as the final JSON line.

use crate::hostref::HostRef;
use crate::trace::{self, Span};
use crate::Args;
use std::collections::BTreeMap;
use std::time::Instant;

/// An untraced run times its set-up before its timed window (the last
/// set-up's inputs are used) and again after it, each time at least
/// `SETUP_REPEATS` times and for at least `SETUP_SECONDS`. `setup_s` is the
/// median of all of them: set-up speed on a shared host drifts within
/// seconds, so many samples from both ends of the run are steadier than a
/// few from one moment.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_SECONDS: f64 = 2.0;
const REF_SAMPLES_PER_SETUP: usize = 4;

/// End-to-end metrics, every workload, untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("mean_accuracy", "fraction"),
    ("ok_ratio", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, every workload, traced run. Seconds and counts are
/// per replayed operation (`op`: one graph or one request), so they read
/// the same whatever the throughput. A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.run_s", "s/op"),
    ("pipeline.self_s", "s/op"),
    ("embed.calls", "count/op"),
    ("embed.s", "s/op"),
    ("embed.self_s", "s/op"),
    ("embed.dims_used", "count/op"),
    ("cost.classical_model", "model_ops/op"),
    ("cost.quantum_model", "model_ops/op"),
    ("cluster.calls", "count/op"),
    ("cluster.s", "s/op"),
    ("cluster.self_s", "s/op"),
    ("cluster.iterations", "count/op"),
    ("backend.phase_distribution.calls", "count/op"),
    ("backend.phase_distribution.s", "s/op"),
    ("backend.run.calls", "count/op"),
    ("backend.run.s", "s/op"),
    ("backend.sample.calls", "count/op"),
    ("backend.sample.s", "s/op"),
    ("backend.execute.calls", "count/op"),
    ("backend.execute.s", "s/op"),
    ("backend.estimate_probability.calls", "count/op"),
    ("hit.p50_ms", "ms"),
    ("hit.p99_ms", "ms"),
    ("hit.submit_ms", "ms"),
    ("hit.result_ms", "ms"),
    ("miss.p50_ms", "ms"),
    ("miss.p90_ms", "ms"),
    ("miss.submit_ms", "ms"),
    ("miss.first_row_ms", "ms"),
    ("miss.stream_ms", "ms"),
    ("miss.result_ms", "ms"),
    ("exec.p50_us", "us"),
    ("exec.p99_us", "us"),
    ("exec.calls", "count/op"),
    ("exec.executed", "count/op"),
    ("cache.hits", "count/op"),
    ("cache.misses", "count/op"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count/op"),
    ("jobs.queue_depth_max", "count"),
    ("http.status_429", "count"),
    ("http.status_5xx", "count"),
    ("host.ref_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count/op"),
    ("trace.orphan_spans", "count"),
];

/// Why an operation did not pass.
pub enum Fail {
    /// The program returned an error or refused the request.
    Error(String),
    /// The program answered, but the answer failed its check.
    Wrong(String),
}

/// The checked result of one operation.
pub type Outcome<T> = Result<T, Fail>;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any makes the run incorrect.
    pub wrong: Vec<String>,
    pub errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn error(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn wrong(&mut self, why: String) {
        self.failed += 1;
        self.wrong.push(why);
    }

    /// Counts one attempted operation; returns its value if it passed.
    pub fn tally<'a, T>(&mut self, outcome: &'a Outcome<T>) -> Option<&'a T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(Fail::Error(e)) => {
                self.error(e.clone());
                None
            }
            Err(Fail::Wrong(e)) => {
                self.wrong(e.clone());
                None
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds the metrics every untraced run reports from its own tallies.
    pub fn finish_e2e(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.metric("ok_ratio", ok / self.attempted.max(1) as f64);
        self.metric("peak_rss_mb", peak_rss_mb());
    }

    /// Derives the span- and counter-based layer metrics of a traced pass
    /// that replayed `ops` operations.
    pub fn layers(
        &mut self,
        spans: &[Span],
        counters: &BTreeMap<&'static str, f64>,
        orphans: u64,
        ops: usize,
    ) {
        let per_op = 1.0 / ops.max(1) as f64;
        let summary = trace::summarize(spans);
        let get = |name: &str| summary.get(name).copied().unwrap_or((0, 0.0, 0.0));
        let graph = get("graph");
        self.metric("pipeline.run_s", graph.1 * per_op);
        self.metric("pipeline.self_s", graph.2 * per_op);
        for (stage, secs, own_secs) in [
            ("embed", "embed.s", "embed.self_s"),
            ("cluster", "cluster.s", "cluster.self_s"),
        ] {
            let (_, total, own) = get(stage);
            self.metric(secs, total * per_op);
            self.metric(own_secs, own * per_op);
        }
        for (method, calls, secs) in [
            (
                "backend.phase_distribution",
                "backend.phase_distribution.calls",
                "backend.phase_distribution.s",
            ),
            ("backend.run", "backend.run.calls", "backend.run.s"),
            ("backend.sample", "backend.sample.calls", "backend.sample.s"),
            (
                "backend.execute",
                "backend.execute.calls",
                "backend.execute.s",
            ),
        ] {
            let (n, total, _) = get(method);
            self.metric(calls, n as f64 * per_op);
            self.metric(secs, total * per_op);
        }
        for &(name, _) in PER_LAYER {
            if let Some(v) = counters.get(name) {
                self.metric(name, v * per_op);
            }
        }
        self.metric("trace.spans", spans.len() as f64 * per_op);
        self.metric("trace.orphan_spans", orphans as f64);
        if orphans > 0 {
            self.wrong(format!("{orphans} spans closed outside any operation"));
        }
    }

    /// Fills the per-layer metrics this workload does not reach with 0.
    pub fn finish_layers(&mut self) {
        for &(name, _) in PER_LAYER {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// Writes the traced pass's spans next to the benchmark, one per line.
    pub fn write_spans(&mut self, args: &Args, spans: &[Span]) {
        let path = args.out_dir.join(format!("{}.spans.jsonl", args.workload));
        if let Err(e) = trace::write_jsonl(&path, spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The names this run must report, in order.
    fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The metrics as a JSON object, in the order the benchmark lists them.
    /// Fails if any expected metric is missing or not finite.
    pub fn metrics_json(&self, trace: bool) -> Result<String, String> {
        let mut parts = Vec::new();
        for &(name, unit) in Self::expected(trace) {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// Human-readable metric lines.
    pub fn lines(&self, trace: bool) -> Vec<String> {
        Self::expected(trace)
            .iter()
            .filter_map(|&(name, unit)| {
                self.metrics
                    .get(name)
                    .map(|v| format!("{name:<36} {v:>16.6} {unit}"))
            })
            .collect()
    }
}

/// Traced ÷ untraced throughput of two passes over the same operations,
/// from their summed latencies: unlike wall time, this does not depend on
/// how evenly the replay spreads work across clients.
pub fn overhead_ratio(
    untraced_s: impl Iterator<Item = f64>,
    traced_s: impl Iterator<Item = f64>,
) -> f64 {
    untraced_s.sum::<f64>() / traced_s.sum::<f64>()
}

/// Set-up times of one run, with host reference samples taken around
/// them.
#[derive(Default)]
pub struct Setups {
    /// Each set-up's time (s) and the host factor before it.
    times: Vec<(f64, f64)>,
    host: Option<HostRef>,
}

impl Setups {
    /// Runs `set_up` at least `SETUP_REPEATS` times and for at least
    /// `SETUP_SECONDS`, taking `REF_SAMPLES_PER_SETUP` host reference
    /// samples before each. Each call gets the previous result (first
    /// `previous`), to release or to rebuild in place. Returns the last
    /// result.
    pub fn time<T>(&mut self, previous: Option<T>, mut set_up: impl FnMut(Option<T>) -> T) -> T {
        let host = self.host.get_or_insert_with(HostRef::new);
        let mut last = previous;
        let mut spent = 0.0;
        let mut count = 0;
        while count < SETUP_REPEATS || spent < SETUP_SECONDS {
            host.samples(REF_SAMPLES_PER_SETUP);
            let start = Instant::now();
            last = Some(set_up(last.take()));
            let took = start.elapsed().as_secs_f64();
            self.times
                .push((took, host.recent_factor(REF_SAMPLES_PER_SETUP)));
            spent += took;
            count += 1;
        }
        last.expect("at least one set-up")
    }

    /// Prints the set-up times and reports their median, at the reference
    /// speed, as `setup_s`.
    pub fn report(&self, report: &mut Report) {
        let shown: Vec<String> = self.times.iter().map(|t| format!("{:.3}", t.0)).collect();
        println!("{} set-ups (s): {}", self.times.len(), shown.join(" "));
        let raw: Vec<f64> = self.times.iter().map(|t| t.0).collect();
        let scaled: Vec<f64> = self.times.iter().map(|t| t.0 * t.1).collect();
        let median = |v: &[f64]| crate::stats::median(v).expect("at least one set-up");
        println!(
            "set-up median {:.4} s raw, host factor {:.4}",
            median(&raw),
            median(&scaled) / median(&raw)
        );
        report.metric("setup_s", median(&scaled));
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a label vector: equal labelings give equal digests.
pub fn digest_usize(values: &[usize]) -> u64 {
    digest_bytes(values.iter().flat_map(|v| (*v as u64).to_le_bytes()))
}

/// FNV-1a over `f64` bit patterns.
pub fn digest_f64(values: &[f64]) -> u64 {
    digest_bytes(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

pub fn digest_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
