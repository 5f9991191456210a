//! The batch workloads: closed-loop clients, each running `Pipeline::run`
//! on one DSBM graph after another.

use crate::hostref::HostRef;
use crate::report::{self, Fail, Outcome, Report};
use crate::trace::{self, TracedBackend, TracedClusterer, TracedEmbedder};
use crate::{stats, Args};
use qsc_cluster::metrics::matched_accuracy;
use qsc_core::{
    DenseEig, DensityMatrix, KMeans, Pipeline, QMeans, QpeTomography, QuantumParams, Statevector,
};
use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph, PlantedGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A batch workload: which pipeline runs, and on which graph sizes.
pub struct Batch {
    /// One deck of graph sizes; the pool is independently shuffled copies
    /// of it, so the size mix is exact and its order seeded.
    pub deck: &'static [usize],
    /// Graphs per client per second the pool provides for: about 2× the
    /// fastest rate measured when it was set, on a 2-vCPU VM whose speed
    /// changed by up to 1.6× from one hour to the next. Every graph in the
    /// pool is distinct and runs at most once, so a per-graph cache gains
    /// nothing; a program fast enough to use the pool up ends its run early.
    pub graphs_per_client_s: f64,
    pub quantum: bool,
    /// Lowest matched accuracy a graph may score before its output counts
    /// as wrong. The lowest scores seen when it was set were 0.85
    /// (classical) and 0.99 (quantum); see the README.
    pub accuracy_floor: f64,
}

/// The paper's O(n³) classical baseline: dense `eigh` + k-means. The size
/// weights 1:1:1:7 put the median (the class's 29th percentile) and p90
/// (its 86th) well inside n = 400. Not a smaller class: on a 2-vCPU host
/// whose speed changes from hour to hour, the cache-resident n = 200
/// graphs ran 1.6–1.7× slower in its slow hours and n = 400 graphs 1.2×,
/// so a median in n = 200 spread by 0.31 and 0.41 (quartile distance ÷
/// median) over two sets of ten runs. Under 1:1:1:4 the median sat at the
/// class's 12th percentile, next to n = 300, and spread by 0.14 after
/// scaling to the reference host speed, against 0.03 under 1:1:1:7.
pub const CLASSICAL_DENSE: Batch = Batch {
    deck: &[100, 200, 300, 400, 400, 400, 400, 400, 400, 400],
    graphs_per_client_s: 7.0,
    quantum: false,
    accuracy_floor: 0.7,
};

/// The simulated quantum path on the exact noisy channel: QPE register
/// passes on the density-matrix backend + q-means. Weights 1:3 put both
/// percentiles inside n = 200.
pub const QUANTUM_DENSITY: Batch = Batch {
    deck: &[100, 200, 200, 200],
    graphs_per_client_s: 12.0,
    quantum: true,
    accuracy_floor: 0.7,
};

const DEPOLARIZING: f64 = 0.05;

impl Batch {
    fn pipeline(&self, seed: u64, traced: bool) -> Pipeline {
        let base = Pipeline::hermitian(3).seed(seed);
        match (self.quantum, traced) {
            (false, false) => base,
            (false, true) => base
                .embedder(TracedEmbedder(DenseEig))
                .clusterer(TracedClusterer(KMeans))
                .backend(TracedBackend(Statevector::new())),
            (true, false) => base
                .quantum(&QuantumParams::default())
                .backend(DensityMatrix::new(DEPOLARIZING, 0.0)),
            (true, true) => {
                let params = QuantumParams::default();
                base.clusterer(TracedClusterer(QMeans::new(params.delta)))
                    .embedder(TracedEmbedder(QpeTomography::new(params)))
                    .backend(TracedBackend(DensityMatrix::new(DEPOLARIZING, 0.0)))
            }
        }
    }

    /// The graph pool of a run of `seconds` with `clients` clients, built
    /// into `reuse` graph by graph: a repeated set-up reuses the memory of
    /// the last one, so its time does not depend on how fast the host hands
    /// out fresh pages.
    fn graphs(
        &self,
        seed: u64,
        seconds: f64,
        clients: usize,
        reuse: Option<Vec<PlantedGraph>>,
    ) -> Vec<PlantedGraph> {
        let wanted = seconds * clients as f64 * self.graphs_per_client_s;
        let decks = (wanted / self.deck.len() as f64).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = reuse.unwrap_or_default();
        let mut built = 0;
        for _ in 0..decks {
            let mut deck = self.deck.to_vec();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.gen_range(0..i + 1));
            }
            for n in deck {
                let params = DsbmParams {
                    n,
                    k: 3,
                    p_intra: 0.25,
                    p_inter: 0.25,
                    eta_flow: 0.9,
                    meta: MetaGraph::Cycle,
                    seed: rng.gen(),
                    ..DsbmParams::default()
                };
                let g = dsbm(&params).expect("valid DSBM parameters");
                match pool.get_mut(built) {
                    Some(slot) => *slot = g,
                    None => pool.push(g),
                }
                built += 1;
            }
        }
        pool.truncate(built);
        pool
    }
}

/// The result of one graph: its pool index, latency and checked output.
struct Done {
    index: usize,
    latency_s: f64,
    /// Host factor from the reference samples taken before and after it.
    factor: f64,
    outcome: Outcome<(f64, u64)>,
}

fn run_one(batch: &Batch, pipeline: &Pipeline, g: &PlantedGraph, index: usize) -> Done {
    let start = Instant::now();
    let result = pipeline.run(&g.graph);
    let latency_s = start.elapsed().as_secs_f64();
    let outcome = match result {
        Err(e) => Err(Fail::Error(format!("graph {index}: {e}"))),
        Ok(out) => {
            trace::count("cost.classical_model", out.diagnostics.classical_cost);
            trace::count(
                "cost.quantum_model",
                out.diagnostics.quantum_cost.unwrap_or(0.0),
            );
            let acc = matched_accuracy(&g.labels, &out.labels);
            if out.labels.len() != g.labels.len() {
                Err(Fail::Wrong(format!(
                    "graph {index}: {} labels for {} vertices",
                    out.labels.len(),
                    g.labels.len()
                )))
            } else if acc < batch.accuracy_floor {
                Err(Fail::Wrong(format!(
                    "graph {index} (n = {}): accuracy {acc} below floor {}",
                    g.labels.len(),
                    batch.accuracy_floor
                )))
            } else {
                Ok((acc, report::digest_usize(&out.labels)))
            }
        }
    };
    Done {
        index,
        latency_s,
        factor: 1.0,
        outcome,
    }
}

/// Host reference samples taken after each graph. A graph's factor comes
/// from the samples on both sides of it (see `hostref`).
const REF_SAMPLES_PER_GRAPH: usize = 8;

/// Closed loop for `seconds`, or until the pool is used up: clients take
/// the next pool index from a shared counter, and time the host reference
/// after each graph. Returns each client's results, the host reference
/// samples and the wall time spent on graphs (the clients' mean reference
/// time taken off).
fn run_for(
    batch: &Batch,
    pipeline: &Pipeline,
    pool: &[PlantedGraph],
    clients: usize,
    seconds: f64,
) -> (Vec<Vec<Done>>, Vec<f64>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut host = HostRef::new();
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(g) = pool.get(index) else { break };
                        let mut d = run_one(batch, pipeline, g, index);
                        host.samples(REF_SAMPLES_PER_GRAPH);
                        d.factor = host.recent_factor(2 * REF_SAMPLES_PER_GRAPH);
                        done.push(d);
                    }
                    (done, host)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let ref_s = per_client.iter().map(|(_, h)| h.spent_s).sum::<f64>() / clients as f64;
    let samples = per_client
        .iter()
        .flat_map(|(_, h)| h.samples.iter().copied())
        .collect();
    let done = per_client.into_iter().map(|(d, _)| d).collect();
    (done, samples, wall - ref_s)
}

/// Replays each client's recorded indices through the traced pipeline.
fn replay_traced(
    batch: &Batch,
    pipeline: &Pipeline,
    pool: &[PlantedGraph],
    plan: &[Vec<usize>],
) -> Vec<Vec<Done>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|indices| {
                s.spawn(move || {
                    trace::enable();
                    indices
                        .iter()
                        .map(|&i| trace::root("graph", || run_one(batch, pipeline, &pool[i], i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs the pipeline once on the smallest graph, so the first timed graph
/// pays no first-use cost for the worker pool, allocator or backend
/// buffers. Not part of `setup_s`: it times the pipeline, not the set-up.
fn warm_up(pipeline: &Pipeline, pool: &[PlantedGraph]) {
    let smallest = pool
        .iter()
        .min_by_key(|g| g.labels.len())
        .expect("non-empty pool");
    pipeline
        .run(&smallest.graph)
        .expect("warm-up graph clusters");
}

pub fn run(batch: &Batch, args: &Args) -> Report {
    let mut report = Report::default();
    let clients = args.clients;
    let make_pool = |reuse| batch.graphs(args.seed, args.seconds, clients, reuse);
    let pipeline = batch.pipeline(args.seed, false);

    if !args.trace {
        let mut setups = report::Setups::default();
        let pool = setups.time(None, make_pool);
        warm_up(&pipeline, &pool);
        let (results, samples, busy) = run_for(batch, &pipeline, &pool, clients, args.seconds);
        setups.time(Some(pool), make_pool);
        let (lat, acc) = tally(&mut report, results.iter().flatten());
        if let Some(lowest) = acc.iter().copied().reduce(f64::min) {
            println!("lowest accuracy {lowest} over {} graphs", acc.len());
        }
        setups.report(&mut report);
        let raw: Vec<f64> = lat.iter().map(|l| l.0).collect();
        let scaled: Vec<f64> = lat.iter().map(|l| l.0 * l.1).collect();
        let f = scaled.iter().sum::<f64>() / raw.iter().sum::<f64>();
        println!(
            "host reference median {:.4} ms over {} samples, factor {f:.4}",
            stats::median(&samples).unwrap_or(f64::NAN),
            samples.len()
        );
        let q = |v: &[f64], p| stats::quantile(v, p).unwrap_or(f64::NAN) * 1e3;
        println!(
            "raw: throughput {:.4}/s, p50 {:.3} ms, p90 {:.3} ms",
            lat.len() as f64 / busy,
            q(&raw, 0.5),
            q(&raw, 0.9)
        );
        report.metric("throughput_per_s", lat.len() as f64 / busy / f);
        report.metric("p50_ms", q(&scaled, 0.5));
        report.metric("tail_ms", q(&scaled, 0.9));
        report.metric("mean_accuracy", stats::mean(&acc).unwrap_or(f64::NAN));
        report.finish_e2e();
        return report;
    }

    // Traced run: an untraced pass, then the same graphs on the same
    // clients through the wrappers; outputs must match bit for bit.
    let pool = make_pool(None);
    warm_up(&pipeline, &pool);
    let (plain, samples, _) = run_for(batch, &pipeline, &pool, clients, args.seconds / 2.0);
    let plan: Vec<Vec<usize>> = plain
        .iter()
        .map(|c| c.iter().map(|d| d.index).collect())
        .collect();
    let traced_pipeline = batch.pipeline(args.seed, true);
    let _ = trace::take();
    let traced = replay_traced(batch, &traced_pipeline, &pool, &plan);
    let (spans, counters, orphans) = trace::take();
    tally(&mut report, plain.iter().flatten());
    report.metric("host.ref_ms", stats::median(&samples).unwrap_or(f64::NAN));
    for (a, b) in plain.iter().flatten().zip(traced.iter().flatten()) {
        if let Ok((_, digest)) = &a.outcome {
            if !matches!(&b.outcome, Ok((_, d)) if d == digest) {
                report.wrong(format!(
                    "graph {}: traced labels differ from untraced",
                    a.index
                ));
            }
        }
    }
    report.layers(&spans, &counters, orphans, plan.iter().map(Vec::len).sum());
    report.metric(
        "trace.overhead_ratio",
        report::overhead_ratio(
            plain.iter().flatten().map(|d| d.latency_s),
            traced.iter().flatten().map(|d| d.latency_s),
        ),
    );
    report.write_spans(args, &spans);
    report.finish_layers();
    report
}

/// Counts attempts and failures; returns the latencies (s) with their host
/// factors, and the accuracies, of the graphs whose outputs passed.
fn tally<'a>(
    report: &mut Report,
    done: impl Iterator<Item = &'a Done>,
) -> (Vec<(f64, f64)>, Vec<f64>) {
    let mut lat = Vec::new();
    let mut acc = Vec::new();
    for d in done {
        if let Some((a, _)) = report.tally(&d.outcome) {
            lat.push((d.latency_s, d.factor));
            acc.push(*a);
        }
    }
    (lat, acc)
}
