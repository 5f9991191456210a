//! Outside-in tracing: spans and counters recorded around the calls the
//! benchmark makes into the program's public traits and endpoints.
//!
//! A client thread opens one root span per operation (a graph or a
//! request); every span opened on that thread while the root is open
//! becomes its descendant through a thread-local stack. Finished spans and
//! counters stay in thread-local buffers until their root closes, then move
//! into one global store that the run reads at the end. Recording is
//! switched on per thread with [`enable`], on the traced pass's client
//! threads only; elsewhere spans and counters cost one thread-local read.

use qsc_cluster::{ClusterError, KMeansConfig, KMeansResult};
use qsc_core::{Clusterer, Embedder, Embedding, Error as CoreError, QuantumParams, StageContext};
use qsc_graph::MixedGraph;
use qsc_linalg::CsrMatrix;
use qsc_sim::{Backend, Circuit, QuantumState, SimError};
use rand::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, or 0 for a root.
    pub parent: u64,
    /// Root span of the operation this span belongs to (itself for a root).
    pub root: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Spans that closed with no enclosing span on their thread.
static ORPHANS: AtomicU64 = AtomicU64::new(0);

#[derive(Default)]
struct Local {
    /// Ids of the open spans on this thread, outermost (the root) first.
    stack: Vec<u64>,
    finished: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    /// Whether this thread records; see [`enable`].
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
    /// `estimate_probability` costs about as much as two clock reads, so it
    /// is counted in a plain cell and never timed.
    static ESTIMATES: Cell<u64> = const { Cell::new(0) };
}

/// Makes the calling thread record spans and counters from now on. Called
/// by the traced pass's client threads, so the untraced pass and set-up
/// record nothing.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` with a new span open on this thread.
fn open<T>(f: impl FnOnce() -> T) -> (u64, Instant, Instant, T) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    // Fix the epoch before the first start time is taken.
    epoch();
    let start = Instant::now();
    LOCAL.with(|l| l.borrow_mut().stack.push(id));
    let out = f();
    let end = Instant::now();
    let popped = LOCAL.with(|l| l.borrow_mut().stack.pop());
    debug_assert_eq!(popped, Some(id), "spans close in the order they open");
    (id, start, end, out)
}

/// Records a finished span inside the innermost open span of this thread;
/// with none open, the span is an orphan.
fn record(id: u64, name: &'static str, start: Instant, end: Instant) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        if parent == 0 {
            ORPHANS.fetch_add(1, Ordering::Relaxed);
        }
        let root = l.stack.first().copied().unwrap_or(0);
        l.finished.push(Span {
            id,
            parent,
            root,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (id, start, end, out) = open(f);
    record(id, name, start, end);
    out
}

/// Records an interval that ended before the enclosing span did.
pub fn interval(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    record(NEXT_ID.fetch_add(1, Ordering::Relaxed), name, start, end);
}

/// Runs one operation `f` under a root span and moves everything the
/// thread recorded for it into the global store.
pub fn root<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (id, start, end, out) = open(f);
    let (finished, counters) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.finished.push(Span {
            id,
            parent: 0,
            root: id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (
            std::mem::take(&mut l.finished),
            std::mem::take(&mut l.counters),
        )
    });
    let estimates = ESTIMATES.with(|c| c.replace(0));
    let mut s = store().lock().expect("trace store poisoned");
    s.spans.extend(finished);
    for (k, v) in counters {
        *s.counters.entry(k).or_insert(0.0) += v;
    }
    if estimates > 0 {
        *s.counters
            .entry("backend.estimate_probability.calls")
            .or_insert(0.0) += estimates as f64;
    }
    out
}

/// Adds `v` to the counter `name` of the current operation.
pub fn count(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| *l.borrow_mut().counters.entry(name).or_insert(0.0) += v);
}

/// Everything recorded so far: spans, counters and the orphan count.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>, u64) {
    let mut s = store().lock().expect("trace store poisoned");
    let s = std::mem::take(&mut *s);
    (s.spans, s.counters, ORPHANS.swap(0, Ordering::Relaxed))
}

/// Per span name: number of spans, total seconds and total self seconds
/// (duration minus the part of it its child spans cover).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| union_ns(c));
        let entry = out.entry(s.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += s.duration_ns() as f64 * 1e-9;
        entry.2 += s.duration_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Durations (milliseconds) of spans named `name` whose root is named
/// `root_name`.
pub fn durations_under_ms(spans: &[Span], name: &str, root_name: &str) -> Vec<f64> {
    let roots: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root_name)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && roots.contains(&s.root))
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect()
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.root, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

// ---------------------------------------------------------------------------
// Transparent wrappers. Each delegates every trait method, defaulted ones
// included: a missed delegate would silently fall back to the trait default
// and change the stage's behaviour (or its name, which the staged-embedding
// check compares).
// ---------------------------------------------------------------------------

/// Times an [`Embedder`] and sums its diagnostics inputs.
pub struct TracedEmbedder<E>(pub E);

impl<E: Embedder> Embedder for TracedEmbedder<E> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn embed(
        &self,
        g: &MixedGraph,
        laplacian: &CsrMatrix,
        ctx: &StageContext,
    ) -> Result<Embedding, CoreError> {
        let out = span("embed", || self.0.embed(g, laplacian, ctx));
        count("embed.calls", 1.0);
        if let Ok(e) = &out {
            count("embed.dims_used", e.dims_used as f64);
        }
        out
    }

    fn quantum_params(&self) -> Option<&QuantumParams> {
        self.0.quantum_params()
    }

    fn classical_cost(
        &self,
        n: usize,
        k: usize,
        cluster_iterations: usize,
        embedding: &Embedding,
    ) -> f64 {
        self.0.classical_cost(n, k, cluster_iterations, embedding)
    }
}

/// Times a [`Clusterer`] and sums its iteration counts.
pub struct TracedClusterer<C>(pub C);

impl<C: Clusterer> TracedClusterer<C> {
    fn record(out: &Result<KMeansResult, ClusterError>) {
        count("cluster.calls", 1.0);
        if let Ok(r) = out {
            count("cluster.iterations", r.iterations as f64);
        }
    }
}

impl<C: Clusterer> Clusterer for TracedClusterer<C> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn cluster(
        &self,
        data: &[Vec<f64>],
        base: &KMeansConfig,
    ) -> Result<KMeansResult, ClusterError> {
        let out = span("cluster", || self.0.cluster(data, base));
        Self::record(&out);
        out
    }

    fn cluster_with_backend(
        &self,
        data: &[Vec<f64>],
        base: &KMeansConfig,
        backend: &dyn Backend,
    ) -> Result<KMeansResult, ClusterError> {
        let out = span("cluster", || {
            self.0.cluster_with_backend(data, base, backend)
        });
        Self::record(&out);
        out
    }
}

/// Times the expensive [`Backend`] methods and counts the cheap ones.
pub struct TracedBackend<B>(pub B);

impl<B: Backend> Backend for TracedBackend<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn prepare(&self, num_qubits: usize, basis_index: usize) -> QuantumState {
        self.0.prepare(num_qubits, basis_index)
    }

    fn try_prepare(&self, num_qubits: usize, basis_index: usize) -> Result<QuantumState, SimError> {
        self.0.try_prepare(num_qubits, basis_index)
    }

    fn run(
        &self,
        circuit: &Circuit,
        state: &mut QuantumState,
        rng: &mut StdRng,
    ) -> Result<(), SimError> {
        span("backend.run", || self.0.run(circuit, state, rng))
    }

    fn sample(
        &self,
        state: &QuantumState,
        shots: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, SimError> {
        span("backend.sample", || self.0.sample(state, shots, rng))
    }

    fn recycle(&self, state: QuantumState) {
        self.0.recycle(state)
    }

    fn exact_statistics(&self) -> bool {
        self.0.exact_statistics()
    }

    fn pure_state(&self) -> bool {
        self.0.pure_state()
    }

    fn phase_register_limit(&self) -> Option<usize> {
        self.0.phase_register_limit()
    }

    fn phase_distribution(
        &self,
        phi: f64,
        t: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, SimError> {
        span("backend.phase_distribution", || {
            self.0.phase_distribution(phi, t, rng)
        })
    }

    fn estimate_probability(&self, p: f64, rng: &mut StdRng) -> Result<f64, SimError> {
        ESTIMATES.with(|c| c.set(c.get() + 1));
        self.0.estimate_probability(p, rng)
    }

    fn execute(
        &self,
        circuit: &Circuit,
        basis_index: usize,
        rng: &mut StdRng,
    ) -> Result<QuantumState, SimError> {
        span("backend.execute", || {
            self.0.execute(circuit, basis_index, rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                root: 1,
                name: "graph",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                root: 1,
                name: "embed",
                start_ns: 10,
                end_ns: 60,
            },
            Span {
                id: 3,
                parent: 2,
                root: 1,
                name: "backend.run",
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                id: 4,
                parent: 2,
                root: 1,
                name: "backend.run",
                start_ns: 25,
                end_ns: 40,
            },
        ];
        let s = summarize(&spans);
        assert!((s["graph"].2 - 50e-9).abs() < 1e-15);
        assert!((s["embed"].2 - 30e-9).abs() < 1e-15);
        assert_eq!(s["backend.run"].0, 2);
    }

    #[test]
    fn spans_nest_under_the_thread_root() {
        // Recorded nothing before the thread enables tracing.
        root("off", || span("a", || ()));
        assert!(take().0.is_empty());
        enable();
        root("op", || span("a", || span("b", || ())));
        span("stray", || ());
        let (spans, _, orphans) = take();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!((a.parent, a.root), (op.id, op.id));
        assert_eq!((b.parent, b.root), (a.id, op.id));
        // The stray span has no root: it counts as an orphan.
        assert!(spans.iter().all(|s| s.name != "stray"));
        assert_eq!(orphans, 1);
    }
}
