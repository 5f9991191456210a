//! The `served_mix` workload: an in-process `qsc-serve` server and
//! closed-loop clients sending a seeded mix of cache hits, cache misses
//! and remote backend calls.

use crate::report::{self, Fail, Outcome, Report};
use crate::trace::{self, TracedBackend};
use crate::{stats, Args};
use qsc_bench::client::{http_request, HttpResponse};
use qsc_json::Value;
use qsc_serve::{ServeConfig, Server};
use qsc_sim::{Backend, RemoteBackend, Statevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sweeps primed at set-up; hits re-submit one of them.
const HOT_SPECS: usize = 8;
/// Phases prepared at set-up for exec requests, with local references.
const EXEC_PHASES: usize = 64;
/// Phase-register width of an exec request.
const EXEC_BITS: usize = 6;
/// Rows of every sweep: one per n value.
const SWEEP_ROWS: usize = 2;
/// `peak_rss_mb` is read when this many requests have finished: every
/// request leaves a job record in the service, so peak memory at the end
/// of the run would grow with throughput.
const RSS_MARK: u64 = 8000;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The request mix: shares of hits and misses; the rest are exec calls.
const HIT_SHARE: f64 = 0.6;
const MISS_SHARE: f64 = 0.1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Exec,
}

enum Request {
    Hit(usize),
    Miss { ns: [usize; 2], graph_base: u64 },
    Exec(usize),
}

struct Hot {
    body: String,
    csv: String,
    accuracy: f64,
}

struct Service {
    server: Server,
    base: String,
    addr: String,
    hot: Vec<Hot>,
    phases: Vec<(f64, Vec<f64>)>,
    status_429: AtomicU64,
    status_5xx: AtomicU64,
    queue_depth_max: AtomicU64,
    /// Requests finished, and the peak RSS when they reached `RSS_MARK`.
    finished: AtomicU64,
    rss_at_mark: OnceLock<f64>,
}

/// A tiny classical DSBM sweep: 2 n values × 2 repetitions.
fn spec(title: &str, ns: [usize; 2], graph_base: u64) -> String {
    format!(
        r#"{{"name": "perfbench", "title": "{title}", "kind": "pipeline",
  "graph": {{"family": "dsbm", "k": 3, "p_intra": 0.25, "p_inter": 0.25, "eta_flow": 0.9, "meta": "cycle"}},
  "reps": {{"quick": 2, "full": 2}},
  "seeds": {{"graph_base": {graph_base}}},
  "base": {{"k": 3}},
  "variants": [{{"name": "classical"}}],
  "axes": [{{"name": "n", "path": "graph.n", "values": [{}, {}]}}],
  "columns": [{{"header": "n", "axis": "n"}},
              {{"header": "accuracy", "variant": "classical", "metric": "matched_accuracy", "mean": 4}}]}}"#,
        ns[0], ns[1]
    )
}

fn draw_sweep(rng: &mut StdRng) -> ([usize; 2], u64) {
    let a = rng.gen_range(40..66);
    let b = rng.gen_range(66..91);
    ([a, b], rng.gen_range(0..1_000_000))
}

/// Client `client`'s request sequence: the same seed gives the same mix.
struct Requests {
    rng: StdRng,
}

impl Requests {
    fn new(seed: u64, client: usize) -> Self {
        Requests {
            rng: StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(client as u64 + 1)),
            ),
        }
    }

    fn next(&mut self) -> Request {
        let u: f64 = self.rng.gen();
        if u < HIT_SHARE {
            Request::Hit(self.rng.gen_range(0..HOT_SPECS))
        } else if u < HIT_SHARE + MISS_SHARE {
            let (ns, graph_base) = draw_sweep(&mut self.rng);
            Request::Miss { ns, graph_base }
        } else {
            Request::Exec(self.rng.gen_range(0..EXEC_PHASES))
        }
    }
}

/// One finished request.
struct Done {
    kind: Kind,
    latency_s: f64,
    /// Digest of the response payload, and the accuracy it reports.
    outcome: Outcome<(u64, Option<f64>)>,
}

/// Worker-pool size of the served workload's service.
pub fn workers(args: &Args) -> usize {
    args.clients
}

impl Service {
    fn start(args: &Args) -> Service {
        let cache_dir = args.out_dir.join("served-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: workers(args),
            cache_dir,
            ..ServeConfig::default()
        })
        .expect("service starts on a free loopback port");
        let mut service = Service {
            base: server.base_url(),
            addr: server.local_addr().to_string(),
            server,
            hot: Vec::new(),
            phases: Vec::new(),
            status_429: AtomicU64::new(0),
            status_5xx: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            rss_at_mark: OnceLock::new(),
        };
        let mut rng = StdRng::seed_from_u64(args.seed);
        for i in 0..HOT_SPECS {
            let (ns, graph_base) = draw_sweep(&mut rng);
            let body = spec(&format!("perfbench hot {i}"), ns, graph_base);
            let (csv, accuracy) = match service.miss(&body) {
                Ok(done) => done,
                Err(Fail::Error(e) | Fail::Wrong(e)) => panic!("priming hot sweep {i}: {e}"),
            };
            service.hot.push(Hot {
                body,
                csv,
                accuracy,
            });
        }
        let local = Statevector::new();
        for _ in 0..EXEC_PHASES {
            let phi: f64 = rng.gen();
            let reference = local
                .phase_distribution(phi, EXEC_BITS, &mut StdRng::seed_from_u64(0))
                .expect("local statevector phase distribution");
            service.phases.push((phi, reference));
        }
        service
    }

    /// Sorts a response into refused (429), failed (5xx) or answered.
    fn check_status(&self, what: &str, r: &HttpResponse, want: u16) -> Outcome<()> {
        if r.status == 429 {
            self.status_429.fetch_add(1, Ordering::Relaxed);
            return Err(Fail::Error(format!("{what}: refused (429)")));
        }
        if r.status >= 500 {
            self.status_5xx.fetch_add(1, Ordering::Relaxed);
            return Err(Fail::Error(format!("{what}: status {}", r.status)));
        }
        if r.status != want {
            return Err(Fail::Wrong(format!(
                "{what}: status {} (expected {want}): {}",
                r.status,
                r.body.trim()
            )));
        }
        Ok(())
    }

    /// POSTs a spec; returns the job id after checking the cache marker.
    fn submit(&self, body: &str, expect_hit: bool) -> Outcome<String> {
        let r = trace::span("http.submit", || {
            http_request(&self.base, "POST", "/v1/sweeps", Some(body))
        })
        .map_err(|e| Fail::Error(format!("submit: {e}")))?;
        self.check_status("submit", &r, if expect_hit { 200 } else { 202 })?;
        let v = Value::parse(&r.body).map_err(|e| Fail::Wrong(format!("submit body: {e}")))?;
        let marker = v.get("cache").and_then(Value::as_str).unwrap_or("");
        if marker != if expect_hit { "hit" } else { "miss" } {
            return Err(Fail::Wrong(format!("submit: cache marker `{marker}`")));
        }
        v.get("id")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| Fail::Wrong("submit: no job id".into()))
    }

    fn result(&self, id: &str) -> Outcome<String> {
        let r = trace::span("http.result", || {
            http_request(&self.base, "GET", &format!("/v1/sweeps/{id}/result"), None)
        })
        .map_err(|e| Fail::Error(format!("result: {e}")))?;
        self.check_status("result", &r, 200)?;
        Ok(r.body)
    }

    fn hit(&self, hot: &Hot) -> Outcome<(u64, Option<f64>)> {
        let id = self.submit(&hot.body, true)?;
        let csv = self.result(&id)?;
        if csv != hot.csv {
            return Err(Fail::Wrong(
                "hit: CSV differs from the primed result".into(),
            ));
        }
        Ok((report::digest_bytes(csv.bytes()), Some(hot.accuracy)))
    }

    /// A cache miss: submit, read the row stream to its end, fetch the
    /// result. Returns the CSV and its mean accuracy.
    fn miss(&self, body: &str) -> Outcome<(String, f64)> {
        let id = self.submit(body, false)?;
        self.queue_depth_max
            .fetch_max(self.server.jobs().queue_depth() as u64, Ordering::Relaxed);
        let streamed = trace::span("http.stream", || self.stream(&id))?;
        let csv = self.result(&id)?;
        if csv != streamed {
            return Err(Fail::Wrong(
                "miss: streamed rows differ from the result".into(),
            ));
        }
        let accuracy = check_sweep(&csv).map_err(|e| Fail::Wrong(format!("miss: {e}")))?;
        Ok((csv, accuracy))
    }

    /// Reads `/v1/sweeps/:id/stream` to its end, recording the time to the
    /// first data row (the chunk after the header) as its own span.
    fn stream(&self, id: &str) -> Outcome<String> {
        let io = |e: std::io::Error| Fail::Error(format!("stream: {e}"));
        let start = Instant::now();
        let mut conn = TcpStream::connect(&self.addr).map_err(io)?;
        conn.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        write!(
            conn,
            "GET /v1/sweeps/{id}/stream HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        )
        .map_err(io)?;
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).map_err(io)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Fail::Wrong(format!("stream: status line `{}`", line.trim())))?;
        let mut chunked = false;
        loop {
            line.clear();
            reader.read_line(&mut line).map_err(io)?;
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            if header.eq_ignore_ascii_case("transfer-encoding: chunked") {
                chunked = true;
            }
        }
        if status != 200 || !chunked {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            let r = HttpResponse {
                status,
                headers: Vec::new(),
                body: rest,
            };
            self.check_status("stream", &r, 200)?;
            return Err(Fail::Wrong("stream: not chunked".into()));
        }
        let mut body = Vec::new();
        let mut chunks = 0;
        loop {
            line.clear();
            reader.read_line(&mut line).map_err(io)?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| Fail::Wrong(format!("stream: chunk size `{}`", line.trim())))?;
            let mut chunk = vec![0; size + 2];
            reader.read_exact(&mut chunk).map_err(io)?;
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
            chunks += 1;
            if chunks == 2 {
                trace::interval("http.first_row", start, Instant::now());
            }
        }
        String::from_utf8(body).map_err(|_| Fail::Wrong("stream: not UTF-8".into()))
    }

    fn exec(&self, backend: &dyn Backend, phase: usize) -> Outcome<(u64, Option<f64>)> {
        let (phi, reference) = &self.phases[phase];
        let dist = backend
            .phase_distribution(*phi, EXEC_BITS, &mut StdRng::seed_from_u64(0))
            .map_err(|e| Fail::Error(format!("exec: {e}")))?;
        let same = dist.len() == reference.len()
            && dist
                .iter()
                .zip(reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(Fail::Wrong(format!(
                "exec: distribution for φ = {phi} differs from local"
            )));
        }
        Ok((report::digest_f64(&dist), None))
    }

    fn one(&self, backend: &dyn Backend, request: &Request, tag: &str) -> Done {
        let start = Instant::now();
        let (kind, outcome) = match request {
            Request::Hit(i) => (Kind::Hit, trace::root("hit", || self.hit(&self.hot[*i]))),
            Request::Miss { ns, graph_base } => {
                let body = spec(&format!("perfbench miss {tag}"), *ns, *graph_base);
                let outcome = trace::root("miss", || self.miss(&body));
                (
                    Kind::Miss,
                    outcome.map(|(csv, acc)| (report::digest_bytes(csv.bytes()), Some(acc))),
                )
            }
            Request::Exec(p) => (Kind::Exec, trace::root("exec", || self.exec(backend, *p))),
        };
        Done {
            kind,
            latency_s: start.elapsed().as_secs_f64(),
            outcome,
        }
    }
}

/// Checks a sweep CSV: a header, one row per n value, no failed cells.
/// Returns the mean of the accuracy column.
fn check_sweep(csv: &str) -> Result<f64, String> {
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    if rows.len() != SWEEP_ROWS {
        return Err(format!("{} rows, expected {SWEEP_ROWS}", rows.len()));
    }
    if csv.contains("failed(") {
        return Err("failed cells in the result".into());
    }
    let acc: Vec<f64> = rows
        .iter()
        .map(|r| r.rsplit(',').next().and_then(|a| a.parse().ok()))
        .collect::<Option<_>>()
        .ok_or("accuracy column is not numeric")?;
    stats::mean(&acc).ok_or_else(|| "no rows".into())
}

/// Client threads, each with its own request sequence and remote backend.
/// `quota` bounds each client's request count (replay); otherwise clients
/// run until `seconds` have passed.
fn drive(
    service: &Service,
    args: &Args,
    pass: &str,
    traced: bool,
    seconds: f64,
    quota: Option<&[usize]>,
) -> (Vec<Vec<Done>>, f64) {
    let inner = Value::Str("statevector".into());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let inner = inner.clone();
                s.spawn(move || {
                    if traced {
                        trace::enable();
                    }
                    let remote = RemoteBackend::new(service.addr.clone(), inner);
                    let backend: Box<dyn Backend> = if traced {
                        Box::new(TracedBackend(remote))
                    } else {
                        Box::new(remote)
                    };
                    let mut requests = Requests::new(args.seed, c);
                    let mut done = Vec::new();
                    for k in 0.. {
                        let more = match quota {
                            Some(q) => k < q[c],
                            None => Instant::now() < deadline,
                        };
                        if !more {
                            break;
                        }
                        let request = requests.next();
                        let tag = format!("{pass} c{c} r{k}");
                        let d = service.one(backend.as_ref(), &request, &tag);
                        if service.finished.fetch_add(1, Ordering::Relaxed) + 1 == RSS_MARK {
                            let _ = service.rss_at_mark.set(report::peak_rss_mb());
                        }
                        done.push(d);
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (per_client, start.elapsed().as_secs_f64())
}

/// Per-kind latencies (s) of passed requests, plus accuracies.
#[derive(Default)]
struct Tally {
    all: Vec<f64>,
    hit: Vec<f64>,
    miss: Vec<f64>,
    exec: Vec<f64>,
    accuracy: Vec<f64>,
}

fn tally(report: &mut Report, per_client: &[Vec<Done>]) -> Tally {
    let mut t = Tally::default();
    for d in per_client.iter().flatten() {
        if let Some((_, acc)) = report.tally(&d.outcome) {
            t.all.push(d.latency_s);
            match d.kind {
                Kind::Hit => t.hit.push(d.latency_s),
                Kind::Miss => t.miss.push(d.latency_s),
                Kind::Exec => t.exec.push(d.latency_s),
            }
            t.accuracy.extend(acc);
        }
    }
    t
}

fn q(values: &[f64], p: f64, scale: f64) -> f64 {
    stats::quantile(values, p).map_or(0.0, |v| v * scale)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if !args.trace {
        let mut setups = report::Setups::default();
        let start = |old: Option<Service>| {
            drop(old);
            Service::start(args)
        };
        let service = setups.time(None, start);
        let (done, wall) = drive(&service, args, "u", false, args.seconds, None);
        let rss_at_mark = service.rss_at_mark.get().copied();
        let service = setups.time(Some(service), start);
        shut_down(service, args);
        let t = tally(&mut report, &done);
        setups.report(&mut report);
        report.metric("throughput_per_s", t.all.len() as f64 / wall);
        report.metric("p50_ms", q(&t.all, 0.5, 1e3));
        report.metric("tail_ms", q(&t.all, 0.99, 1e3));
        report.metric(
            "mean_accuracy",
            stats::mean(&t.accuracy).unwrap_or(f64::NAN),
        );
        report.finish_e2e();
        if let Some(rss) = rss_at_mark {
            report.metric("peak_rss_mb", rss);
        } else {
            println!("peak_rss_mb: fewer than {RSS_MARK} requests, read at the end");
        }
        return report;
    }

    let service = Service::start(args);
    let (plain, _) = drive(&service, args, "u", false, args.seconds / 2.0, None);
    let quota: Vec<usize> = plain.iter().map(Vec::len).collect();
    let cache_before = service.server.jobs().cache().stats();
    let executed_before = service.server.exec().executed();
    let _ = trace::take();
    let (traced, _) = drive(&service, args, "t", true, 0.0, Some(&quota));
    let (spans, counters, orphans) = trace::take();
    let cache = service.server.jobs().cache().stats();
    let executed = service.server.exec().executed() - executed_before;

    let t = tally(&mut report, &plain);
    for (a, b) in plain.iter().flatten().zip(traced.iter().flatten()) {
        if let Ok((digest, _)) = &a.outcome {
            if !matches!(&b.outcome, Ok((d, _)) if d == digest) {
                report.wrong("traced response differs from untraced".into());
            }
        }
    }
    report.metric("hit.p50_ms", q(&t.hit, 0.5, 1e3));
    report.metric("hit.p99_ms", q(&t.hit, 0.99, 1e3));
    report.metric("miss.p50_ms", q(&t.miss, 0.5, 1e3));
    report.metric("miss.p90_ms", q(&t.miss, 0.9, 1e3));
    report.metric("exec.p50_us", q(&t.exec, 0.5, 1e6));
    report.metric("exec.p99_us", q(&t.exec, 0.99, 1e6));
    let med = |name: &str, root: &str| {
        stats::median(&trace::durations_under_ms(&spans, name, root)).unwrap_or(0.0)
    };
    report.metric("hit.submit_ms", med("http.submit", "hit"));
    report.metric("hit.result_ms", med("http.result", "hit"));
    report.metric("miss.submit_ms", med("http.submit", "miss"));
    report.metric("miss.first_row_ms", med("http.first_row", "miss"));
    report.metric("miss.stream_ms", med("http.stream", "miss"));
    report.metric("miss.result_ms", med("http.result", "miss"));
    let ops: usize = quota.iter().sum();
    let per_op = 1.0 / ops.max(1) as f64;
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    report.metric("cache.hits", hits * per_op);
    report.metric("cache.misses", misses * per_op);
    report.metric("cache.hit_ratio", hits / (hits + misses).max(1.0));
    report.metric(
        "cache.evictions",
        (cache.evictions - cache_before.evictions) as f64 * per_op,
    );
    report.metric(
        "jobs.queue_depth_max",
        service.queue_depth_max.load(Ordering::Relaxed) as f64,
    );
    report.metric(
        "http.status_429",
        service.status_429.load(Ordering::Relaxed) as f64,
    );
    report.metric(
        "http.status_5xx",
        service.status_5xx.load(Ordering::Relaxed) as f64,
    );
    let calls = traced
        .iter()
        .flatten()
        .filter(|d| d.kind == Kind::Exec)
        .count() as f64;
    report.metric("exec.calls", calls * per_op);
    report.metric("exec.executed", executed as f64 * per_op);
    if executed as f64 != calls {
        report.wrong(format!(
            "server executed {executed} exec requests, clients sent {calls}"
        ));
    }
    report.layers(&spans, &counters, orphans, ops);
    report.metric(
        "trace.overhead_ratio",
        report::overhead_ratio(
            plain.iter().flatten().map(|d| d.latency_s),
            traced.iter().flatten().map(|d| d.latency_s),
        ),
    );
    report.write_spans(args, &spans);
    report.finish_layers();
    shut_down(service, args);
    report
}

fn shut_down(mut service: Service, args: &Args) {
    service.server.shutdown();
    let _ = std::fs::remove_dir_all(args.out_dir.join("served-cache"));
}
