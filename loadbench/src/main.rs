//! `fedval-loadbench`: the end-to-end benchmark of the valuation service.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload fl-session --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run repeats cycles of *sessions*, one per session variant the seed
//! derives. Each session builds a fresh stack (untimed, reported as
//! `setup_s`), then [`CONNECTIONS`] closed-loop keep-alive HTTP/1.1
//! connections send the variant's fixed request lists over loopback.
//! Every response is checked bit for bit against solo in-process
//! `ValuationServer::call` answers computed before timing. `--trace 1`
//! follows each session with a twin whose stack carries timing wrappers,
//! and reports per-layer metrics from the spans. The last line of
//! standard output is the JSON result; `loadbench/README.md` documents
//! every metric.

// A benchmark harness: reading the clock is what it is for. The
// repository's wall-clock ban guards the valuation code, not this.
#![allow(clippy::disallowed_methods)]

mod sys;
mod trace;
mod workload;

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fedval_serve::http::Client;
use fedval_serve::json::{self, Json};

use crate::sys::{median, percentile};
use crate::trace::{Recorder, Span};
use crate::workload::{variant_seed, Reference, ToReference, ToWire, Workload, CONNECTIONS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload is required (fl-session, hash-anytime, wire-small)")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// One round trip as the client saw it.
struct Exchange {
    conn: usize,
    idx: usize,
    /// Nanoseconds since the run's epoch: write start, response read end.
    start: u64,
    end: u64,
    status: u16,
    body: Vec<u8>,
}

impl Exchange {
    fn ms(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-6
    }
}

/// What the response body says about one request's run.
struct Served {
    wall_ms: f64,
    park_ms: f64,
    batches: f64,
    coalitions: f64,
    coalesced: f64,
}

/// One session's inputs and the answers they must get.
struct Variant {
    seed: u64,
    bodies: Vec<Vec<String>>,
    reference: Reference,
}

impl Variant {
    fn requests(&self) -> usize {
        self.bodies.iter().map(Vec::len).sum()
    }
}

struct Session {
    /// The cycle of the run the session belongs to.
    cycle: usize,
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// Resident set after the last response.
    rss_mb: f64,
    exchanges: Vec<Exchange>,
    /// `GET /v1/stats` after the last response.
    stats: Json,
}

fn run_session(
    workload: Workload,
    variant: &Variant,
    rec: &Arc<Recorder>,
    cycle: usize,
    traced: bool,
) -> Session {
    let t = Instant::now();
    let stack = workload.build(variant.seed, traced.then(|| Arc::clone(rec)), ToWire);
    let setup_s = t.elapsed().as_secs_f64();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(stack.addr).expect("connect to loopback"))
        .collect();
    // Wait until the server has accepted every connection, so the accept
    // loop's poll tick stays out of the timed requests.
    for c in &mut clients {
        let ok = c.get("/v1/healthz").expect("healthz");
        assert_eq!(ok.status, 200, "healthz");
    }

    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let exchanges: Vec<Exchange> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&variant.bodies)
            .enumerate()
            .map(|(conn, (client, list))| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(list.len());
                    for (idx, body) in list.iter().enumerate() {
                        let a = Instant::now();
                        let resp = client.post("/v1/value", body);
                        let b = Instant::now();
                        let (status, body) = match resp {
                            Ok(r) => (r.status, r.body),
                            Err(e) => (0, e.to_string().into_bytes()),
                        };
                        out.push(Exchange {
                            conn,
                            idx,
                            start: rec.at(a),
                            end: rec.at(b),
                            status,
                            body,
                        });
                        if status == 0 {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    // The session's caches are at their fullest now. Free pages the
    // allocator kept from earlier sessions would make the resident set
    // grow with the run's length, so they go back to the OS first.
    sys::trim_allocator();
    let rss_mb = sys::rss_mb();

    let stats = clients[0]
        .get("/v1/stats")
        .ok()
        .and_then(|r| r.json().ok())
        .unwrap_or(Json::Null);
    drop(clients);
    stack.shutdown();
    Session {
        cycle,
        traced,
        setup_s,
        wall_s,
        cpu_s,
        rss_mb,
        exchanges,
        stats,
    }
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// Check one exchange against the reference; `Err` says what differs.
fn verify(x: &Exchange, reference: &Reference) -> Result<(Served, Json), String> {
    let text = String::from_utf8_lossy(&x.body);
    if !(200..300).contains(&x.status) {
        return Err(format!("status {}: {text}", x.status));
    }
    let doc = json::parse(&text).map_err(|e| format!("unparseable body: {e}"))?;
    let got: Vec<u64> = doc
        .get("values")
        .and_then(Json::as_array)
        .ok_or("body has no values")?
        .iter()
        .map(|v| v.as_f64().map_or(u64::MAX, f64::to_bits))
        .collect();
    let want = &reference.values[x.conn][x.idx];
    if &got != want {
        let first = got.iter().zip(want).position(|(g, w)| g != w).unwrap_or(0);
        return Err(format!(
            "values differ from the in-process reference at client {first}: \
             got {:?}, want {:?} ({} vs {} values)",
            got.get(first).map(|b| f64::from_bits(*b)),
            want.get(first).map(|b| f64::from_bits(*b)),
            got.len(),
            want.len()
        ));
    }
    let run = |k: &str| stat(&doc, &["run", k]);
    let served = Served {
        wall_ms: stat(&doc, &["wall_time_ms"]),
        park_ms: run("park_wait_max_ms"),
        batches: run("batches"),
        coalitions: run("coalitions"),
        coalesced: run("coalesced_batches"),
    };
    Ok((served, doc))
}

/// `(name, value, unit)` of one reported metric.
type Metric = (&'static str, f64, &'static str);

/// Totals over the traced sessions, from which the per-layer metrics
/// are derived.
#[derive(Default)]
struct Layers {
    requests: f64,
    overhead_ms: Vec<f64>,
    park_ms: Vec<f64>,
    parse_us: f64,
    encode_us: f64,
    batches: f64,
    coalitions: f64,
    coalesced: f64,
    flushes: f64,
    merged: f64,
    lookups: f64,
    evaluations: f64,
    traj_probes: f64,
    traj_hits: f64,
    traj_trainings: f64,
    traj_peak_bytes: f64,
    calls: f64,
    call_items: f64,
    call_ms: f64,
    block_ms: Vec<f64>,
    block_items: f64,
    round_trip_ms: f64,
    transport_ms: f64,
    park_total_ms: f64,
    estimator_ms: f64,
    /// Server wall time minus utility time: estimator work plus every
    /// coalescer wait.
    estimator_self_ms: f64,
    utility_ms: f64,
    /// Requests whose longest park overran the server-reported wall
    /// time by more than 0.05 ms.
    overruns: usize,
}

impl Layers {
    fn add_session(
        &mut self,
        s: &Session,
        served: &[(Served, Json)],
        spans: &[Span],
        bodies: &[Vec<String>],
    ) {
        let utility: Vec<&Span> = spans.iter().filter(|s| s.name == "utility").collect();
        for (x, (info, doc)) in s.exchanges.iter().zip(served) {
            let rt = x.ms();
            self.requests += 1.0;
            self.overhead_ms.push(rt - info.wall_ms);
            self.park_ms.push(info.park_ms);
            self.batches += info.batches;
            self.coalitions += info.coalitions;
            self.coalesced += info.coalesced;
            // The server parses this request body and encodes this
            // response document; time both here, off the timed path.
            let t = Instant::now();
            let parsed = std::hint::black_box(json::parse(&bodies[x.conn][x.idx]));
            self.parse_us += t.elapsed().as_secs_f64() * 1e6;
            drop(parsed);
            let t = Instant::now();
            let encoded = std::hint::black_box(doc.encode());
            self.encode_us += t.elapsed().as_secs_f64() * 1e6;
            drop(encoded);
            // Outside-in breakdown of the round trip: transport is what
            // the client saw beyond the server's wall time; utility is the
            // evaluation (flush) time that overlapped the request; park is
            // the part of the run's longest coalescer wait that no
            // evaluation covered; the estimator (draw, fold, snapshot)
            // is the rest of the server's wall time.
            let overlap_ms: f64 = utility
                .iter()
                .map(|u| u.end.min(x.end).saturating_sub(u.start.max(x.start)) as f64 * 1e-6)
                .sum();
            let utility_ms = overlap_ms.min(info.wall_ms);
            let park_ms = (info.park_ms - utility_ms).max(0.0);
            let estimator_ms = info.wall_ms - utility_ms - park_ms;
            // Overlap beyond the wall time is evaluation that ran while
            // this request was in transport (both compete for the same
            // cores); it stays in transport. A park longer than the wall
            // that contains it would be a measurement error.
            if info.park_ms > info.wall_ms + 0.05 {
                self.overruns += 1;
            }
            self.round_trip_ms += rt;
            self.transport_ms += (rt - info.wall_ms).max(0.0);
            self.park_total_ms += park_ms;
            self.utility_ms += utility_ms;
            self.estimator_ms += estimator_ms.max(0.0);
            self.estimator_self_ms += info.wall_ms - utility_ms;
        }
        self.flushes += stat(&s.stats, &["flushes"]);
        self.merged += stat(&s.stats, &["merged_batches"]);
        self.lookups += stat(&s.stats, &["lookups"]);
        self.evaluations += stat(&s.stats, &["evaluations"]);
        self.traj_probes += stat(&s.stats, &["traj", "probes"]);
        self.traj_hits += stat(&s.stats, &["traj", "hits"]);
        self.traj_trainings += stat(&s.stats, &["traj", "local_trainings"]);
        // A session's trajectory cache never evicts, so its final size
        // is its peak.
        self.traj_peak_bytes = self.traj_peak_bytes.max(stat(&s.stats, &["traj", "bytes"]));
        self.calls += utility.len() as f64;
        self.call_items += utility.iter().map(|u| u.items as f64).sum::<f64>();
        self.call_ms += utility.iter().map(|u| u.ms()).sum::<f64>();
        for b in spans.iter().filter(|s| s.name == "fl.block") {
            self.block_ms.push(b.ms());
            self.block_items += b.items as f64;
        }
    }

    fn metrics(&self, fl: bool, threads: f64, traced_rps: f64, untraced_rps: f64) -> Vec<Metric> {
        let per_req = |x: f64| x / self.requests.max(1.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let fl_only = |x: f64| if fl { x } else { 0.0 };
        let block_ms: f64 = self.block_ms.iter().sum();
        let rt = self.round_trip_ms;
        vec![
            ("serve.overhead_ms_p50", median(&self.overhead_ms), "ms"),
            (
                "serve.overhead_ms_p99",
                percentile(&self.overhead_ms, 99.0),
                "ms",
            ),
            ("json.parse_us_per_request", per_req(self.parse_us), "us"),
            ("json.encode_us_per_request", per_req(self.encode_us), "us"),
            ("service.park_wait_ms_p50", median(&self.park_ms), "ms"),
            (
                "service.flushes_per_request",
                per_req(self.flushes),
                "count",
            ),
            (
                "service.merged_per_flush",
                ratio(self.merged, self.flushes),
                "count",
            ),
            (
                "service.coalesced_share",
                ratio(self.coalesced, self.batches),
                "share",
            ),
            (
                "estimator.batches_per_request",
                per_req(self.batches),
                "count",
            ),
            (
                "estimator.coalitions_per_request",
                per_req(self.coalitions),
                "count",
            ),
            (
                "estimator.self_ms_per_request",
                per_req(self.estimator_self_ms),
                "ms",
            ),
            ("cache.lookups_per_request", per_req(self.lookups), "count"),
            (
                "cache.models_trained_per_request",
                per_req(self.evaluations),
                "count",
            ),
            (
                "cache.hit_share",
                1.0 - ratio(self.evaluations, self.lookups),
                "share",
            ),
            (
                "parallel.calls_per_request",
                fl_only(per_req(self.calls)),
                "count",
            ),
            (
                "parallel.coalitions_per_call",
                fl_only(ratio(self.call_items, self.calls)),
                "count",
            ),
            (
                "parallel.busy_ms_per_request",
                fl_only(per_req(self.call_ms)),
                "ms",
            ),
            (
                "parallel.utilization",
                fl_only(ratio(block_ms, threads * self.call_ms)),
                "share",
            ),
            ("fl.block_ms_p50", median(&self.block_ms), "ms"),
            (
                "fl.us_per_coalition",
                ratio(block_ms * 1e3, self.block_items),
                "us",
            ),
            (
                "trajcache.hit_share",
                ratio(self.traj_hits, self.traj_probes),
                "share",
            ),
            (
                "trajcache.local_trainings_per_request",
                per_req(self.traj_trainings),
                "count",
            ),
            ("trajcache.peak_mb", self.traj_peak_bytes / 1e6, "MB"),
            ("utility.busy_ms_per_request", per_req(self.call_ms), "ms"),
            ("trace.requests_per_s", traced_rps, "1/s"),
            ("trace.untraced_requests_per_s", untraced_rps, "1/s"),
            (
                "trace.overhead_share",
                1.0 - ratio(traced_rps, untraced_rps),
                "share",
            ),
            (
                "trace.transport_share",
                ratio(self.transport_ms, rt),
                "share",
            ),
            ("trace.park_share", ratio(self.park_total_ms, rt), "share"),
            (
                "trace.estimator_share",
                ratio(self.estimator_ms, rt),
                "share",
            ),
            ("trace.utility_share", ratio(self.utility_ms, rt), "share"),
            (
                "trace.accounted_share",
                ratio(
                    self.transport_ms + self.park_total_ms + self.estimator_ms + self.utility_ms,
                    rt,
                ),
                "share",
            ),
        ]
    }
}

fn requests_per_s(sessions: &[&Session]) -> f64 {
    let n: usize = sessions.iter().map(|s| s.exchanges.len()).sum();
    let secs: f64 = sessions.iter().map(|s| s.wall_s).sum();
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            eprintln!(
                "usage: loadbench --workload <fl-session|hash-anytime|wire-small> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let threads = rayon::current_num_threads();
    println!(
        "# loadbench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# git {}  nproc {}  connections {}  fan-out threads {}  FEDVAL_BACKEND {}  \
         trajectory cache {}  profile {}",
        sys::git_rev(),
        thread::available_parallelism().map_or(0, |n| n.get()),
        CONNECTIONS,
        if w.is_fl() {
            threads.to_string()
        } else {
            "none".to_string()
        },
        std::env::var("FEDVAL_BACKEND").unwrap_or_else(|_| "reference (unset)".to_string()),
        if w.is_fl() {
            "unbounded, fresh per session"
        } else {
            "none (hash game)"
        },
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    // Correctness reference: every variant's requests solo, in process,
    // on a fresh stack.
    let mut variants = Vec::with_capacity(w.variants());
    for k in 0..w.variants() {
        let seed = variant_seed(args.seed, k);
        let bodies = w.requests(args.seed, k);
        match w.build(seed, None, ToReference(&bodies)) {
            Ok(reference) => variants.push(Variant {
                seed,
                bodies,
                reference,
            }),
            Err(e) => {
                eprintln!("loadbench: reference pass failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let cycle_requests: usize = variants.iter().map(|v| v.requests()).sum();
    let cycle_evaluations: usize = variants.iter().map(|v| v.reference.evaluations).sum();
    println!(
        "# cycle: {} session variants, {cycle_requests} requests over {CONNECTIONS} \
         connections; the reference trains {cycle_evaluations} distinct coalitions",
        variants.len()
    );

    let rec = Recorder::new();
    // One warm-up session: first-touch page faults and lazy statics.
    drop(run_session(w, &variants[0], &rec, 0, false));

    let ticks0 = sys::cpu_ticks();

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut sessions: Vec<Session> = Vec::new();
    let mut layers = Layers::default();
    let mut all_spans: Vec<Span> = Vec::new();
    let mut first_failure: Option<String> = None;
    let (mut attempted, mut failed, mut eval_mismatch) = (0usize, 0usize, 0usize);
    let mut cycles = 0usize;
    // Whole cycles only, so every run weighs the variants equally. A
    // traced run follows each untraced session with a traced one of the
    // same variant, so the tracing overhead compares like with like.
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    loop {
        for (k, v) in variants.iter().enumerate() {
            for &traced in modes {
                let mut s = run_session(w, v, &rec, cycles, traced);
                let spans = rec.take();
                let at = format!("session {} (variant {k})", sessions.len());
                attempted += v.requests();
                failed += v.requests() - s.exchanges.len();
                let mut served = Vec::with_capacity(s.exchanges.len());
                for x in &s.exchanges {
                    match verify(x, &v.reference) {
                        Ok(ok) => served.push(ok),
                        Err(e) => {
                            failed += 1;
                            first_failure.get_or_insert_with(|| {
                                format!(
                                    "{at} connection {} request {} {}: {e}",
                                    x.conn, x.idx, v.bodies[x.conn][x.idx]
                                )
                            });
                        }
                    }
                }
                let evaluations = stat(&s.stats, &["evaluations"]) as usize;
                if evaluations != v.reference.evaluations {
                    eval_mismatch += 1;
                    first_failure.get_or_insert_with(|| {
                        format!(
                            "{at} trained {evaluations} distinct coalitions, the reference {}",
                            v.reference.evaluations
                        )
                    });
                }
                if traced && served.len() == s.exchanges.len() {
                    layers.add_session(&s, &served, &spans, &v.bodies);
                    let base = (sessions.len() * 1_000_000) as u64;
                    all_spans.extend(s.exchanges.iter().map(|x| Span {
                        id: 0,
                        name: "request",
                        start: x.start,
                        end: x.end,
                        parent: None,
                        request: Some(base + (x.conn * 1000 + x.idx) as u64),
                        items: 0,
                    }));
                    all_spans.extend(spans);
                }
                // Bodies are checked; keep only what the metrics need.
                for x in &mut s.exchanges {
                    x.body = Vec::new();
                }
                sessions.push(s);
            }
        }
        cycles += 1;

        if start.elapsed() >= budget {
            break;
        }
    }
    let steal = sys::steal_share(ticks0, sys::cpu_ticks());
    let correct = failed == 0 && eval_mismatch == 0;

    let untraced: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
    println!(
        "# {} cycles, {} sessions ({} traced), {} requests, steal share {:.4}",
        cycles,
        sessions.len(),
        traced.len(),
        attempted,
        steal
    );
    // Stationarity: the same cycles of sessions, early and late in the run.
    let split = cycles.div_ceil(2);
    let half = |early: bool| {
        let walls: Vec<f64> = untraced
            .iter()
            .filter(|s| (s.cycle < split) == early)
            .map(|s| s.wall_s * 1e3)
            .collect();
        if walls.is_empty() {
            "n/a".to_string()
        } else {
            format!("{:.3} ms", median(&walls))
        }
    };
    println!(
        "# stationarity: session wall median first half {}, second half {}; \
         {} of {} sessions trained exactly the reference's distinct coalitions",
        half(true),
        half(false),
        sessions.len() - eval_mismatch,
        sessions.len()
    );
    println!(
        "# correctness: {} of {} responses bit-identical to the reference{}",
        attempted - failed,
        attempted,
        first_failure
            .as_deref()
            .map_or(String::new(), |f| format!("; first failure: {f}"))
    );

    let metrics: Vec<Metric> = if args.trace {
        let m = layers.metrics(
            w.is_fl(),
            threads as f64,
            requests_per_s(&traced),
            requests_per_s(&untraced),
        );
        if layers.overruns > 0 {
            println!(
                "# accounting: {} requests whose longest park overran wall_time_ms",
                layers.overruns
            );
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
        let file = dir.join(format!("{}-{}.tsv", w.name(), args.seed));
        match fs::create_dir_all(&dir).and_then(|()| fs::write(&file, Recorder::tsv(&all_spans))) {
            Ok(()) => println!("# spans: {} written to {}", all_spans.len(), file.display()),
            Err(e) => println!("# spans: not written ({e})"),
        }
        m
    } else {
        // Each figure is taken per cycle (every cycle does the same work)
        // and the median over cycles reported, so a burst of noise from
        // other tenants of the machine that spans less than half the
        // cycles does not move it.
        let cycles: Vec<&[&Session]> = untraced.chunk_by(|a, b| a.cycle == b.cycle).collect();
        let cycle_median = |f: &dyn Fn(&[&Session]) -> f64| {
            let per_cycle: Vec<f64> = cycles.iter().map(|c| f(c)).collect();
            median(&per_cycle)
        };
        let latencies = |c: &[&Session]| -> Vec<f64> {
            c.iter()
                .flat_map(|s| s.exchanges.iter().map(Exchange::ms))
                .collect()
        };
        let rss: Vec<f64> = untraced.iter().map(|s| s.rss_mb).collect();
        let setups: Vec<f64> = untraced.iter().map(|s| s.setup_s).collect();
        vec![
            ("requests_per_s", cycle_median(&requests_per_s), "1/s"),
            (
                "latency_p50_ms",
                cycle_median(&|c| median(&latencies(c))),
                "ms",
            ),
            (
                "latency_p99_ms",
                cycle_median(&|c| percentile(&latencies(c), 99.0)),
                "ms",
            ),
            (
                "cpu_ms_per_request",
                cycle_median(&|c| {
                    let cpu: f64 = c.iter().map(|s| s.cpu_s).sum();
                    cpu * 1e3 / latencies(c).len().max(1) as f64
                }),
                "ms",
            ),
            ("rss_mb", median(&rss), "MB"),
            ("setup_s", median(&setups), "s"),
            (
                "success_share",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "share",
            ),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>14.6} {unit}");
    }
    print_result(correct, attempted, failed, &metrics);
    ExitCode::SUCCESS
}
