//! Outside-in tracing: spans recorded by the benchmark around the calls
//! it makes into each layer, never inside the program.
//!
//! The client records one `request` span per round trip. A [`Timed`]
//! wrapper — a plain [`Utility`] around a public constructor — records
//! `utility` spans for every batch the coalescer forwards past the
//! coalition cache, and on the FL stack a second one records `fl.block`
//! spans for each sub-batch the `ParallelUtility` fan-out hands to
//! `FlUtility`. Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fedval_core::coalition::Coalition;
use fedval_core::utility::Utility;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// The enclosing span (an `fl.block`'s `utility` call), if any.
    pub parent: Option<u64>,
    /// The client request the span belongs to; `None` for work the
    /// coalescer merged across requests.
    pub request: Option<u64>,
    /// Coalitions in the batch (0 for request spans).
    pub items: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-6
    }
}

/// Collects spans from every thread of one run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    /// Id of the `utility` call in progress, read by the `fl.block`
    /// spans it fans out to (the fan-out runs on fresh threads, so a
    /// thread-local would not reach them).
    current_call: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_call: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `span`, giving it a fresh id unless it reserved one.
    pub fn push(&self, mut span: Span) {
        if span.id == 0 {
            span.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        }
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }

    /// The spans as tab-separated lines: id, name, start, end, parent,
    /// request, items (times in ns since the epoch; `-` for none).
    pub fn tsv(spans: &[Span]) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\titems\n");
        let opt = |x: Option<u64>| x.map_or_else(|| "-".to_string(), |v| v.to_string());
        for s in spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.request),
                s.items
            );
        }
        out
    }
}

/// Which boundary a [`Timed`] wrapper sits on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Directly under the coalition cache: everything below it.
    Utility,
    /// Under the parallel fan-out, around one FL lane-block sub-batch.
    FlBlock,
}

/// A [`Utility`] that records a span around every batch it forwards.
pub struct Timed<U> {
    inner: U,
    boundary: Boundary,
    rec: Arc<Recorder>,
}

impl<U> Timed<U> {
    pub fn new(inner: U, boundary: Boundary, rec: Arc<Recorder>) -> Timed<U> {
        Timed {
            inner,
            boundary,
            rec,
        }
    }
}

impl<U: Utility> Utility for Timed<U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.eval_batch(&[s])[0]
    }

    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let (name, parent, id) = match self.boundary {
            Boundary::Utility => {
                // Reserve the id up front so blocks can name their parent.
                let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
                self.rec.current_call.store(id, Ordering::Relaxed);
                ("utility", None, Some(id))
            }
            Boundary::FlBlock => {
                let call = self.rec.current_call.load(Ordering::Relaxed);
                ("fl.block", (call != 0).then_some(call), None)
            }
        };
        let start = Instant::now();
        let out = self.inner.eval_batch(coalitions);
        let end = Instant::now();
        self.rec.push(Span {
            id: id.unwrap_or(0),
            name,
            start: self.rec.at(start),
            end: self.rec.at(end),
            parent,
            request: None,
            items: coalitions.len(),
        });
        out
    }
}
