//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out once when a traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call: `parent` is the span that caused it; spans of one
/// request (a task, a wire request, a batch) share `req`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub pass: usize,
    pub req: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a new span; `f` receives the span id so that
    /// nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        pass: usize,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.span_ms(name, parent, pass, req, f).0
    }

    /// [`Tracer::span`] that also returns the span's duration in ms.
    pub fn span_ms<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        pass: usize,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f(id));
        let end = self.origin.elapsed();
        let ms = (end - start).as_secs_f64() * 1e3;
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the lock")
            .push(Span {
                id,
                parent,
                name,
                pass,
                req,
                start,
                end,
            });
        (out, ms)
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder panicked while holding the lock")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-pass sums of the self time (duration minus the part covered by
/// child spans) of every span named `name`, in milliseconds.
pub fn self_ms_per_pass(spans: &[Span], name: &str, passes: usize) -> Vec<f64> {
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ms.entry(p).or_default() += s.ms();
        }
    }
    let mut out = vec![0.0; passes];
    for s in spans.iter().filter(|s| s.name == name && s.pass < passes) {
        out[s.pass] += s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

/// Per-pass sums of the full duration of every span named `name`.
pub fn total_ms_per_pass(spans: &[Span], name: &str, passes: usize) -> Vec<f64> {
    let mut out = vec![0.0; passes];
    for s in spans.iter().filter(|s| s.name == name && s.pass < passes) {
        out[s.pass] += s.ms();
    }
    out
}

/// Writes the spans as one JSON array (microsecond offsets from the
/// start of the run).
pub fn write(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"pass\": {}, \"req\": {}, \"start_us\": {}, \"end_us\": {}}}",
            if i == 0 { "" } else { ",\n" },
            s.id,
            s.name,
            s.pass,
            s.req,
            s.start.as_micros(),
            s.end.as_micros()
        );
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
