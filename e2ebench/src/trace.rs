//! In-memory span recorder for the traced run.
//!
//! A span records its name, start, end and the span that caused it; the
//! spans of one serve request also share a request id. Spans stay in memory
//! and are written out when the benchmark ends. Nothing is recorded until
//! [`enable`] is called, and the untraced run never calls it.
//!
//! Parent links: a span opened on a thread that already has an open span
//! gets that span as its parent. A span opened on a thread with no open
//! span (a pool worker running a sweep chunk, a server session) gets the
//! innermost running [`stage`] as its parent.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (> 0).
    pub id: u64,
    /// Id of the causing span, 0 for a top-level span.
    pub parent: u64,
    /// Span name, e.g. `grad.CALLOC` or `sweep.run`.
    pub name: Arc<str>,
    /// Serve request id shared by all spans of one request, else 0.
    pub request: u64,
    /// Rows processed by the call (batch size), else 0.
    pub rows: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STAGE: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts recording spans.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    span_with(&Arc::from(name), 0, 0, f)
}

/// Runs `f` inside a span with a request id and a row count. When tracing
/// is off this is a plain call.
pub fn span_with<R>(name: &Arc<str>, request: u64, rows: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    run(id, name, request, rows, f)
}

/// Runs `f` inside a top-level span that parents every span opened by
/// threads without an open span of their own while it runs.
pub fn stage<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let previous = STAGE.swap(id, Ordering::Relaxed);
    let out = run(id, &Arc::from(name), 0, 0, f);
    STAGE.store(previous, Ordering::Relaxed);
    out
}

fn run<R>(id: u64, name: &Arc<str>, request: u64, rows: u64, f: impl FnOnce() -> R) -> R {
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| STAGE.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    record(Span {
        id,
        // A stage is its own STAGE while it runs; its parent is the
        // enclosing stage, if any.
        parent: if parent == id { 0 } else { parent },
        name: Arc::clone(name),
        request,
        rows,
        start_ns,
        end_ns,
    });
    out
}

/// Records an externally timed span (for intervals that are not a single
/// call, such as a serve request from its due time to its reply).
pub fn record_interval(name: &Arc<str>, request: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let base = epoch();
    record(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: STAGE.load(Ordering::Relaxed),
        name: Arc::clone(name),
        request,
        rows: 0,
        start_ns: start.saturating_duration_since(base).as_nanos() as u64,
        end_ns: end.saturating_duration_since(base).as_nanos() as u64,
    });
}

fn record(span: Span) {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// The current trace time, ns since the trace epoch.
pub fn now() -> u64 {
    now_ns()
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Takes every span recorded so far, sorted by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Sum of the durations of spans whose name satisfies `pred`, in seconds.
pub fn total_secs(spans: &[Span], pred: impl Fn(&str) -> bool) -> f64 {
    spans.iter().filter(|s| pred(&s.name)).map(Span::secs).sum()
}

/// Number of spans whose name satisfies `pred`.
pub fn count(spans: &[Span], pred: impl Fn(&str) -> bool) -> usize {
    spans.iter().filter(|s| pred(&s.name)).count()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"rows\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.request, s.rows, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
