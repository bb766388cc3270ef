//! Deterministic parallel compute runtime.
//!
//! Every parallel kernel in the workspace is built on the primitives in
//! this module, and all of them share one contract:
//!
//! > **Chunks are contiguous index ranges and results are merged in index
//! > order, so the output of a parallel computation is bit-identical to the
//! > serial computation regardless of the thread count.**
//!
//! Concretely, work of length `n` is split into contiguous chunks — up to
//! [`CHUNKS_PER_WORKER`] of them per budgeted worker, each carrying at
//! least the caller's minimum chunk size — which are pushed, in ascending
//! index order, onto a fan-out-local FIFO queue. Up to [`threads`] workers
//! (the calling thread plus jobs on the persistent pool beneath the
//! vendored `rayon`) then *reclaim* chunks from that queue: each worker
//! pops the lowest-indexed remaining chunk, evaluates it, and moves on, so
//! a straggling chunk never idles the rest of the pool — the fast workers
//! simply drain what is left. The per-chunk results are written back or
//! reassembled **in ascending chunk order**. Because each index's value
//! never depends on which chunk computed it or which worker ran the chunk,
//! changing `CALLOC_THREADS` can only change wall time, never a single bit
//! of output. `tests/determinism.rs` and
//! `crates/tensor/tests/proptest_parallel.rs` enforce this.
//!
//! # Thread-count knob
//!
//! The worker budget is resolved in this order:
//!
//! 1. a process-local override installed with [`set_threads`] (used by
//!    benches and tests — prefer the RAII [`ThreadGuard`], which restores
//!    the previous override even when an assertion unwinds),
//! 2. the `CALLOC_THREADS` environment variable (read once, on first use;
//!    `0` selects the machine default like `set_threads(0)`, and anything
//!    non-numeric panics rather than being silently ignored),
//! 3. [`std::thread::available_parallelism`].
//!
//! `CALLOC_THREADS=1` (or `set_threads(1)`) selects the serial fallback:
//! no pool work is ever queued and every primitive degenerates to a plain
//! loop on the calling thread. Budgets above the physical core count are
//! honored, not clamped — an oversubscribed budget simply queues more
//! chunks than can run at once, which CI exercises deliberately.
//!
//! # Granularity
//!
//! Queuing a chunk costs a mutex push and a worker wake-up, so kernels
//! only fan out when every chunk carries at least [`min_work`] units of
//! work (roughly flops); small matrices always take the serial path. Tests
//! can lower the floor with [`set_min_work`] (or the RAII [`MinWorkGuard`])
//! to force the parallel code path on tiny inputs.
//!
//! # Nested fan-outs
//!
//! Fan-outs nest: a job of a [`par_run`] / [`par_join`] fan-out (a
//! scenario-grid cell, a collection session, a sweep chunk) that calls a
//! parallel kernel opens its own fan-out with the **full configured
//! budget** — [`threads`] reports the same value on every thread. The
//! persistent pool makes that safe: nested fan-outs queue chunks on the
//! same pool instead of spawning threads-of-threads, idle workers reclaim
//! them (a worker that finishes its own chunks helps drain a straggler's
//! nested chunks), and a waiting fan-out owner drains the pool queue
//! instead of blocking. Actual OS-thread concurrency is bounded by the
//! pool, not by the product of nested budgets. Like everything else here,
//! nesting only shifts wall time, never bits.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default minimum amount of work (≈ flops) a chunk must carry before a
/// kernel fans out to worker threads.
pub const DEFAULT_MIN_WORK: usize = 1 << 20;

/// Target number of chunks per budgeted worker when a kernel fans out.
///
/// Splitting finer than one chunk per worker is what makes work
/// reclaiming effective: when per-chunk cost is uneven (a GPC-heavy sweep
/// chunk, a dense scenario cell), workers that finish early pop the
/// remaining chunks instead of idling behind the straggler. The caller's
/// minimum chunk size still bounds the split from below, so tiny inputs
/// never over-fragment.
pub const CHUNKS_PER_WORKER: usize = 4;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static MIN_WORK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Parses a `CALLOC_THREADS` value: a positive integer is the budget, `0`
/// means "machine default" (matching [`set_threads`]`(0)` semantics).
///
/// # Panics
///
/// Panics on anything non-numeric — a typo'd budget silently falling back
/// to machine parallelism would invalidate a determinism or perf run.
fn parse_env_threads(raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(0) => rayon::current_num_threads(),
        Ok(n) => n,
        Err(_) => panic!(
            "CALLOC_THREADS must be a non-negative integer \
             (0 = machine parallelism), got {raw:?}"
        ),
    }
}

fn env_threads() -> usize {
    match std::env::var("CALLOC_THREADS") {
        Ok(v) => parse_env_threads(&v),
        Err(std::env::VarError::NotPresent) => rayon::current_num_threads(),
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("CALLOC_THREADS is not valid unicode: {v:?}")
        }
    }
}

/// The worker-thread budget parallel kernels may use (always ≥ 1).
///
/// See the [module docs](self) for the resolution order of the
/// `CALLOC_THREADS` knob. A value of `1` means "serial": primitives run
/// entirely on the calling thread.
///
/// The budget is the same on every thread — a kernel nested inside a
/// fan-out job sees the full configured budget and draws on the shared
/// persistent pool, rather than collapsing to a serial fallback the way
/// the old spawn-per-fork runtime forced it to.
pub fn threads() -> usize {
    configured_threads()
}

fn configured_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => *ENV_THREADS.get_or_init(env_threads),
        n => n,
    }
}

/// Overrides [`threads`] process-wide; `0` restores the environment-driven
/// default. Intended for benches and tests that need to compare thread
/// counts within one process — tests should prefer the RAII
/// [`ThreadGuard`], which cannot leak the override when an assertion
/// fails between the set and the restore.
///
/// Because of the index-order-merge contract, flipping this concurrently
/// with running kernels can never change any result — only how fast it is
/// produced. The persistent pool survives any number of changes: budgets
/// only gate how many workers a fan-out *dispatches*, never pool lifetime.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// RAII guard for the [`set_threads`] override: installs `n` on
/// construction and restores the *previous* override on drop — also on
/// unwind, so a failing assertion between a `set_threads(n)` /
/// `set_threads(0)` pair can no longer leak a stale budget into every
/// subsequent test in the process.
///
/// ```
/// use calloc_tensor::par;
///
/// {
///     let _threads = par::ThreadGuard::new(3);
///     assert_eq!(par::threads(), 3);
///     par::set_threads(8); // interim flips are fine…
/// }
/// // …the guard still restores the pre-guard default on drop.
/// ```
#[must_use = "the override is restored when the guard drops"]
pub struct ThreadGuard {
    prev: usize,
}

impl ThreadGuard {
    /// Installs `n` as the [`threads`] override (0 = environment default)
    /// and remembers the previous override for restoration on drop.
    pub fn new(n: usize) -> Self {
        Self {
            prev: THREAD_OVERRIDE.swap(n, Ordering::Relaxed),
        }
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

/// Minimum work (≈ flops) per chunk before kernels fan out.
pub fn min_work() -> usize {
    match MIN_WORK_OVERRIDE.load(Ordering::Relaxed) {
        0 => DEFAULT_MIN_WORK,
        n => n,
    }
}

/// Overrides [`min_work`] process-wide; `0` restores
/// [`DEFAULT_MIN_WORK`]. Tests lower this to `1` to exercise the parallel
/// code path on tiny inputs — prefer the RAII [`MinWorkGuard`] there.
pub fn set_min_work(n: usize) {
    MIN_WORK_OVERRIDE.store(n, Ordering::Relaxed);
}

/// RAII guard for the [`set_min_work`] override, mirroring
/// [`ThreadGuard`]: installs `n` on construction, restores the previous
/// work floor on drop (also on unwind).
#[must_use = "the override is restored when the guard drops"]
pub struct MinWorkGuard {
    prev: usize,
}

impl MinWorkGuard {
    /// Installs `n` as the [`min_work`] override (0 = default floor) and
    /// remembers the previous override for restoration on drop.
    pub fn new(n: usize) -> Self {
        Self {
            prev: MIN_WORK_OVERRIDE.swap(n, Ordering::Relaxed),
        }
    }
}

impl Drop for MinWorkGuard {
    fn drop(&mut self) {
        MIN_WORK_OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

/// Minimum rows per chunk for a row-parallel kernel whose per-row cost is
/// `work_per_row` (≈ flops); always ≥ 1.
pub fn min_rows_for(work_per_row: usize) -> usize {
    min_work().div_ceil(work_per_row.max(1)).max(1)
}

/// Runs the two closures, in parallel when the thread budget allows, and
/// returns `(a(), b())`. With [`threads`] `== 1` both run sequentially on
/// the calling thread, in order.
pub fn par_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if threads() <= 1 {
        let ra = a();
        let rb = b();
        (ra, rb)
    } else {
        rayon::join(a, b)
    }
}

/// Splits `len` items into contiguous ranges of at least `min_chunk` items
/// each — up to [`CHUNKS_PER_WORKER`] ranges per budgeted worker, so
/// reclaiming has slack to rebalance uneven chunks (a single range when
/// `len` is too small) — balanced to within one item.
fn split_ranges(len: usize, min_chunk: usize) -> Vec<Range<usize>> {
    let max_chunks = (len / min_chunk.max(1)).max(1);
    let budget = threads();
    let target = if budget <= 1 {
        1
    } else {
        budget.saturating_mul(CHUNKS_PER_WORKER)
    };
    let n_chunks = target.min(max_chunks).max(1);
    let base = len / n_chunks;
    let extra = len % n_chunks;
    let mut ranges = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// An index-tagged work queue shared by one fan-out's workers. Items are
/// queued in ascending index order and popped front-first, so dispatch
/// order is deterministic; completion order is not, which is why every
/// result carries its index for the ascending merge.
type ReclaimQueue<I> = Mutex<VecDeque<(usize, I)>>;

fn pop_item<I>(queue: &ReclaimQueue<I>) -> Option<(usize, I)> {
    queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front()
}

/// One fan-out worker: pops the lowest-indexed remaining item, evaluates
/// it, appends `(index, result)` to its private output, repeats until the
/// queue is drained. Workers that finish early keep popping — this is the
/// work-reclaiming loop that keeps a straggling item from idling the rest
/// of the budget.
fn drain_queue<I, T>(
    queue: &ReclaimQueue<I>,
    out: &mut Vec<(usize, T)>,
    f: &(impl Fn(I) -> T + Sync),
) {
    while let Some((index, item)) = pop_item(queue) {
        out.push((index, f(item)));
    }
}

/// Evaluates `f` over every item, fanned out over up to [`threads`]
/// workers that reclaim items from a shared FIFO queue, and returns the
/// results **in item order**. Serial (budget 1, or ≤ 1 item) runs the
/// items front to back on the calling thread.
fn run_reclaimed<I: Send, T: Send>(items: Vec<I>, f: &(impl Fn(I) -> T + Sync)) -> Vec<T> {
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue: ReclaimQueue<I> = Mutex::new(items.into_iter().enumerate().collect());
    let queue = &queue;
    let mut outs: Vec<Vec<(usize, T)>> = (0..workers)
        .map(|_| Vec::with_capacity(n.div_ceil(workers)))
        .collect();
    {
        let (own, spawned) = outs.split_first_mut().expect("workers >= 2");
        rayon::scope(|s| {
            for out in spawned.iter_mut() {
                s.spawn(move |_| drain_queue(queue, out, f));
            }
            drain_queue(queue, own, f);
        });
    }
    let mut indexed: Vec<(usize, T)> = outs.into_iter().flatten().collect();
    debug_assert_eq!(indexed.len(), n);
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// Evaluates `f` over contiguous sub-ranges of `0..len` — each at least
/// `min_chunk` long, split finer than the worker budget (see
/// [`CHUNKS_PER_WORKER`]) so idle workers can reclaim queued chunks — and
/// returns the per-chunk results **in index order**.
///
/// With a single chunk (serial fallback, small input, or `threads() == 1`)
/// this is exactly `vec![f(0..len)]` on the calling thread.
///
/// # Example
///
/// ```
/// use calloc_tensor::par;
///
/// let partial_sums = par::par_chunks(1000, 1, |r| r.sum::<usize>());
/// let total: usize = partial_sums.iter().sum();
/// assert_eq!(total, 499_500);
/// ```
pub fn par_chunks<T, F>(len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    run_reclaimed(split_ranges(len, min_chunk), &f)
}

/// Splits a row-major buffer of `row_len`-wide rows into contiguous row
/// chunks of at least `min_rows` rows each (split finer than the worker
/// budget so chunks can be reclaimed, see [`CHUNKS_PER_WORKER`]) and runs
/// `f(first_row, chunk)` on every chunk, in parallel when the budget
/// allows.
///
/// The chunks are disjoint `&mut` slices of `data`, so each worker owns
/// its output rows exclusively; because chunk boundaries never change what
/// any individual row computes, the filled buffer is bit-identical for
/// every thread count.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `row_len` — including the
/// `row_len == 0` case for non-empty `data` (only an empty buffer has
/// zero-width rows).
pub fn par_row_chunks_mut<F>(data: &mut [f64], row_len: usize, min_rows: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if data.is_empty() {
        f(0, data);
        return;
    }
    assert!(
        row_len != 0 && data.len() % row_len == 0,
        "buffer length {} is not a multiple of row length {row_len}",
        data.len()
    );
    let rows = data.len() / row_len;
    let ranges = split_ranges(rows, min_rows);
    if ranges.len() <= 1 {
        f(0, data);
        return;
    }
    let mut chunks = Vec::with_capacity(ranges.len());
    let mut rest = data;
    let mut row = 0;
    for range in &ranges {
        let (head, tail) = rest.split_at_mut(range.len() * row_len);
        chunks.push((row, head));
        row += range.len();
        rest = tail;
    }
    run_reclaimed(chunks, &|(first_row, chunk): (usize, &mut [f64])| {
        f(first_row, chunk)
    });
}

/// Runs a list of heterogeneous jobs, in parallel when the thread budget
/// allows, and returns their results **in job order**.
///
/// Jobs go onto a shared FIFO queue in job order and up to [`threads`]
/// workers reclaim them one at a time, so an expensive job never strands
/// the jobs queued behind it — whichever workers finish early drain the
/// remainder — and the results are reassembled by original index. With
/// `threads() == 1` the jobs simply run front to back on the calling
/// thread.
///
/// This is the primitive behind parallel suite training
/// (`calloc_eval::Suite::train`) and session fan-out
/// (`calloc_sim::Scenario::generate`): each job consumes only its own
/// forked seed, so jobs are independent and the result list comes back in
/// the caller's order regardless of the thread count. Kernels *inside* a
/// job see the full thread budget and share the same pool (see the
/// [module docs](self) on nesting).
pub fn par_run<R: Send>(jobs: Vec<Box<dyn FnOnce() -> R + Send + '_>>) -> Vec<R> {
    run_reclaimed(jobs, &|job| job())
}

/// A panic captured at a panic-isolation boundary ([`caught`] /
/// [`par_run_caught`]): the payload rendered as a message string, so
/// callers can record or report the failure without carrying the original
/// `Box<dyn Any>` across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaughtPanic {
    message: String,
}

impl CaughtPanic {
    /// Renders a raw `catch_unwind` payload. `panic!` with a format string
    /// yields a `String` payload and a literal yields `&'static str`; any
    /// other payload type is reported as opaque rather than dropped.
    fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else {
            "<non-string panic payload>".to_string()
        };
        CaughtPanic { message }
    }

    /// The rendered panic message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for CaughtPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.message)
    }
}

/// Runs `f`, converting a panic into an `Err(CaughtPanic)` instead of
/// unwinding into the caller — the single-job form of the panic-isolation
/// boundary used by [`par_run_caught`]. Callers that retry a failed unit
/// of work (the sweep engine's per-cell retry budget) wrap each attempt in
/// this.
///
/// The closure is treated as unwind-safe: the intended use is a *pure*
/// unit of work (a sweep cell, a generation cell) whose partial effects
/// are discarded wholesale on failure, so no torn state can leak.
pub fn caught<T>(f: impl FnOnce() -> T) -> Result<T, CaughtPanic> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(CaughtPanic::from_payload)
}

/// A deterministic fault-injection schedule: "panic on ids {i…}, on
/// their first *k* attempts". The sweep engine keys it by plan index and
/// counts retries; the serving engine keys it by admission sequence
/// number. It is threaded in explicitly, never drawn from ambient
/// randomness, so the same plan injects the same panics on every run, at
/// every thread count, and the quarantine and retry paths behind
/// [`caught`] stay testable under the determinism contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// id → number of leading attempts that panic.
    panics: BTreeMap<usize, usize>,
}

impl FaultPlan {
    /// An empty plan: no injected faults (the production default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
    }

    /// Builder: `id` panics on its first `failing_attempts` attempts
    /// (attempt numbers `0..failing_attempts`) and succeeds from then on.
    /// `usize::MAX` poisons it for good.
    pub fn panicking(mut self, id: usize, failing_attempts: usize) -> Self {
        if failing_attempts > 0 {
            self.panics.insert(id, failing_attempts);
        }
        self
    }

    /// Bulk constructor: every listed id panics on its first
    /// `failing_attempts` attempts.
    pub fn panic_on(ids: &[usize], failing_attempts: usize) -> Self {
        ids.iter().fold(FaultPlan::none(), |plan, &id| {
            plan.panicking(id, failing_attempts)
        })
    }

    /// Whether the schedule calls for a panic at this id and attempt.
    pub fn should_panic(&self, id: usize, attempt: usize) -> bool {
        self.panics
            .get(&id)
            .is_some_and(|&failing| attempt < failing)
    }

    /// Panics with a recognizable `injected fault` payload (see
    /// [`silence_injected_panics`]) if the schedule calls for it.
    pub fn maybe_panic(&self, id: usize, attempt: usize) {
        if self.should_panic(id, attempt) {
            panic!("injected fault: id {id}, attempt {attempt}");
        }
    }
}

/// The panic-isolating variant of [`par_run`]: runs the jobs with the same
/// FIFO-reclaiming fan-out and job-order merge, but a panicking job yields
/// `Err(CaughtPanic)` in its slot instead of poisoning the whole fan-out
/// (plain [`par_run`] re-throws the first job panic at the scope boundary,
/// discarding every other job's result).
///
/// The order contract is unchanged: slot `i` always holds job `i`'s
/// outcome, so which worker observed the panic — or how many jobs ran
/// before it — can never change a bit of the merged output.
pub fn par_run_caught<R: Send>(
    jobs: Vec<Box<dyn FnOnce() -> R + Send + '_>>,
) -> Vec<Result<R, CaughtPanic>> {
    run_reclaimed(jobs, &|job| caught(job))
}

/// Installs (once, process-wide) a panic-hook filter that suppresses the
/// default "thread panicked" stderr report for panics whose payload
/// contains `"injected fault"` — the recognizable prefix of
/// fault-injection panics (see [`FaultPlan`]). All other
/// panics keep the previous hook's behavior. Test harnesses exercising
/// quarantine/retry paths call this so thousands of *expected* injected
/// panics don't flood the test log; it never changes what
/// [`caught`]/[`par_run_caught`] observe or return.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied());
            if message.is_some_and(|m| m.contains("injected fault")) {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-global knobs: chunk
    /// *structure* (unlike kernel output) does depend on the thread count.
    static KNOB_LOCK: Mutex<()> = Mutex::new(());

    fn lock_knobs() -> std::sync::MutexGuard<'static, ()> {
        KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn split_ranges_covers_exactly_once() {
        let _guard = lock_knobs();
        for threads in [1usize, 3, 8] {
            let _t = ThreadGuard::new(threads);
            for len in [0usize, 1, 7, 100, 1001] {
                for min_chunk in [1usize, 3, 64] {
                    let ranges = split_ranges(len, min_chunk);
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "ranges must be contiguous");
                        next = r.end;
                    }
                    assert_eq!(next, len, "ranges must cover 0..{len}");
                }
            }
        }
    }

    #[test]
    fn split_ranges_oversplits_for_reclaiming() {
        let _guard = lock_knobs();
        let _t = ThreadGuard::new(4);
        let ranges = split_ranges(1000, 1);
        assert_eq!(
            ranges.len(),
            4 * CHUNKS_PER_WORKER,
            "a large fan-out must split finer than the budget"
        );
        // …but never below the minimum chunk size.
        for r in split_ranges(1000, 300) {
            assert!(r.len() >= 300);
        }
    }

    #[test]
    fn parse_env_threads_zero_means_machine_default() {
        assert_eq!(parse_env_threads("0"), rayon::current_num_threads());
        assert_eq!(parse_env_threads(" 0 "), rayon::current_num_threads());
    }

    #[test]
    fn parse_env_threads_accepts_positive_budgets() {
        assert_eq!(parse_env_threads("1"), 1);
        assert_eq!(parse_env_threads(" 12 "), 12);
    }

    #[test]
    #[should_panic(expected = "CALLOC_THREADS must be a non-negative integer")]
    fn parse_env_threads_panics_on_garbage() {
        parse_env_threads("fast");
    }

    #[test]
    #[should_panic(expected = "CALLOC_THREADS must be a non-negative integer")]
    fn parse_env_threads_panics_on_negative() {
        parse_env_threads("-2");
    }

    #[test]
    fn thread_guard_restores_previous_override_on_drop() {
        let _guard = lock_knobs();
        set_threads(0);
        {
            let _t = ThreadGuard::new(3);
            assert_eq!(threads(), 3);
            // Interim manual flips are restored over.
            set_threads(7);
            assert_eq!(threads(), 7);
        }
        assert_eq!(
            THREAD_OVERRIDE.load(Ordering::Relaxed),
            0,
            "guard must restore the pre-guard override"
        );
    }

    #[test]
    fn thread_guard_restores_on_unwind() {
        let _guard = lock_knobs();
        set_threads(0);
        let result = std::panic::catch_unwind(|| {
            let _t = ThreadGuard::new(5);
            panic!("assertion failed mid-test");
        });
        assert!(result.is_err());
        assert_eq!(
            THREAD_OVERRIDE.load(Ordering::Relaxed),
            0,
            "a panicking test must not leak its thread override"
        );
    }

    #[test]
    fn min_work_guard_restores_previous_override_on_drop() {
        let _guard = lock_knobs();
        set_min_work(0);
        {
            let _w = MinWorkGuard::new(1);
            assert_eq!(min_work(), 1);
        }
        assert_eq!(min_work(), DEFAULT_MIN_WORK);
    }

    #[test]
    fn par_chunks_results_are_in_index_order() {
        let _guard = lock_knobs();
        let _t = ThreadGuard::new(4);
        let _w = MinWorkGuard::new(1);
        let chunks = par_chunks(100, 1, |r| r.start);
        let mut sorted = chunks.clone();
        sorted.sort_unstable();
        assert_eq!(chunks, sorted);
    }

    #[test]
    fn par_chunks_serial_is_single_chunk() {
        let _guard = lock_knobs();
        let _t = ThreadGuard::new(1);
        let chunks = par_chunks(100, 1, |r| (r.start, r.end));
        assert_eq!(chunks, vec![(0, 100)]);
    }

    #[test]
    fn par_row_chunks_mut_visits_every_row_once() {
        let _guard = lock_knobs();
        for n_threads in [1usize, 2, 5] {
            let _t = ThreadGuard::new(n_threads);
            let rows = 17;
            let cols = 3;
            let mut data = vec![0.0; rows * cols];
            par_row_chunks_mut(&mut data, cols, 1, |first_row, chunk| {
                for (i, row) in chunk.chunks_exact_mut(cols).enumerate() {
                    for v in row.iter_mut() {
                        *v += (first_row + i) as f64;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(data[r * cols + c], r as f64, "threads={n_threads}");
                }
            }
        }
    }

    #[test]
    fn par_row_chunks_mut_handles_empty() {
        let mut data: Vec<f64> = Vec::new();
        par_row_chunks_mut(&mut data, 4, 1, |_, chunk| assert!(chunk.is_empty()));
        // Zero-width rows are fine for an empty buffer only.
        par_row_chunks_mut(&mut data, 0, 1, |_, chunk| assert!(chunk.is_empty()));
    }

    #[test]
    #[should_panic(expected = "not a multiple of row length 0")]
    fn par_row_chunks_mut_rejects_zero_row_len_for_nonempty_data() {
        let mut data = vec![1.0, 2.0, 3.0];
        par_row_chunks_mut(&mut data, 0, 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "not a multiple of row length 4")]
    fn par_row_chunks_mut_rejects_ragged_buffer() {
        let mut data = vec![0.0; 10];
        par_row_chunks_mut(&mut data, 4, 1, |_, _| {});
    }

    #[test]
    fn par_join_returns_in_operand_order() {
        let _guard = lock_knobs();
        for n_threads in [1usize, 3] {
            let _t = ThreadGuard::new(n_threads);
            let (a, b) = par_join(|| 1, || 2);
            assert_eq!((a, b), (1, 2));
        }
    }

    #[test]
    fn par_run_preserves_job_order() {
        let _guard = lock_knobs();
        for n_threads in [1usize, 2, 4, 9] {
            let _t = ThreadGuard::new(n_threads);
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..9usize)
                .map(|i| Box::new(move || i * 10) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let out = par_run(jobs);
            assert_eq!(out, (0..9usize).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_run_actually_distributes_jobs_across_threads() {
        // Regression guard: the fan-out must reach pool workers, not just
        // run everything on the caller. Each job sleeps briefly so the
        // calling thread cannot race through the whole queue before a
        // worker wakes.
        let _guard = lock_knobs();
        let _t = ThreadGuard::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> std::thread::ThreadId + Send>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                    std::thread::current().id()
                }) as Box<dyn FnOnce() -> std::thread::ThreadId + Send>
            })
            .collect();
        let ids = par_run(jobs);
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(
            distinct.len() > 1,
            "4 sleeping jobs at 4 threads must span more than one worker thread"
        );
    }

    #[test]
    fn straggler_does_not_idle_the_pool() {
        // One long job up front plus many short jobs: with reclaiming the
        // short jobs drain on other workers while the straggler runs, so
        // at least one short job must land off the straggler's thread and
        // all results still come back in order.
        let _guard = lock_knobs();
        let _t = ThreadGuard::new(3);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..12usize)
            .map(|i| {
                Box::new(move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(60));
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = par_run(jobs);
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn nested_fan_outs_draw_real_budget() {
        // The old spawn-per-fork runtime reported a budget of 1 inside any
        // fan-out job, serializing every nested kernel. The pool removes
        // that collapse: the budget is the same on every thread.
        let _guard = lock_knobs();
        let _t = ThreadGuard::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4)
            .map(|_| Box::new(threads) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let budgets = par_run(jobs);
        assert!(
            budgets.iter().all(|&t| t == 4),
            "nested budget must stay at the configured 4, got {budgets:?}"
        );
        let (a, b) = par_join(threads, threads);
        assert_eq!((a, b), (4, 4), "par_join operands must see the full budget");
        assert_eq!(threads(), 4);
    }

    #[test]
    fn nested_par_chunks_inside_par_run_merges_correctly() {
        let _guard = lock_knobs();
        let _t = ThreadGuard::new(3);
        let _w = MinWorkGuard::new(1);
        type NestedJob = Box<dyn FnOnce() -> (usize, Vec<usize>) + Send>;
        let jobs: Vec<NestedJob> = (0..5usize)
            .map(|j| {
                Box::new(move || {
                    let inner = par_chunks(40, 1, |r| r.map(|i| i + 100 * j).sum::<usize>());
                    (threads(), inner)
                }) as NestedJob
            })
            .collect();
        for (j, (budget, partials)) in par_run(jobs).into_iter().enumerate() {
            assert_eq!(budget, 3, "inner fan-out of job {j} must see the budget");
            let total: usize = partials.iter().sum();
            assert_eq!(total, (0..40).map(|i| i + 100 * j).sum::<usize>());
        }
    }

    #[test]
    fn pool_survives_set_threads_changes_mid_process() {
        // Shutdown/re-entry: growing, shrinking and restoring the budget
        // must all dispatch correctly on the same persistent pool.
        let _guard = lock_knobs();
        let _w = MinWorkGuard::new(1);
        let expected: usize = (0..500).sum();
        for budget in [2usize, 8, 1, 3, 8, 2] {
            let _t = ThreadGuard::new(budget);
            let total: usize = par_chunks(500, 1, |r| r.sum::<usize>()).iter().sum();
            assert_eq!(total, expected, "budget {budget} dispatched incorrectly");
        }
    }

    #[test]
    fn caught_returns_ok_for_clean_closures() {
        assert_eq!(caught(|| 41 + 1), Ok(42));
    }

    #[test]
    fn caught_captures_string_and_str_payloads() {
        let err = caught(|| -> () { panic!("formatted {}", 7) }).unwrap_err();
        assert_eq!(err.message(), "formatted 7");
        assert_eq!(format!("{err}"), "panicked: formatted 7");
        let err = caught(|| -> () { panic!("literal payload") }).unwrap_err();
        assert_eq!(err.message(), "literal payload");
        let err = caught(|| -> () { std::panic::panic_any(17usize) }).unwrap_err();
        assert_eq!(err.message(), "<non-string panic payload>");
    }

    #[test]
    fn par_run_caught_isolates_panics_per_job_slot() {
        let _guard = lock_knobs();
        for n_threads in [1usize, 3] {
            let _t = ThreadGuard::new(n_threads);
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
                .map(|i| {
                    Box::new(move || {
                        if i % 3 == 1 {
                            panic!("job {i} poisoned");
                        }
                        i * 10
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let out = par_run_caught(jobs);
            assert_eq!(out.len(), 8);
            for (i, slot) in out.iter().enumerate() {
                if i % 3 == 1 {
                    let err = slot.as_ref().unwrap_err();
                    assert_eq!(
                        err.message(),
                        format!("job {i} poisoned"),
                        "threads={n_threads}"
                    );
                } else {
                    assert_eq!(slot, &Ok(i * 10), "threads={n_threads}");
                }
            }
        }
    }

    #[test]
    fn min_rows_for_is_positive_and_monotone() {
        assert!(min_rows_for(0) >= 1);
        assert!(min_rows_for(usize::MAX) >= 1);
        assert!(min_rows_for(1) >= min_rows_for(1 << 30));
    }
}
