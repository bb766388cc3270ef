//! The serving engine: a bounded admission queue feeding a micro-batch
//! dispatcher, with every robustness rule enforced at one of two doors.
//!
//! **Admission** (on the session thread, inside [`Engine::submit`]):
//! unknown model and arity mismatches are refused before touching the
//! queue; a full queue sheds the query with a typed
//! [`ServeError::Overloaded`] reply carrying a retry-after hint — the
//! queue is the only buffer, so memory stays bounded no matter the
//! offered load. A draining engine refuses all new work.
//!
//! **Dispatch** (on the single batcher thread): queued queries are taken
//! FIFO up to `max_batch` — after a short accumulation window so
//! concurrent clients actually share a batch — grouped by model, and run
//! through the batched kernels in one `predict_classes` call per group.
//! Expired deadlines are answered without running inference. Each group
//! runs inside [`par::caught`]; if a batch panics, the group re-runs
//! query-by-query so only the poisoned query gets an
//! [`ServeError::Internal`] reply and the server keeps serving. When the
//! queue left behind is still at or above the degradation watermark, the
//! batch runs on each member's cheaper fallback model (flagged in the
//! response) — quality degrades before latency does.
//!
//! **Determinism:** [`replay`] re-runs a request log at fixed batch
//! boundaries with no deadlines, faults or degradation; its response
//! bytes are bit-identical at every `CALLOC_THREADS` and across
//! cold/warm model caches, which is what `tests/serve_robustness.rs`
//! pins. Fault injection is a [`FaultPlan`] keyed on admission sequence
//! numbers — never ambient randomness — the same type the sweep engine
//! keys on plan indices.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use calloc_tensor::par::{self, FaultPlan};
use calloc_tensor::Matrix;

use crate::frame::{HealthReport, Response, ServeError};
use crate::registry::Registry;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest micro-batch handed to the kernels in one dispatch.
    pub max_batch: usize,
    /// Admission-queue bound; queries beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// How long the batcher waits for more queries before dispatching a
    /// partial batch — the latency the engine trades for batching.
    pub batch_window: Duration,
    /// When the queue depth *left behind* after taking a batch is still
    /// at or above this, the batch runs on the members' fallback models
    /// (where configured). `usize::MAX` disables degradation.
    pub degrade_watermark: usize,
    /// Deterministic fault-injection plan keyed by admission sequence
    /// number, the first admitted query being 0 (tests only; defaults
    /// empty). A query panics on its batched attempt (attempt 0) and on
    /// its query-by-query rerun (attempt 1) as the plan says; one that
    /// panics on both is quarantined with [`ServeError::Internal`].
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_capacity: 256,
            batch_window: Duration::from_millis(1),
            degrade_watermark: 128,
            faults: FaultPlan::none(),
        }
    }
}

/// One admitted, not-yet-dispatched query.
struct PendingQuery {
    /// Admission sequence number (fault-plan key).
    id: u64,
    /// Registry name of the model to run.
    model: String,
    /// The fingerprint row.
    fingerprint: Vec<f64>,
    /// Absolute dispatch deadline, if the request set one.
    deadline: Option<Instant>,
    /// Deadline as requested, for the error reply.
    deadline_ms: u32,
    /// Where the session thread waits for the answer.
    reply: Sender<Response>,
}

/// Lifetime counters behind [`HealthReport`].
#[derive(Default)]
struct Stats {
    admitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    quarantined: AtomicU64,
    deadline_expired: AtomicU64,
    degraded: AtomicU64,
    /// Admission-queue high-water mark; updated under the queue lock in
    /// [`Engine::submit`] so it is exact, not racy.
    queue_peak: AtomicU64,
    /// Micro-batches dispatched by the batcher thread.
    batches: AtomicU64,
}

/// State shared between session threads and the batcher.
struct Shared {
    config: ServeConfig,
    queue: Mutex<VecDeque<PendingQuery>>,
    wake: Condvar,
    drained: Mutex<bool>,
    drained_cv: Condvar,
    stats: Stats,
    draining: AtomicBool,
    next_id: AtomicU64,
}

/// The serving engine. Construction spawns the batcher thread;
/// [`Engine::begin_drain`] + [`Engine::await_drained`] (or `Drop`) shut
/// it down after finishing all admitted work.
pub struct Engine {
    shared: Arc<Shared>,
    registry: Arc<Registry>,
    batcher: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Starts the engine over a registry.
    pub fn start(registry: Registry, config: ServeConfig) -> Engine {
        let registry = Arc::new(registry);
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            drained: Mutex::new(false),
            drained_cv: Condvar::new(),
            stats: Stats::default(),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || run_batcher(&shared, &registry))
        };
        Engine {
            shared,
            registry,
            batcher: Mutex::new(Some(batcher)),
        }
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Validates and enqueues one query. `Ok` carries the channel the
    /// single response will arrive on; every refusal is the typed error
    /// to reply with instead. Never blocks on a full queue — a full
    /// queue **sheds**.
    pub fn submit(
        &self,
        model: &str,
        fingerprint: Vec<f64>,
        deadline_ms: u32,
    ) -> Result<Receiver<Response>, ServeError> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(ServeError::Draining);
        }
        let member = self
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
            })?;
        if fingerprint.len() != member.num_aps() {
            return Err(ServeError::BadArity {
                model: model.to_string(),
                expected: member.num_aps() as u32,
                got: fingerprint.len() as u32,
            });
        }
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
        let (tx, rx) = channel();
        {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            if queue.len() >= self.shared.config.queue_capacity {
                self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    retry_after_ms: self.retry_hint(queue.len()),
                });
            }
            let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
            queue.push_back(PendingQuery {
                id,
                model: model.to_string(),
                fingerprint,
                deadline,
                deadline_ms,
                reply: tx,
            });
            let depth = queue.len() as u64;
            // Exact (not a CAS loop): the queue lock is held, so no
            // other admission can interleave a competing peak.
            if depth > self.shared.stats.queue_peak.load(Ordering::Relaxed) {
                self.shared.stats.queue_peak.store(depth, Ordering::Relaxed);
            }
        }
        self.shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        self.shared.wake.notify_all();
        Ok(rx)
    }

    /// Retry-after hint for a shed reply: how long the current backlog
    /// needs to dispatch, assuming full batches per window.
    fn retry_hint(&self, depth: usize) -> u32 {
        let window_ms = self.shared.config.batch_window.as_millis().max(1) as u64;
        let batches = (depth / self.shared.config.max_batch.max(1)) as u64 + 1;
        (batches * window_ms).min(u64::from(u32::MAX)) as u32
    }

    /// Stops intake. Already-admitted queries still dispatch; the
    /// batcher exits once the queue is empty.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Blocks until the batcher has finished all admitted work and
    /// exited (requires [`Engine::begin_drain`] to have been called, by
    /// this thread or any other).
    pub fn await_drained(&self) {
        let mut drained = self.shared.drained.lock().expect("drained lock");
        while !*drained {
            drained = self.shared.drained_cv.wait(drained).expect("drained lock");
        }
        if let Some(handle) = self.batcher.lock().expect("batcher lock").take() {
            let _ = handle.join();
        }
    }

    /// Current statistics snapshot.
    pub fn health(&self) -> HealthReport {
        let queue_depth = self.shared.queue.lock().expect("queue lock").len() as u64;
        let stats = &self.shared.stats;
        HealthReport {
            admitted: stats.admitted.load(Ordering::Relaxed),
            served: stats.served.load(Ordering::Relaxed),
            shed: stats.shed.load(Ordering::Relaxed),
            quarantined: stats.quarantined.load(Ordering::Relaxed),
            deadline_expired: stats.deadline_expired.load(Ordering::Relaxed),
            degraded: stats.degraded.load(Ordering::Relaxed),
            queue_depth,
            queue_peak: stats.queue_peak.load(Ordering::Relaxed),
            batches: stats.batches.load(Ordering::Relaxed),
            draining: self.is_draining(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.begin_drain();
        self.await_drained();
    }
}

/// The batcher thread: waits for work, accumulates a micro-batch,
/// dispatches it, and exits only when draining with an empty queue.
fn run_batcher(shared: &Shared, registry: &Registry) {
    loop {
        let (batch, depth_after) = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    drop(queue);
                    *shared.drained.lock().expect("drained lock") = true;
                    shared.drained_cv.notify_all();
                    return;
                }
                queue = shared.wake.wait(queue).expect("queue lock");
            }
            // Give concurrent submitters one window to fill the batch;
            // a drain skips the wait so shutdown is prompt.
            if queue.len() < shared.config.max_batch
                && !shared.config.batch_window.is_zero()
                && !shared.draining.load(Ordering::SeqCst)
            {
                let (q, _) = shared
                    .wake
                    .wait_timeout(queue, shared.config.batch_window)
                    .expect("queue lock");
                queue = q;
            }
            let take = queue.len().min(shared.config.max_batch.max(1));
            let batch: Vec<PendingQuery> = queue.drain(..take).collect();
            (batch, queue.len())
        };
        let degraded = depth_after >= shared.config.degrade_watermark;
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        dispatch(shared, registry, batch, degraded);
    }
}

/// Answers one taken batch: expired deadlines first, then per-model
/// grouped inference with panic quarantine.
fn dispatch(shared: &Shared, registry: &Registry, batch: Vec<PendingQuery>, degraded: bool) {
    let now = Instant::now();
    let mut live: Vec<PendingQuery> = Vec::with_capacity(batch.len());
    for query in batch {
        match query.deadline {
            Some(deadline) if now > deadline => {
                shared
                    .stats
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                let _ = query
                    .reply
                    .send(Response::Error(ServeError::DeadlineExceeded {
                        deadline_ms: query.deadline_ms,
                    }));
            }
            _ => live.push(query),
        }
    }
    // Group by model name (sorted, deterministic) without reordering
    // queries within a group.
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (slot, query) in live.iter().enumerate() {
        groups.entry(query.model.as_str()).or_default().push(slot);
    }
    for (model, slots) in groups {
        let queries: Vec<(u64, &[f64])> = slots
            .iter()
            .map(|&slot| (live[slot].id, live[slot].fingerprint.as_slice()))
            .collect();
        let responses = infer_group(registry, model, &queries, degraded, &shared.config.faults);
        for (&slot, response) in slots.iter().zip(responses) {
            match &response {
                Response::Located(location) => {
                    shared.stats.served.fetch_add(1, Ordering::Relaxed);
                    if location.degraded {
                        shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Response::Error(ServeError::Internal { .. }) => {
                    shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            let _ = live[slot].reply.send(response);
        }
    }
}

/// Runs one model's share of a batch, panic-quarantined: the whole
/// group runs in one batched `predict_classes` call inside
/// [`par::caught`]; if that unwinds, the group re-runs query-by-query
/// so only the poisoned query answers [`ServeError::Internal`]. Shared
/// verbatim by live dispatch and [`replay`], which is what makes a
/// replayed log bit-identical to what the wire saw.
fn infer_group(
    registry: &Registry,
    model: &str,
    queries: &[(u64, &[f64])],
    degraded: bool,
    faults: &FaultPlan,
) -> Vec<Response> {
    let Some(member) = registry.get(model) else {
        return queries
            .iter()
            .map(|_| {
                Response::Error(ServeError::UnknownModel {
                    model: model.to_string(),
                })
            })
            .collect();
    };
    let matrix_of =
        |rows: &[&[f64]]| Matrix::from_fn(rows.len(), member.num_aps(), |r, c| rows[r][c]);
    let rows: Vec<&[f64]> = queries.iter().map(|&(_, row)| row).collect();
    let batch = par::caught(|| {
        for &(id, _) in queries {
            faults.maybe_panic(id as usize, 0);
        }
        member.locate_batch(&matrix_of(&rows), degraded)
    });
    match batch {
        Ok(locations) => locations.into_iter().map(Response::Located).collect(),
        Err(_) => queries
            .iter()
            .map(|&(id, row)| {
                par::caught(|| {
                    faults.maybe_panic(id as usize, 1);
                    member.locate_batch(&matrix_of(&[row]), degraded)[0]
                })
                .map(Response::Located)
                .unwrap_or_else(|panic| {
                    Response::Error(ServeError::Internal {
                        detail: panic.message().to_string(),
                    })
                })
            })
            .collect(),
    }
}

/// One replayable request-log entry: registry model name + fingerprint.
pub type LogEntry = (String, Vec<f64>);

/// Replays a request log at **fixed batch boundaries** — every
/// `batch_size` consecutive entries form one micro-batch, with no
/// deadlines, no degradation and no faults — and returns the responses
/// in log order. Invalid entries (unknown model, wrong arity) answer
/// their typed error in place, exactly as the live path would.
///
/// This is the serving determinism law's subject: for a fixed log and
/// `batch_size`, the returned responses are bit-identical at every
/// `CALLOC_THREADS` setting and across cold/warm model caches.
pub fn replay(registry: &Registry, log: &[LogEntry], batch_size: usize) -> Vec<Response> {
    let faults = FaultPlan::none();
    let mut responses: Vec<Option<Response>> = (0..log.len()).map(|_| None).collect();
    for (chunk_index, chunk) in log.chunks(batch_size.max(1)).enumerate() {
        let base = chunk_index * batch_size.max(1);
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (offset, (model, fingerprint)) in chunk.iter().enumerate() {
            let slot = base + offset;
            match registry.get(model) {
                None => {
                    responses[slot] = Some(Response::Error(ServeError::UnknownModel {
                        model: model.clone(),
                    }));
                }
                Some(member) if fingerprint.len() != member.num_aps() => {
                    responses[slot] = Some(Response::Error(ServeError::BadArity {
                        model: model.clone(),
                        expected: member.num_aps() as u32,
                        got: fingerprint.len() as u32,
                    }));
                }
                Some(_) => groups.entry(model.as_str()).or_default().push(slot),
            }
        }
        for (model, slots) in groups {
            let queries: Vec<(u64, &[f64])> = slots
                .iter()
                .map(|&slot| (slot as u64, log[slot].1.as_slice()))
                .collect();
            let group = infer_group(registry, model, &queries, false, &faults);
            for (&slot, response) in slots.iter().zip(group) {
                responses[slot] = Some(response);
            }
        }
    }
    responses
        .into_iter()
        .map(|r| r.expect("every log slot answered"))
        .collect()
}

/// [`replay`], with each response encoded into its complete wire frame
/// — the exact bytes the determinism tests pin.
pub fn replay_frames(registry: &Registry, log: &[LogEntry], batch_size: usize) -> Vec<Vec<u8>> {
    replay(registry, log, batch_size)
        .into_iter()
        .map(|response| crate::frame::encode_frame(&response.encode()))
        .collect()
}
