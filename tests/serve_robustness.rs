//! Serving robustness tier: the acceptance harness for `calloc_serve`.
//!
//! Two families of law are pinned here:
//!
//! 1. **Determinism** — replaying a request log at fixed batch
//!    boundaries produces *bit-identical* response frames at every
//!    `CALLOC_THREADS`, whether the registry was trained cache-off,
//!    through a cold model-cache file, or restored from a warm one.
//! 2. **Robustness** — over real sockets, every failure mode the issue
//!    names (malformed frames, deadline expiry, overload shedding,
//!    mid-request panics, drain) is answered with a *typed* protocol
//!    reply and the server keeps serving afterwards. Faults are
//!    injected through the deterministic [`FaultPlan`], never
//!    ambient randomness.
//!
//! The fixture is the pinned quick-tier scenario shared with the golden
//! and fault-tolerance tiers; the registry members are the cheap
//! classical localizers (KNN with a KNN degradation fallback, plus GPC)
//! so the tier stays fast while still crossing the batched-kernel path.

use calloc_eval::{Localizer, ModelCache, Suite};
use calloc_repro::testkit::{
    lock_knobs, pinned_building_spec, quick_profile, silence_injected_panics,
};
use calloc_serve::{
    boot, decode_frame, encode_frame, replay_frames, Client, Engine, LogEntry, Registry, Request,
    Response, ServeConfig, ServeError, ServeMember, Server,
};
use calloc_sim::{collection_identity, Building, CollectionConfig, Scenario};
use calloc_tensor::par::{self, FaultPlan};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The pinned quick-tier scenario (building salt 5, small collection,
/// seed 11) plus its model-cache cell identity, built once per binary.
fn fixture() -> &'static (Scenario, String) {
    static FIXTURE: OnceLock<(Scenario, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let building = Building::generate(pinned_building_spec(), 5);
        let scenario = Scenario::generate(&building, &CollectionConfig::small(), 11);
        let cell = collection_identity(&pinned_building_spec(), 5, &CollectionConfig::small(), 11);
        (scenario, cell)
    })
}

/// Trains (or restores) one classical member through `cache`.
fn member(name: &str, cache: &mut ModelCache) -> Box<dyn Localizer> {
    let (scenario, cell) = fixture();
    Suite::train_member_cached(scenario, &quick_profile(), name, cell, cache)
        .expect("model cache I/O")
        .expect("the quick profile includes the classical members")
}

/// Full test registry: `KNN` (primary, with a KNN degradation fallback)
/// and `GPC` (no fallback), trained through `cache`.
fn registry_via(cache: &mut ModelCache) -> Registry {
    let knn = member("KNN", cache);
    let knn_fallback = member("KNN", cache);
    let gpc = member("GPC", cache);
    let (scenario, _) = fixture();
    let positions = scenario.train.rp_positions.clone();
    let num_aps = scenario.train.num_aps();
    let mut registry = Registry::new();
    registry.insert(
        "KNN",
        ServeMember::new(knn, Some(knn_fallback), positions.clone(), num_aps),
    );
    registry.insert("GPC", ServeMember::new(gpc, None, positions, num_aps));
    registry
}

/// A real fingerprint row from the pinned scenario's test points.
fn fingerprint() -> Vec<f64> {
    let (scenario, _) = fixture();
    boot::request_log(scenario, "KNN", 1)
        .pop()
        .expect("the pinned scenario has test points")
        .1
}

/// A request log alternating between the two registry members, so
/// replay exercises the per-model batch grouping.
fn mixed_log(total: usize) -> Vec<LogEntry> {
    let (scenario, _) = fixture();
    let knn = boot::request_log(scenario, "KNN", total);
    let gpc = boot::request_log(scenario, "GPC", total);
    let log: Vec<LogEntry> = knn
        .into_iter()
        .zip(gpc)
        .flat_map(|(a, b)| [a, b])
        .take(total)
        .collect();
    assert_eq!(log.len(), total, "the scenario must cover the log length");
    log
}

/// Binds a server on an ephemeral port and runs it on its own thread.
fn spawn_server(config: ServeConfig) -> (SocketAddr, JoinHandle<calloc_serve::HealthReport>) {
    let registry = registry_via(&mut ModelCache::in_memory());
    let server = Server::bind("127.0.0.1:0", registry, config).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

/// Deterministic byte-noise source (no ambient randomness in tests).
struct Lcg(u64);

impl Lcg {
    fn step(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

// ---------------------------------------------------------------------
// 1. Replay determinism
// ---------------------------------------------------------------------

/// The tentpole law: a replayed request log at fixed batch boundaries
/// yields bit-identical response frames at `CALLOC_THREADS` 1/2/4, for
/// a cache-off registry, one trained through a cold cache file, and one
/// restored from the warm file.
#[test]
fn replay_is_bit_identical_across_threads_and_cache_states() {
    let _guard = lock_knobs();
    let _threads = par::ThreadGuard::new(1);
    let path = std::env::temp_dir().join(format!("calloc_serve_rb_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cache_off = registry_via(&mut ModelCache::in_memory());
    let mut cold_cache = ModelCache::open(&path).expect("temp cache file");
    let cold = registry_via(&mut cold_cache);
    assert_eq!(cold_cache.misses(), 2, "cold file trains KNN and GPC once");
    drop(cold_cache);
    let mut warm_cache = ModelCache::open(&path).expect("reopen the cache file");
    let warm = registry_via(&mut warm_cache);
    assert_eq!(warm_cache.misses(), 0, "a warm cache must not retrain");
    assert_eq!(warm_cache.hits(), 3, "all three members restore");

    let log = mixed_log(40);
    let baseline = replay_frames(&cache_off, &log, 7);
    assert_eq!(baseline.len(), log.len(), "one response frame per query");
    for frame in &baseline {
        let payload = decode_frame(frame).expect("replay emits valid frames");
        match Response::decode(&payload).expect("replay emits valid messages") {
            Response::Located(location) => {
                assert!(!location.degraded, "replay never degrades");
            }
            other => panic!("replay answered {other:?} to a valid query"),
        }
    }

    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        for (registry, label) in [(&cache_off, "cache-off"), (&cold, "cold"), (&warm, "warm")] {
            assert_eq!(
                replay_frames(registry, &log, 7),
                baseline,
                "replay diverged: {label} registry at {threads} threads"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// 2. Malformed input over real sockets
// ---------------------------------------------------------------------

/// Every malformed byte stream is answered with a typed error — frame
/// corruption closes the (unsynchronizable) connection, message-level
/// garbage keeps it open — and the server serves real queries
/// throughout. Includes request-validation errors (unknown model, bad
/// arity).
#[test]
fn malformed_frames_get_typed_replies_and_the_server_survives() {
    let _guard = lock_knobs();
    let (addr, handle) = spawn_server(ServeConfig::default());
    let fp = fingerprint();

    // Deterministic noise blobs: never a panic or hang, always a typed
    // BadFrame reply (bad magic, or torn frame past the read timeout).
    let mut lcg = Lcg(0xCA110C);
    for round in 0..8 {
        let len = 1 + (lcg.step() % 48) as usize;
        let noise: Vec<u8> = (0..len).map(|_| lcg.step() as u8).collect();
        let mut client = Client::connect(addr).expect("connect");
        client.send_raw(&noise).expect("send noise");
        match client.read_response() {
            Ok(Response::Error(ServeError::BadFrame { .. })) => {}
            other => panic!("noise round {round}: expected BadFrame, got {other:?}"),
        }
    }

    // Structured corruption: wrong version, flipped payload byte,
    // oversized length field.
    let valid = encode_frame(&Request::Health.encode());
    let mut wrong_version = valid.clone();
    wrong_version[8] = 99;
    let mut flipped = valid.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    let mut oversized = valid.clone();
    oversized[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    for (case, bytes) in [
        ("wrong version", wrong_version),
        ("flipped payload byte", flipped),
        ("oversized length", oversized),
    ] {
        let mut client = Client::connect(addr).expect("connect");
        client.send_raw(&bytes).expect("send corrupt frame");
        match client.read_response() {
            Ok(Response::Error(ServeError::BadFrame { .. })) => {}
            other => panic!("{case}: expected BadFrame, got {other:?}"),
        }
    }

    // A valid frame with a garbage payload is a *message* error; the
    // connection stays synchronized and usable.
    let mut client = Client::connect(addr).expect("connect");
    client
        .send_raw(&encode_frame(&[0xEE, 1, 2, 3]))
        .expect("send garbage message");
    match client.read_response() {
        Ok(Response::Error(ServeError::BadMessage { .. })) => {}
        other => panic!("garbage message: expected BadMessage, got {other:?}"),
    }
    match client.locate("KNN", fp.clone(), 0) {
        Ok(Response::Located(_)) => {}
        other => panic!("same connection after BadMessage: {other:?}"),
    }

    // Request-validation errors are typed too.
    match client.locate("NOPE", fp.clone(), 0) {
        Ok(Response::Error(ServeError::UnknownModel { model })) => assert_eq!(model, "NOPE"),
        other => panic!("unknown model: {other:?}"),
    }
    match client.locate("KNN", vec![0.0; 3], 0) {
        Ok(Response::Error(ServeError::BadArity { expected, got, .. })) => {
            assert_eq!((expected, got), (fp.len() as u32, 3));
        }
        other => panic!("bad arity: {other:?}"),
    }

    // A half-sent frame followed by a hangup must not wedge the server.
    let mut torn = Client::connect(addr).expect("connect");
    let frame = encode_frame(
        &Request::Locate {
            model: "KNN".into(),
            deadline_ms: 0,
            fingerprint: fp.clone(),
        }
        .encode(),
    );
    torn.send_raw(&frame[..frame.len() / 2]).expect("send half");
    drop(torn);

    // After all of the above the server still answers fresh queries.
    let mut survivor = Client::connect(addr).expect("connect");
    match survivor.locate("KNN", fp, 0) {
        Ok(Response::Located(_)) => {}
        other => panic!("server wedged after malformed input: {other:?}"),
    }
    let served = survivor.drain().expect("drain");
    assert!(served >= 2, "the valid queries were served");
    let report = handle.join().expect("server thread");
    assert!(report.draining, "the final health snapshot is draining");
}

// ---------------------------------------------------------------------
// 3. Deadlines
// ---------------------------------------------------------------------

/// A deadline shorter than the batch window expires in the queue and is
/// answered with the typed `DeadlineExceeded` reply — while undeadlined
/// and generously-deadlined queries on the same server succeed.
#[test]
fn expired_deadlines_are_typed_replies_not_hangs() {
    let _guard = lock_knobs();
    let config = ServeConfig {
        batch_window: Duration::from_millis(120),
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(config);
    let mut client = Client::connect(addr).expect("connect");
    let fp = fingerprint();

    match client.locate("KNN", fp.clone(), 1) {
        Ok(Response::Error(ServeError::DeadlineExceeded { deadline_ms })) => {
            assert_eq!(deadline_ms, 1);
        }
        other => panic!("1 ms deadline under a 120 ms window: {other:?}"),
    }
    match client.locate("KNN", fp.clone(), 0) {
        Ok(Response::Located(_)) => {}
        other => panic!("undeadlined query: {other:?}"),
    }
    match client.locate("KNN", fp, 30_000) {
        Ok(Response::Located(_)) => {}
        other => panic!("generous deadline: {other:?}"),
    }

    let health = client.health().expect("health");
    assert_eq!(health.deadline_expired, 1);
    assert_eq!(health.served, 2);
    client.drain().expect("drain");
    handle.join().expect("server thread");
}

// ---------------------------------------------------------------------
// 4. Overload shedding
// ---------------------------------------------------------------------

/// A burst far beyond the admission queue's capacity is shed at the
/// door with `Overloaded` + a positive retry hint; everything admitted
/// is still answered, and the server recovers to serve new queries.
#[test]
fn overload_sheds_with_a_retry_hint_and_recovers() {
    let _guard = lock_knobs();
    let config = ServeConfig {
        max_batch: 1,
        queue_capacity: 2,
        batch_window: Duration::from_millis(60),
        degrade_watermark: usize::MAX,
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(config);
    let fp = fingerprint();

    const CLIENTS: usize = 10;
    let served = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                match client.locate("KNN", fp.clone(), 0) {
                    Ok(Response::Located(_)) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Response::Error(ServeError::Overloaded { retry_after_ms })) => {
                        assert!(retry_after_ms > 0, "the shed reply must hint a retry");
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("burst query: {other:?}"),
                }
            });
        }
    });
    let (served, shed) = (served.into_inner(), shed.into_inner());
    assert_eq!(served + shed, CLIENTS, "every query got exactly one reply");
    assert!(
        shed > 0,
        "{CLIENTS} simultaneous queries against a 2-slot queue must shed"
    );
    assert!(served > 0, "admitted queries are still answered under load");

    let mut client = Client::connect(addr).expect("connect");
    match client.locate("KNN", fp, 0) {
        Ok(Response::Located(_)) => {}
        other => panic!("post-burst query: {other:?}"),
    }
    let health = client.health().expect("health");
    assert_eq!(health.shed, shed as u64);
    assert_eq!(health.served, served as u64 + 1);
    client.drain().expect("drain");
    handle.join().expect("server thread");
}

// ---------------------------------------------------------------------
// 5. Degradation under sustained backlog
// ---------------------------------------------------------------------

/// When the queue stays above the degrade watermark, members with a
/// configured fallback answer from it and flag the response as
/// degraded; members without a fallback never carry the flag.
#[test]
fn sustained_backlog_degrades_to_the_fallback_member() {
    let _guard = lock_knobs();
    let config = ServeConfig {
        max_batch: 1,
        queue_capacity: 64,
        batch_window: Duration::from_millis(25),
        degrade_watermark: 2,
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(config);
    let fp = fingerprint();

    const CLIENTS: usize = 10;
    let degraded = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let (degraded, fp, barrier) = (&degraded, &fp, &barrier);
        for slot in 0..CLIENTS {
            scope.spawn(move || {
                let model = if slot < 2 { "GPC" } else { "KNN" };
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                match client.locate(model, fp.clone(), 0) {
                    Ok(Response::Located(location)) => {
                        if location.degraded {
                            assert_eq!(model, "KNN", "GPC has no fallback to degrade to");
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    other => panic!("backlog query on {model}: {other:?}"),
                }
            });
        }
    });
    let degraded = degraded.into_inner();
    assert!(
        degraded > 0,
        "a backlog of {CLIENTS} at watermark 2 must degrade some answers"
    );

    let mut client = Client::connect(addr).expect("connect");
    let health = client.health().expect("health");
    assert_eq!(health.degraded, degraded as u64);
    // With the backlog gone, answers come from the primary again.
    match client.locate("KNN", fp.clone(), 0) {
        Ok(Response::Located(location)) => assert!(!location.degraded),
        other => panic!("post-backlog query: {other:?}"),
    }
    client.drain().expect("drain");
    handle.join().expect("server thread");
}

// ---------------------------------------------------------------------
// 6. Panic quarantine
// ---------------------------------------------------------------------

/// Mid-request panics — injected via the deterministic fault plan — are
/// caught at the request boundary: the poisoned query answers
/// `Internal` naming the panic, its batch-mates still get locations,
/// and the server keeps serving.
#[test]
fn injected_panics_are_quarantined_per_request() {
    let _guard = lock_knobs();
    silence_injected_panics();
    let config = ServeConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(60),
        faults: FaultPlan::panic_on(&[1, 4], usize::MAX),
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(config);
    let fp = fingerprint();

    // Phase A: sequential queries get admission ids 0, 1, 2 — only the
    // poisoned id answers Internal, and the panic message is preserved.
    let mut client = Client::connect(addr).expect("connect");
    for id in 0..3u64 {
        match (id, client.locate("KNN", fp.clone(), 0)) {
            (1, Ok(Response::Error(ServeError::Internal { detail }))) => {
                assert!(
                    detail.contains("injected fault"),
                    "the reply names the quarantined panic, got: {detail}"
                );
            }
            (0 | 2, Ok(Response::Located(_))) => {}
            (_, other) => panic!("sequential query {id}: {other:?}"),
        }
    }

    // Phase B: three concurrent queries (ids 3, 4, 5) share one
    // micro-batch; exactly one is poisoned, the other two survive the
    // batch-level unwind via the per-query re-run.
    let located = AtomicUsize::new(0);
    let quarantined = AtomicUsize::new(0);
    let barrier = Barrier::new(3);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                match client.locate("KNN", fp.clone(), 0) {
                    Ok(Response::Located(_)) => {
                        located.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Response::Error(ServeError::Internal { .. })) => {
                        quarantined.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("co-batched query: {other:?}"),
                }
            });
        }
    });
    assert_eq!(
        (located.into_inner(), quarantined.into_inner()),
        (2, 1),
        "exactly the poisoned query is quarantined, its batch-mates answer"
    );

    let health = client.health().expect("health");
    assert_eq!(health.quarantined, 2);
    match client.locate("KNN", fp, 0) {
        Ok(Response::Located(_)) => {}
        other => panic!("server wedged after quarantine: {other:?}"),
    }
    client.drain().expect("drain");
    handle.join().expect("server thread");
}

// ---------------------------------------------------------------------
// 7. Drain
// ---------------------------------------------------------------------

/// Drain finishes in-flight work before acknowledging: queries parked
/// in the queue when the drain arrives are still answered, the ack
/// reports the served count, and the listener shuts down.
#[test]
fn drain_answers_inflight_work_then_stops() {
    let _guard = lock_knobs();
    let config = ServeConfig {
        max_batch: 1,
        batch_window: Duration::from_millis(80),
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(config);
    let fp = fingerprint();

    const INFLIGHT: usize = 4;
    let drained_ack = std::thread::scope(|scope| {
        for _ in 0..INFLIGHT {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                match client.locate("KNN", fp.clone(), 0) {
                    Ok(Response::Located(_)) => {}
                    other => panic!("in-flight query dropped by drain: {other:?}"),
                }
            });
        }
        // Give the senders time to be admitted (the 80 ms window keeps
        // them parked in the queue), then drain under them.
        std::thread::sleep(Duration::from_millis(40));
        let mut closer = Client::connect(addr).expect("connect");
        closer.drain().expect("drain ack")
    });
    assert_eq!(
        drained_ack, INFLIGHT as u64,
        "the drain ack reports every admitted query as served"
    );

    let report = handle.join().expect("server thread");
    assert!(report.draining);
    assert_eq!(report.served, INFLIGHT as u64);
    assert_eq!(report.queue_depth, 0, "nothing is left parked");
    assert!(
        Client::connect(addr).is_err(),
        "the listener is closed after drain"
    );
}

// ---------------------------------------------------------------------
// 8. Engine-level drain refusal
// ---------------------------------------------------------------------

/// After a drain begins, new submissions are refused with the typed
/// `Draining` error (no socket in the way: this pins the engine API).
#[test]
fn submissions_after_drain_are_refused_typed() {
    let _guard = lock_knobs();
    let registry = registry_via(&mut ModelCache::in_memory());
    let engine = Engine::start(registry, ServeConfig::default());
    let fp = fingerprint();

    let receiver = engine.submit("KNN", fp.clone(), 0).expect("admitted");
    match receiver.recv() {
        Ok(Response::Located(_)) => {}
        other => panic!("pre-drain query: {other:?}"),
    }
    engine.begin_drain();
    match engine.submit("KNN", fp, 0) {
        Err(ServeError::Draining) => {}
        Ok(_) => panic!("a draining engine admitted a query"),
        Err(other) => panic!("expected Draining, got {other:?}"),
    }
    engine.await_drained();
    assert!(engine.health().draining);
}
