//! The `serve_open` workload: a self-hosted localization server driven by
//! an open loop.
//!
//! Set-up trains the demo registry (CALLOC primary with a KNN fallback,
//! plus KNN standalone) and binds the server. The generator then sends on
//! a seeded Poisson schedule, because the senders are independent users:
//! a slow reply never delays the next send. It runs a fixed ladder of
//! offered rates from one thread over at most `nproc` connections,
//! pipelining requests on each. Requests go mostly
//! to CALLOC with a minority share to KNN, and their fingerprints come from
//! freshly collected sessions on the demo building, so none repeats within
//! a run. Each request is timed from the moment it was due, so a stall
//! also counts against the requests queued behind it, and the generator
//! reports how late it sent.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calloc_eval::{Localizer, ModelCache, Suite};
use calloc_serve::boot::{
    demo_profile, demo_registry, demo_scenarios, FALLBACK_MODEL, PRIMARY_MODEL,
};
use calloc_serve::frame::{
    decode_frame, encode_frame, read_frame, FrameRead, HealthReport, HEADER_LEN,
};
use calloc_serve::{replay, Client, Registry, Request, Response, ServeConfig, ServeMember, Server};
use calloc_sim::{CollectionConfig, Scenario};
use calloc_tensor::Rng;

use crate::report::{median, percentile, Metric};
use crate::timed::Timed;
use crate::trace::{self, record_interval, span, span_with, stage};
use crate::{Check, Phase, Run};

/// Offered rates of the ladder, requests per second, lowest first. The
/// top rung overloads the server on purpose: its backlog grows, and the
/// rate it answers at while saturated is its capacity.
pub const LADDER: [u32; 5] = [200, 1000, 2000, 4000, 12000];

/// Share of a ladder pass's seconds each rung gets (same order as
/// [`LADDER`]). The overload rung is short: its backlog drains after it
/// ends.
const RUNG_SHARE: [f64; 5] = [0.25, 0.3, 0.2, 0.15, 0.1];

/// Ladder passes per run. Each metric is the median over the passes, so a
/// burst of host contention during one pass does not move it.
const LADDER_PASSES: usize = 5;

/// Rung whose p50/p99 are the "low" latencies: requests arrive alone.
const LOW_RUNG: usize = 0;

/// Rung whose p50/p99 are the "high" latencies: below the knee on a
/// loaded two-core machine, where the batcher groups requests from both
/// connections.
const HIGH_RUNG: usize = 2;

/// Rung whose p95 is the end-to-end tail latency: the busiest rung that
/// stays clear of the knee when the machine is loaded, and the highest
/// percentile with at least ten samples beyond it in every pass.
const TAIL_RUNG: usize = 1;

/// Latency limit on a rung's p99 for it to count as sustained.
pub const LATENCY_LIMIT_MS: f64 = 10.0;

/// Most connections the generator uses; fewer when the machine has fewer
/// cores. One generator thread drives them all.
const MAX_CONNECTIONS: usize = 2;

/// Share of requests addressed to KNN; the rest go to CALLOC.
const KNN_SHARE: f64 = 0.2;

/// How long a connection waits for an overdue reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How often an idle connection polls for replies. Blocking reads cannot
/// be used: their timeouts tick at the kernel's scheduler rate (up to
/// 10 ms), which would make every send late. A reply is therefore seen up
/// to one poll interval (plus timer slack, ~0.1 ms in all) after it
/// arrives, which every latency includes.
const POLL: Duration = Duration::from_micros(50);

/// One request of the schedule.
struct Planned {
    /// Request id, unique within the run (shared by the request's spans);
    /// also the index of its fingerprint in the pool.
    id: u64,
    /// Due time, from the rung's start.
    due: Duration,
    /// Connection it is sent on.
    connection: usize,
    model: &'static str,
}

/// One answered request.
struct Observed {
    id: u64,
    /// Due time, from the rung's start.
    due: Duration,
    /// Send time minus due time.
    late: Duration,
    /// Reply time minus due time.
    latency: Duration,
    response: Response,
}

/// What the generator saw during one rung.
#[derive(Default)]
struct RungLog {
    observed: Vec<Observed>,
    /// Requests outstanding right after each send, in send order: the
    /// backlog signal.
    outstanding: Vec<usize>,
}

/// Fresh fingerprints from new sessions on the demo building: `(row,
/// true position)` pairs, none repeated.
fn fingerprint_pool(seed: u64, needed: usize) -> Vec<(Vec<f64>, (f64, f64))> {
    let set = demo_scenarios();
    let building = set.building_for(0);
    let config = CollectionConfig::small();
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let mut pool = Vec::with_capacity(needed);
    let mut session = 0u64;
    while pool.len() < needed {
        // Seeds far from the demo survey's, one collection per step.
        let scenario = Scenario::generate(building, &config, (seed << 20) ^ (0x5e55 + session));
        session += 1;
        let datasets =
            std::iter::once(&scenario.train).chain(scenario.test_per_device.iter().map(|(_, d)| d));
        for dataset in datasets {
            for r in 0..dataset.x.rows() {
                let row = dataset.x.row(r).to_vec();
                if seen.insert(row.iter().map(|v| v.to_bits()).collect()) {
                    pool.push((row, dataset.rp_positions[dataset.labels[r]]));
                }
            }
        }
    }
    pool.truncate(needed);
    pool
}

/// The seeded Poisson schedule of every rung of every ladder pass, in run
/// order; each rung's requests in due order, dealt round-robin over the
/// connections.
fn schedule(seed: u64, seconds: f64, connections: usize) -> Vec<Vec<Planned>> {
    let mut rng = Rng::new(seed ^ 0x0be7_100b);
    let mut next_id = 0u64;
    let pass_seconds = seconds / LADDER_PASSES as f64;
    (0..LADDER_PASSES)
        .flat_map(|_| LADDER.iter().zip(RUNG_SHARE))
        .map(|(&rate, share)| {
            let length = pass_seconds * share;
            let mut rung = Vec::new();
            let mut t = 0.0;
            loop {
                t += -(1.0 - rng.next_f64()).ln() / f64::from(rate);
                if t >= length {
                    break;
                }
                let model = if rng.next_f64() < KNN_SHARE {
                    FALLBACK_MODEL
                } else {
                    PRIMARY_MODEL
                };
                rung.push(Planned {
                    id: next_id,
                    due: Duration::from_secs_f64(t),
                    connection: next_id as usize % connections,
                    model,
                });
                next_id += 1;
            }
            rung
        })
        .collect()
}

/// Length of the first complete frame in `buf`, if one has arrived.
fn complete_frame(buf: &[u8]) -> Option<usize> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    let length = u32::from_le_bytes(buf[12..16].try_into().expect("four bytes")) as usize;
    (buf.len() >= HEADER_LEN + length).then_some(HEADER_LEN + length)
}

/// One connection's side of a rung: requests sent and not yet answered
/// (plan index and lateness), and reply bytes not yet parsed.
#[derive(Default)]
struct Wire {
    inflight: VecDeque<(usize, Duration)>,
    buf: Vec<u8>,
}

/// Drives one rung over every connection from this thread: sends each
/// request when it is due (pipelined, never waiting for replies) and
/// reads replies in between, until all are answered.
fn drive(
    streams: &mut [TcpStream],
    plan: &[Planned],
    pool: &[(Vec<f64>, (f64, f64))],
    start: Instant,
) -> io::Result<RungLog> {
    let encode: Arc<str> = Arc::from("serve.encode");
    let decode: Arc<str> = Arc::from("serve.decode");
    let request: Arc<str> = Arc::from("serve.request");
    for stream in streams.iter() {
        stream.set_nonblocking(true)?;
    }
    let mut wires: Vec<Wire> = streams.iter().map(|_| Wire::default()).collect();
    let mut log = RungLog::default();
    let mut chunk = [0u8; 1 << 14];
    let mut next = 0;
    let mut outstanding = 0usize;
    let mut last_reply = Instant::now();
    loop {
        while next < plan.len() && start + plan[next].due <= Instant::now() {
            let p = &plan[next];
            let bytes = span_with(&encode, p.id, 1, || {
                encode_frame(
                    &Request::Locate {
                        model: p.model.to_string(),
                        deadline_ms: 0,
                        fingerprint: pool[p.id as usize].0.clone(),
                    }
                    .encode(),
                )
            });
            send(&mut streams[p.connection], &bytes)?;
            let late = Instant::now().saturating_duration_since(start + p.due);
            wires[p.connection].inflight.push_back((next, late));
            outstanding += 1;
            log.outstanding.push(outstanding);
            next += 1;
        }
        if next == plan.len() && outstanding == 0 {
            return Ok(log);
        }
        let mut idle = true;
        for (stream, wire) in streams.iter_mut().zip(&mut wires) {
            let n = match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e),
            };
            idle = false;
            let arrived = Instant::now();
            last_reply = arrived;
            wire.buf.extend_from_slice(&chunk[..n]);
            while let Some(len) = complete_frame(&wire.buf) {
                let frame: Vec<u8> = wire.buf.drain(..len).collect();
                let (i, late) = wire.inflight.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
                })?;
                outstanding -= 1;
                let p = &plan[i];
                let response = span_with(&decode, p.id, 1, || {
                    decode_frame(&frame).and_then(|payload| Response::decode(&payload))
                })
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                record_interval(&request, p.id, start + p.due, arrived);
                log.observed.push(Observed {
                    id: p.id,
                    due: p.due,
                    late,
                    latency: arrived.saturating_duration_since(start + p.due),
                    response,
                });
            }
        }
        if idle {
            if outstanding > 0 && last_reply.elapsed() > REPLY_TIMEOUT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "reply overdue"));
            }
            // Nothing to read: sleep until the next send is due, but at
            // most one poll interval, so replies are seen promptly.
            let until_due = plan.get(next).map_or(POLL, |p| {
                (start + p.due).saturating_duration_since(Instant::now())
            });
            std::thread::sleep(until_due.min(POLL));
        }
    }
}

/// Writes all of `bytes` to a nonblocking stream, waiting out a full
/// send buffer.
fn send(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "server closed")),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A health snapshot, asked on an idle generator connection between
/// rungs (so the run opens no connection beyond the generator's).
fn health(stream: &mut TcpStream) -> HealthReport {
    let reply = (|| -> io::Result<Response> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.write_all(&encode_frame(&Request::Health.encode()))?;
        match read_frame(stream)? {
            FrameRead::Payload(payload) => Response::decode(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{other:?}"),
            )),
        }
    })();
    match reply {
        Ok(Response::Health(report)) => report,
        other => panic!("health request failed: {other:?}"),
    }
}

/// The demo registry with every model wrapped for timing: the same
/// members `demo_registry` serves, trained through the same cache keys.
fn timed_registry(cache: &mut ModelCache) -> Registry {
    let set = demo_scenarios();
    let scenario = set.scenario(0);
    let cell = set.cell_identity(0);
    let profile = demo_profile();
    let mut member = |name: &str| -> Box<dyn Localizer> {
        let model = Suite::train_member_cached(scenario, &profile, name, &cell, cache)
            .expect("model cache")
            .expect("the demo profile trains the member");
        Box::new(Timed::new("serve", name, model))
    };
    let calloc = member(PRIMARY_MODEL);
    let fallback = member(FALLBACK_MODEL);
    let knn = member(FALLBACK_MODEL);
    let positions = scenario.train.rp_positions.clone();
    let num_aps = scenario.train.num_aps();
    let mut registry = Registry::new();
    registry.insert(
        PRIMARY_MODEL,
        ServeMember::new(calloc, Some(fallback), positions.clone(), num_aps),
    );
    registry.insert(
        FALLBACK_MODEL,
        ServeMember::new(knn, None, positions, num_aps),
    );
    registry
}

/// A running server and the thread serving it.
struct Hosted {
    addr: std::net::SocketAddr,
    thread: std::thread::JoinHandle<HealthReport>,
}

fn host(registry: Registry) -> Hosted {
    let server = Server::bind("127.0.0.1:0", registry, ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    Hosted {
        addr,
        thread: std::thread::spawn(move || server.run()),
    }
}

/// Drains the server and waits for its thread.
fn shut_down(hosted: Hosted) -> HealthReport {
    Client::connect(hosted.addr)
        .expect("connect")
        .drain()
        .expect("drain the server");
    hosted.thread.join().expect("server thread")
}

/// Per-rung summary.
struct Rung {
    rate: u32,
    /// Rung length in seconds.
    length: f64,
    /// `(due, latency)` of every answered request, seconds and ms.
    samples: Vec<(f64, f64)>,
    late_ms: Vec<f64>,
    failed: usize,
    growing: bool,
    sent: usize,
}

impl Rung {
    /// Latency percentile `q`, ms.
    fn p(&self, q: f64) -> f64 {
        let latency_ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        percentile(&latency_ms, q)
    }

    /// Replies per second while saturated: replies to requests due in the
    /// rung's last three quarters, over that span, when the backlog grew.
    fn capacity(&self) -> f64 {
        let from = self.length / 4.0;
        let answered = self.samples.iter().filter(|(due, _)| *due >= from).count();
        // Due in the window but answered later, once the backlog drained:
        // time the window by the last of those replies instead.
        let end = self
            .samples
            .iter()
            .filter(|(due, _)| *due >= from)
            .map(|(due, ms)| due + ms * 1e-3)
            .fold(self.length, f64::max);
        answered as f64 / (end - from)
    }

    /// Sustained: p99 under the limit, nothing failed, no growing backlog.
    fn sustained(&self) -> bool {
        self.failed == 0 && !self.growing && self.p(99.0) <= LATENCY_LIMIT_MS
    }
}

/// Whether a connection's backlog grew across a rung: the mean outstanding
/// count over the rung's last third clearly exceeds that over its first.
fn backlog_grows(outstanding: &[usize]) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let (early, late) = (
        mean(&outstanding[..third]),
        mean(&outstanding[outstanding.len() - third..]),
    );
    late > 1.5 * early + 2.0
}

/// The highest sustained rate, interpolated on p99 between the last
/// sustained rung and the first that is not (a failed or backlogged rung
/// reads as the limit's double, so the estimate stays inside the gap).
fn max_rate(rungs: &[&Rung]) -> f64 {
    let Some(first_bad) = rungs.iter().position(|r| !r.sustained()) else {
        return f64::from(rungs.last().expect("a ladder").rate);
    };
    if first_bad == 0 {
        let r = rungs[0];
        return f64::from(r.rate) * (LATENCY_LIMIT_MS / r.p(99.0).max(LATENCY_LIMIT_MS));
    }
    let (lo, hi) = (rungs[first_bad - 1], rungs[first_bad]);
    let p_lo = lo.p(99.0);
    let p_hi = if hi.failed > 0 || hi.growing {
        hi.p(99.0).max(2.0 * LATENCY_LIMIT_MS)
    } else {
        hi.p(99.0)
    };
    let share = ((LATENCY_LIMIT_MS - p_lo) / (p_hi - p_lo)).clamp(0.0, 1.0);
    f64::from(lo.rate) + share * f64::from(hi.rate - lo.rate)
}

/// Set-up, repeated: trains the registry and binds the server. Every
/// set-up but the last is shut down again. Returns the set-up times, the
/// last server, and the model cache of the first set-up, which restores
/// the registry the replay check answers from.
fn set_up(run: &Run, traced: bool) -> (Vec<f64>, Hosted, ModelCache) {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut replay_cache = None;
    let mut hosted: Option<Hosted> = None;
    while run.more_setups(&setup_s) {
        if let Some(previous) = hosted.take() {
            shut_down(previous);
        }
        let mut cache = ModelCache::in_memory();
        let start = Instant::now();
        let server = stage("setup", || {
            let registry = span("serve.registry", || {
                if traced {
                    timed_registry(&mut cache)
                } else {
                    demo_registry(&mut cache)
                        .expect("train the demo registry")
                        .0
                }
            });
            span("serve.bind", || host(registry))
        });
        setup_s.push(start.elapsed().as_secs_f64());
        hosted = Some(server);
        replay_cache.get_or_insert(cache);
    }
    (
        setup_s,
        hosted.expect("at least one set-up"),
        replay_cache.expect("at least one set-up"),
    )
}

/// Runs the serve workload: set-up, then [`LADDER_PASSES`] passes over
/// the ladder lasting `seconds` in all.
pub fn run(run: &Run) -> Phase {
    let traced = trace::enabled();
    let connections = MAX_CONNECTIONS.min(run.nproc).max(1);

    let (setup_s, hosted, mut replay_cache) = set_up(run, traced);

    // Inputs: the schedule and a fresh fingerprint per request.
    let plan = schedule(run.seed, run.seconds, connections);
    let total: usize = plan.iter().map(Vec::len).sum();
    let pool = stage("inputs", || {
        span("sim.sessions", || fingerprint_pool(run.seed, total))
    });

    let mut streams: Vec<TcpStream> = (0..connections)
        .map(|_| {
            let s = TcpStream::connect(hosted.addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();

    // rungs[i] holds rung i of every ladder pass.
    let mut rungs: Vec<Vec<Rung>> = LADDER.iter().map(|_| Vec::new()).collect();
    let mut windows: Vec<Vec<Window>> = LADDER.iter().map(|_| Vec::new()).collect();
    let mut observed: Vec<Observed> = Vec::new();
    for (step, rung_plan) in plan.iter().enumerate() {
        let index = step % LADDER.len();
        let rate = LADDER[index];
        let before = health(&mut streams[0]);
        let spans_from = trace::now();
        let log = stage(&format!("rung.{rate}"), || {
            drive(&mut streams, rung_plan, &pool, Instant::now())
        })
        .unwrap_or_else(|e| panic!("rung {rate}: connection failed: {e}"));
        let after = health(&mut streams[0]);
        let spans_to = trace::now();
        let mut rung = Rung {
            rate,
            length: run.seconds / LADDER_PASSES as f64 * RUNG_SHARE[index],
            samples: Vec::new(),
            late_ms: Vec::new(),
            failed: 0,
            growing: backlog_grows(&log.outstanding),
            sent: rung_plan.len(),
        };
        for o in log.observed {
            rung.samples
                .push((o.due.as_secs_f64(), o.latency.as_secs_f64() * 1e3));
            rung.late_ms.push(o.late.as_secs_f64() * 1e3);
            if !matches!(o.response, Response::Located(_)) {
                rung.failed += 1;
            }
            observed.push(o);
        }
        rung.failed += rung.sent - rung.samples.len();
        windows[index].push(Window {
            before,
            after,
            from_ns: spans_from,
            to_ns: spans_to,
        });
        rungs[index].push(rung);
    }
    let extras = if traced {
        LADDER
            .iter()
            .enumerate()
            .flat_map(|(i, &rate)| rung_layers(rate, &windows[i], &rungs[i]))
            .collect()
    } else {
        Vec::new()
    };
    drop(streams);
    let final_health = shut_down(hosted);

    // Checks: every Located answer equals what replay answers for it.
    observed.sort_by_key(|o| o.id);
    // Request ids run 0.. in schedule order and index the fingerprint pool.
    let requests: Vec<&Planned> = plan.iter().flatten().collect();
    let located: Vec<(usize, calloc_serve::Location)> = observed
        .iter()
        .filter_map(|o| match o.response {
            Response::Located(l) => Some((o.id as usize, l)),
            _ => None,
        })
        .collect();
    let (replay_registry, _) = demo_registry(&mut replay_cache).expect("restore the registry");
    let log: Vec<(String, Vec<f64>)> = located
        .iter()
        .map(|&(id, _)| (requests[id].model.to_string(), pool[id].0.clone()))
        .collect();
    let replayed = stage("check", || replay(&replay_registry, &log, 32));
    let mismatches = located
        .iter()
        .zip(&replayed)
        .filter(|((_, live), replayed)| match replayed {
            Response::Located(r) => r.rp_class != live.rp_class || r.degraded != live.degraded,
            _ => true,
        })
        .count();
    let mut checks = vec![
        Check::new(
            "located_equals_replay",
            mismatches == 0,
            &format!(
                "{mismatches} of {} served classes differ from replay",
                located.len()
            ),
        ),
        Check::new(
            "every_request_answered",
            observed.len() == total && final_health.admitted as usize >= total,
            "every scheduled request got exactly one reply",
        ),
    ];
    if traced {
        // The wrapped registry must answer the same bytes as the plain one.
        let mut cache = ModelCache::in_memory();
        let wrapped = timed_registry(&mut cache);
        let sample: Vec<(String, Vec<f64>)> = log.iter().take(512).cloned().collect();
        let frames = |r: &Registry| calloc_serve::replay_frames(r, &sample, 32);
        checks.push(Check::new(
            "wrapped_replay_identical",
            frames(&wrapped) == frames(&replay_registry),
            "replay frames of the wrapped registry equal the plain registry's",
        ));
    }

    // Output digest: the served classes in request order.
    let mut out = String::new();
    for (id, l) in &located {
        out.push_str(&format!("{id},{}\n", l.rp_class));
    }

    let errors: Vec<f64> = located
        .iter()
        .map(|&(id, l)| {
            let (tx, ty) = pool[id].1;
            ((l.x - tx).powi(2) + (l.y - ty).powi(2)).sqrt()
        })
        .collect();
    let mean_error = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    // Mean of the worst 1% of answers: the tail without one sample's noise.
    let tail = percentile(&errors, 99.0);
    let worst: Vec<f64> = errors.iter().copied().filter(|&e| e >= tail).collect();
    let worst_error = worst.iter().sum::<f64>() / worst.len().max(1) as f64;

    let failed: usize = rungs.iter().flatten().map(|r| r.failed).sum();
    // One value per ladder pass; metrics report their median.
    let per_pass = |index: usize, f: &dyn Fn(&Rung) -> f64| -> Vec<f64> {
        rungs[index].iter().map(f).collect()
    };
    let max_rates: Vec<f64> = (0..LADDER_PASSES)
        .map(|k| max_rate(&rungs.iter().map(|r| &r[k]).collect::<Vec<_>>()))
        .collect();
    let capacity = per_pass(LADDER.len() - 1, &Rung::capacity);
    let p50_low = per_pass(LOW_RUNG, &|r| r.p(50.0));
    let p50_high = per_pass(HIGH_RUNG, &|r| r.p(50.0));
    let p99_high = per_pass(HIGH_RUNG, &|r| r.p(99.0));
    let tail = per_pass(TAIL_RUNG, &|r| r.p(95.0));
    let named = vec![
        Metric::median_of("setup_s", "s", setup_s.clone()),
        Metric::median_of("p50_ms_low", "ms", p50_low.clone()),
        Metric::median_of("p99_ms_low", "ms", per_pass(LOW_RUNG, &|r| r.p(99.0))),
        Metric::median_of("p50_ms_high", "ms", p50_high.clone()),
        Metric::median_of("p99_ms_high", "ms", p99_high),
        Metric::median_of("max_rate_rps", "1/s", max_rates),
        Metric::median_of("capacity_rps", "1/s", capacity.clone()),
        Metric::single("fail_frac", "ratio", failed as f64 / total as f64),
    ];
    let e2e = vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric::median_of("throughput_per_s", "1/s", capacity),
        Metric::median_of("p50_ms", "ms", p50_low),
        Metric::median_of("tail_ms", "ms", tail),
        Metric::single("mean_error_m", "m", mean_error),
        Metric::single("worst_error_m", "m", worst_error),
    ];
    for r in rungs.iter().flatten() {
        eprintln!(
            "rung {:>5} rps: sent {:>6} p50 {:>8.3} ms p90 {:>8.3} ms p99 {:>8.3} ms capacity {:>8.1}/s late p99 {:>7.3} ms failed {} growing {}",
            r.rate,
            r.sent,
            r.p(50.0),
            r.p(90.0),
            r.p(99.0),
            r.capacity(),
            percentile(&r.late_ms, 99.0),
            r.failed,
            r.growing
        );
    }

    Phase {
        attempted: total as u64,
        failed: failed as u64,
        checks,
        digest: crate::report::digest(out.as_bytes()),
        op_s: median(&p50_high) * 1e-3,
        passes: 1,
        named,
        e2e,
        extras,
    }
}

/// One rung's window of a ladder pass: the server's health counters and
/// the trace clock before and after it.
struct Window {
    before: HealthReport,
    after: HealthReport,
    from_ns: u64,
    to_ns: u64,
}

/// Per-layer numbers of one ladder rate over all its passes:
/// wrapped-inference spans inside the rung's windows, client codec spans,
/// generator lateness and the deltas of the server's health counters.
fn rung_layers(rate: u32, windows: &[Window], rungs: &[Rung]) -> Vec<Metric> {
    let spans = trace::snapshot();
    let inside = |prefix: &str| -> Vec<trace::Span> {
        spans
            .iter()
            .filter(|s| {
                s.name.starts_with(prefix)
                    && windows
                        .iter()
                        .any(|w| s.start_ns >= w.from_ns && s.end_ns <= w.to_ns)
            })
            .cloned()
            .collect()
    };
    let infer = inside("serve.predict.");
    let codec_s: f64 = inside("serve.encode")
        .iter()
        .chain(&inside("serve.decode"))
        .map(trace::Span::secs)
        .sum();
    let infer_us: Vec<f64> = infer.iter().map(|s| s.secs() * 1e6).collect();
    let rows: u64 = infer.iter().map(|s| s.rows).sum();
    let sent: usize = rungs.iter().map(|r| r.sent).sum();
    let late_ms: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let delta = |f: &dyn Fn(&HealthReport) -> u64| -> f64 {
        windows
            .iter()
            .map(|w| (f(&w.after) - f(&w.before)) as f64)
            .sum()
    };
    let p99: Vec<f64> = rungs.iter().map(|r| r.p(99.0)).collect();
    let name = |metric: &str| format!("serve.r{rate}.{metric}");
    let gen = |metric: &str| format!("gen.r{rate}.{metric}");
    vec![
        Metric::single(&name("p99_ms"), "ms", median(&p99)),
        Metric::single(&name("infer_calls"), "count", infer.len() as f64),
        Metric::single(
            &name("batch_rows_mean"),
            "rows",
            rows as f64 / infer.len().max(1) as f64,
        ),
        Metric::single(&name("infer_us_p50"), "us", percentile(&infer_us, 50.0)),
        Metric::single(&name("infer_us_p99"), "us", percentile(&infer_us, 99.0)),
        Metric::single(&name("codec_us"), "us", codec_s * 1e6 / sent.max(1) as f64),
        Metric::single(&name("batches"), "count", delta(&|h| h.batches)),
        Metric::single(
            &name("queue_peak"),
            "count",
            windows
                .iter()
                .map(|w| w.after.queue_peak)
                .max()
                .unwrap_or(0) as f64,
        ),
        Metric::single(&name("shed"), "count", delta(&|h| h.shed)),
        Metric::single(&name("degraded"), "count", delta(&|h| h.degraded)),
        Metric::single(
            &name("deadline_expired"),
            "count",
            delta(&|h| h.deadline_expired),
        ),
        Metric::single(&gen("late_ms_p99"), "ms", percentile(&late_ms, 99.0)),
        Metric::single(
            &gen("late_ms_max"),
            "ms",
            late_ms.iter().copied().fold(0.0, f64::max),
        ),
    ]
}
