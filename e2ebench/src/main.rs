//! End-to-end benchmark of the CALLOC reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sweep_cold|sweep_warm|serve_open|trajectory> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload generates its inputs from
//! the seed, measures for the given seconds, checks its outputs, and prints
//! a human-readable report, a provenance line, and as its last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run measures untraced first, then again with every call into the
//! program timed from outside (see `trace` and `timed`), and the metrics
//! are the per-layer catalogue (see `layers`). Scratch files and the span
//! log go to `.bench_out/`. Any failed output check exits with code 1.
//!
//! End-to-end metrics, the same names on every workload:
//!
//! | metric             | sweep_cold / sweep_warm      | serve_open                    | trajectory             |
//! |--------------------|------------------------------|-------------------------------|------------------------|
//! | `setup_s`          | collect grid (+ fill cache)  | train registry, bind server   | buildings + surveys    |
//! | `throughput_per_s` | attack cells per second      | replies/s when saturated      | decoded steps per second |
//! | `p50_ms`           | median pass (figure) time    | p50 latency at 200 rps        | median pass time       |
//! | `tail_ms`          | slowest pass                 | p95 latency at 1000 rps       | slowest pass           |
//! | `peak_rss_mb`      | peak resident memory         | same                          | same                   |
//! | `mean_error_m`     | CALLOC mean attacked error   | mean error of served answers  | mean filtered error    |
//! | `worst_error_m`    | CALLOC worst case, cell mean | mean of the worst 1% answers  | worst decoder, per step |
//!
//! Serve latencies and rates are medians over five passes of the rate
//! ladder; sweep and trajectory times are medians over passes of the whole
//! pipeline. `setup_s` is the median of repeated set-ups.

mod layers;
mod report;
mod serve;
mod sweep;
mod timed;
mod trace;
mod traj;

use std::path::PathBuf;
use std::time::Instant;

use calloc_tensor::par;

use report::{metrics_object, spread_object, string, Metric};

/// `CALLOC_THREADS`, pinned so results compare across machines.
const THREADS: usize = 2;

/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

/// Least total set-up time per untraced run, in seconds.
const SETUP_FLOOR_S: f64 = 1.0;

/// Fewest measured passes per run, however long a pass takes.
const MIN_PASSES: usize = 4;

/// The seed and run length whose output digests are recorded in
/// `expected.json` (the serve schedule, and so its output, depends on the
/// run length too).
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;

/// Largest share of the traced run's wall time its top-level spans may
/// leave uncovered.
const RECONCILE_LIMIT: f64 = 0.05;

/// Output digests at [`DEFAULT_SEED`], one per workload.
const EXPECTED: &str = include_str!("../expected.json");

const WORKLOADS: [&str; 4] = ["sweep_cold", "sweep_warm", "serve_open", "trajectory"];

/// Settings shared by the workloads.
pub struct Run {
    seed: u64,
    seconds: f64,
    nproc: usize,
    out_dir: PathBuf,
    /// The traced phase: one set-up and one pass.
    traced: bool,
}

impl Run {
    /// Whether to set up again: at least [`SETUP_RUNS`] times and for
    /// [`SETUP_FLOOR_S`] in all, so a fast set-up still has a steady
    /// median; once when traced.
    fn more_setups(&self, done: &[f64]) -> bool {
        if self.traced {
            return done.is_empty();
        }
        done.len() < SETUP_RUNS || done.iter().sum::<f64>() < SETUP_FLOOR_S
    }

    /// Whether to measure another pass: at least [`MIN_PASSES`] and until
    /// the run's seconds are spent; one when traced.
    fn more_passes(&self, done: usize, begin: Instant) -> bool {
        if self.traced {
            return done == 0;
        }
        done < MIN_PASSES || begin.elapsed().as_secs_f64() < self.seconds
    }
}

/// One output check.
#[derive(Clone)]
pub struct Check {
    name: String,
    passed: bool,
    detail: String,
}

impl Check {
    fn new(name: &str, passed: bool, detail: &str) -> Check {
        Check {
            name: name.to_string(),
            passed,
            detail: detail.to_string(),
        }
    }
}

/// What one measured phase of a workload produced.
pub struct Phase {
    /// Operations attempted and failed (cells, records or requests).
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    /// Digest of the phase's output bytes.
    digest: String,
    /// A representative operation time, for the tracing overhead.
    op_s: f64,
    /// Measured passes.
    passes: usize,
    /// The workload's own metrics, under their workload-specific names.
    named: Vec<Metric>,
    /// The end-to-end metrics (without `peak_rss_mb`, added by `main`).
    e2e: Vec<Metric>,
    /// Per-layer counters the workload measured itself.
    extras: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(workload: &str, run: &Run) -> Phase {
    match workload {
        "sweep_cold" => sweep::run(sweep::Cache::Cold, run),
        "sweep_warm" => sweep::run(sweep::Cache::Warm, run),
        "serve_open" => serve::run(run),
        _ => traj::run(run),
    }
}

/// Peak resident set size of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The recorded digest of `workload`, from `"workload": "hex"`.
fn expected_digest(workload: &str) -> Option<&'static str> {
    let key = format!("\"{workload}\"");
    let rest = &EXPECTED[EXPECTED.find(&key)? + key.len()..];
    let start = rest.find('"')? + 1;
    let len = rest[start..].find('"')?;
    Some(&rest[start..start + len])
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(
            || "none (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        )
}

/// The traced phase: runs the workload again with every call into the
/// program timed, checks its outputs against the untraced phase and its
/// spans against its wall time, writes the span log, and returns the
/// per-layer metrics with the phase's attempted and failed counts.
fn traced_phase(
    args: &Args,
    run: &Run,
    untraced: &Phase,
    checks: &mut Vec<Check>,
) -> (Vec<Metric>, u64, u64) {
    trace::enable();
    let start = Instant::now();
    let traced = trace::stage("traced_run", || run_workload(&args.workload, run));
    let wall = start.elapsed().as_secs_f64();
    let all_spans = trace::take();
    // Output checks re-run work; keep them out of the per-layer numbers.
    let checks_at: Vec<(u64, u64)> = all_spans
        .iter()
        .filter(|s| &*s.name == "check")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let spans: Vec<trace::Span> = all_spans
        .iter()
        .filter(|s| {
            &*s.name == "check"
                || !checks_at
                    .iter()
                    .any(|&(a, b)| s.start_ns >= a && s.end_ns <= b)
        })
        .cloned()
        .collect();
    checks.extend(traced.checks.iter().map(|c| Check {
        name: format!("traced.{}", c.name),
        ..c.clone()
    }));
    checks.push(Check::new(
        "traced_equals_untraced",
        traced.digest == untraced.digest,
        &format!(
            "traced digest {} vs untraced {}",
            traced.digest, untraced.digest
        ),
    ));
    // The run's children must cover its wall time.
    let root = spans
        .iter()
        .find(|s| &*s.name == "traced_run")
        .expect("the root span");
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == root.id)
        .map(trace::Span::secs)
        .sum();
    let uncovered = (1.0 - covered / wall).abs();
    checks.push(Check::new(
        "spans_reconcile",
        uncovered <= RECONCILE_LIMIT,
        &format!(
            "top-level spans cover {covered:.3} s of {wall:.3} s (limit {:.0}% uncovered)",
            RECONCILE_LIMIT * 100.0
        ),
    ));
    let mut extras = traced.extras.clone();
    extras.push(Metric::single(
        "trace.overhead_frac",
        "ratio",
        traced.op_s / untraced.op_s - 1.0,
    ));
    extras.push(Metric::single("trace.reconcile_frac", "ratio", uncovered));
    let path = run
        .out_dir
        .join(format!("spans_{}_seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = trace::write_jsonl(&all_spans, &path) {
        eprintln!("e2ebench: cannot write {}: {e}", path.display());
    }
    (
        layers::compute(&spans, &extras, THREADS),
        traced.attempted,
        traced.failed,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    par::set_threads(THREADS);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).expect("create .bench_out");
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        out_dir,
        traced: false,
    };

    let untraced = run_workload(&args.workload, &run);
    let rss = peak_rss_mb();
    let mut checks = untraced.checks.clone();
    if args.seed == DEFAULT_SEED && args.seconds == DEFAULT_SECONDS {
        let expected = expected_digest(&args.workload).unwrap_or("none");
        checks.push(Check::new(
            "default_seed_digest",
            expected == untraced.digest,
            &format!("output digest {} (recorded {expected})", untraced.digest),
        ));
    }

    let mut metrics = untraced.e2e.clone();
    metrics.push(Metric::single("peak_rss_mb", "MB", rss));
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;

    if args.trace {
        run.traced = true;
        let traced = traced_phase(&args, &run, &untraced, &mut checks);
        metrics = traced.0;
        attempted += traced.1;
        failed += traced.2;
    }

    let correct = checks.iter().all(|c| c.passed);

    // Human-readable report: the workload's own metrics, then the
    // end-to-end ones the last line carries.
    println!(
        "workload {} seed {} ({} passes)",
        args.workload, args.seed, untraced.passes
    );
    for m in untraced.named.iter().chain(&untraced.e2e) {
        println!(
            "  {:<22} {:>14.4} {:<6} spread {:.4} over {}",
            m.name,
            m.value,
            m.unit,
            report::spread(&m.samples),
            m.samples.len()
        );
    }
    println!("  {:<22} {:>14.4} MB", "peak_rss_mb", rss);
    if args.trace {
        for m in &metrics {
            println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    for c in &checks {
        println!(
            "  check {:<28} {} — {}",
            c.name,
            if c.passed { "ok" } else { "FAILED" },
            c.detail
        );
    }

    let provenance = format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"calloc_threads\": {}, \"rustc\": {}, \"git_commit\": {}, \"runs\": {}, \
         \"setup_runs\": {}, \"digest\": {}, \"metrics\": {}, \"end_to_end\": {}}}}}",
        string(&args.workload),
        args.seed,
        args.trace,
        nproc,
        THREADS,
        string(env!("E2EBENCH_RUSTC")),
        string(&git_commit()),
        untraced.passes,
        untraced
            .e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .map_or(0, |m| m.samples.len()),
        string(&untraced.digest),
        spread_object(&untraced.named),
        spread_object(&untraced.e2e),
    );
    println!("{provenance}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        attempted.max(1),
        failed,
        metrics_object(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
