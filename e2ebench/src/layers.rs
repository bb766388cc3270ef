//! The per-layer metric catalogue and how each is derived from the traced
//! run's spans and counters.
//!
//! Every workload reports the whole catalogue; a layer a workload does not
//! exercise reads 0 there. Times are wall seconds unless the unit is
//! `thread-s` (summed over the threads that ran the calls).

use crate::report::Metric;
use crate::serve::LADDER;
use crate::trace::{count, total_secs, Span};

/// The sweep suite's members, in figure order.
const MEMBERS: [&str; 9] = [
    "CALLOC", "NC", "AdvLoc", "SANGRIA", "ANVIL", "WiDeep", "KNN", "GPC", "DNN",
];

/// Members that hand out input gradients, plus the surrogate (SANGRIA and
/// KNN are attacked by transfer, so they never appear here).
const GRADIENT_SOURCES: [&str; 8] = [
    "CALLOC",
    "NC",
    "AdvLoc",
    "ANVIL",
    "WiDeep",
    "GPC",
    "DNN",
    "surrogate",
];

/// Per-rung serve metrics and their units.
const SERVE_METRICS: [(&str, &str); 11] = [
    ("p99_ms", "ms"),
    ("infer_calls", "count"),
    ("batch_rows_mean", "rows"),
    ("infer_us_p50", "us"),
    ("infer_us_p99", "us"),
    ("codec_us", "us"),
    ("batches", "count"),
    ("queue_peak", "count"),
    ("shed", "count"),
    ("degraded", "count"),
    ("deadline_expired", "count"),
];

/// Per-rung load-generator metrics and their units.
const GENERATOR_METRICS: [(&str, &str); 2] = [("late_ms_p99", "ms"), ("late_ms_max", "ms")];

/// Every per-layer metric: name and unit.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("sim.scenarios_s".into(), "s"),
        ("sim.trajectories_s".into(), "s"),
        ("suite.train_s".into(), "s"),
    ];
    for m in MEMBERS.iter().chain(&["surrogate"]) {
        names.push((format!("train.{m}_s"), "s"));
    }
    for (name, unit) in [
        ("cache.open_s", "s"),
        ("cache.restore_s", "s"),
        ("cache.checkpoint_s", "s"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.bytes", "bytes"),
        ("attack.grad_calls", "count"),
        ("attack.grad_ts", "thread-s"),
    ] {
        names.push((name.into(), unit));
    }
    for m in GRADIENT_SOURCES {
        names.push((format!("attack.grad_calls.{m}"), "count"));
        names.push((format!("attack.grad_ts.{m}"), "thread-s"));
    }
    names.push(("eval.predict_calls".into(), "count"));
    names.push(("eval.predict_rows".into(), "rows"));
    for m in MEMBERS {
        names.push((format!("eval.predict_ts.{m}"), "thread-s"));
    }
    for (name, unit) in [
        ("sweep.run_s", "s"),
        ("sweep.cells", "count"),
        ("sweep.busy_frac", "ratio"),
        ("report.csv_s", "s"),
    ] {
        names.push((name.into(), unit));
    }
    for rate in LADDER {
        for (metric, unit) in SERVE_METRICS {
            names.push((format!("serve.r{rate}.{metric}"), unit));
        }
        for (metric, unit) in GENERATOR_METRICS {
            names.push((format!("gen.r{rate}.{metric}"), unit));
        }
    }
    for (name, unit) in [
        ("track.sweep_s", "s"),
        ("track.member_ts", "thread-s"),
        ("track.decode_s", "s"),
        ("baselines.fit_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.reconcile_frac", "ratio"),
    ] {
        names.push((name.into(), unit));
    }
    names
}

/// Derives the catalogue from the traced run: counters the workload
/// measured itself (`extras`) win; the rest come from the spans.
pub fn compute(spans: &[Span], extras: &[Metric], threads: usize) -> Vec<Metric> {
    let secs = |name: &str| total_secs(spans, |n| n == name);
    let secs_prefix = |prefix: &str| total_secs(spans, |n| n.starts_with(prefix));
    let calls = |prefix: &str| count(spans, |n| n.starts_with(prefix)) as f64;
    let sweep_run = secs("sweep.run");
    let eval_ts = secs_prefix("eval.");
    let track_sweep = secs("track.sweep");
    let member_ts = secs_prefix("track.predict.") + secs_prefix("track.logits.");
    catalogue()
        .into_iter()
        .map(|(name, unit)| {
            if let Some(m) = extras.iter().find(|m| m.name == name) {
                return Metric::single(&name, unit, m.value);
            }
            let value = match name.as_str() {
                "sim.scenarios_s" => secs("sim.scenarios"),
                "sim.trajectories_s" => secs("sim.trajectories"),
                "suite.train_s" => secs_prefix("train."),
                "cache.open_s" => secs("cache.open"),
                "cache.restore_s" => secs("cache.restore"),
                "cache.checkpoint_s" => secs("cache.checkpoint"),
                "attack.grad_calls" => calls("eval.grad."),
                "attack.grad_ts" => secs_prefix("eval.grad."),
                "eval.predict_calls" => calls("eval.predict."),
                "eval.predict_rows" => spans
                    .iter()
                    .filter(|s| s.name.starts_with("eval.predict."))
                    .map(|s| s.rows as f64)
                    .sum(),
                "sweep.run_s" => sweep_run,
                "sweep.busy_frac" if sweep_run > 0.0 => eval_ts / (sweep_run * threads as f64),
                "report.csv_s" => secs("report.csv"),
                "track.sweep_s" => track_sweep,
                "track.member_ts" => member_ts,
                "track.decode_s" => (track_sweep - member_ts / threads as f64).max(0.0),
                "baselines.fit_s" => secs("baselines.fit"),
                other => {
                    if let Some(m) = other
                        .strip_prefix("train.")
                        .and_then(|m| m.strip_suffix("_s"))
                    {
                        secs(&format!("train.{m}"))
                    } else if let Some(m) = other.strip_prefix("attack.grad_calls.") {
                        calls(&format!("eval.grad.{m}"))
                    } else if let Some(m) = other.strip_prefix("attack.grad_ts.") {
                        secs(&format!("eval.grad.{m}"))
                    } else if let Some(m) = other.strip_prefix("eval.predict_ts.") {
                        secs(&format!("eval.predict.{m}")) + secs(&format!("eval.logits.{m}"))
                    } else {
                        0.0
                    }
                }
            };
            Metric::single(&name, unit, value)
        })
        .collect()
}
