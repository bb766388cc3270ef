//! The `sweep_cold` and `sweep_warm` workloads: the figure pipeline.
//!
//! Inputs: the quick-profile scenario grid (two shrunken buildings, all six
//! devices) collected under the workload seed. One *pass* trains the whole
//! suite — CALLOC at the paper's width, NC, AdvLoc, SANGRIA, ANVIL, WiDeep,
//! KNN, GPC, DNN and the transfer-attack surrogate — through an on-disk
//! `ModelCache`, runs the attack sweep (3 kinds × ε × ø, every device) and
//! renders the CSV.
//!
//! * `sweep_cold` starts every pass from an empty cache file, so training
//!   and cache writes do real work. Set-up collects the scenario grid.
//! * `sweep_warm` reruns the pass against the cache its set-up populated,
//!   so the members are restored and attack crafting and evaluation
//!   dominate. Set-up collects the grid and populates the cache.

use std::path::{Path, PathBuf};
use std::time::Instant;

use calloc::CallocConfig;
use calloc_bench::{scenario_grid, suite_profile, sweep_spec, Profile};
use calloc_eval::{
    run_sweep, DifferentiableModel, Localizer, ModelCache, ResultTable, Suite, SuiteProfile,
    SweepSpec,
};
use calloc_sim::ScenarioSet;

use crate::report::{median, Metric};
use crate::timed::{Timed, TimedGrad};
use crate::trace::{self, span, stage};
use crate::{Check, Phase, Run};

/// Which sweep workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// Every pass trains into an empty cache.
    Cold,
    /// Every pass restores from the cache set-up populated.
    Warm,
}

/// The suite every pass trains: the bench quick profile with CALLOC at
/// the paper's width, the NC ablation and the classical baselines.
fn profile() -> SuiteProfile {
    let mut profile = suite_profile(Profile::Quick);
    profile.calloc = CallocConfig {
        epochs_per_lesson: profile.calloc.epochs_per_lesson,
        ..CallocConfig::default()
    };
    profile.include_nc = true;
    profile.include_classical = true;
    profile
}

/// The scenario grid of a seed.
fn collect(seed: u64) -> ScenarioSet {
    span("sim.scenarios", || {
        scenario_grid(Profile::Quick)
            .with_seeds(vec![seed])
            .generate()
    })
}

/// What one pass produced.
struct PassOutput {
    csv: String,
    cells: usize,
    /// CALLOC's attacked error: mean, worst case over every cell, and the
    /// mean over cells of each cell's worst case.
    errors: (f64, f64, f64),
    hits: u64,
    misses: u64,
}

/// One pass over the grid through the cache at `path`. With tracing on,
/// a cold pass trains the members one at a time (the surrogate trains in
/// the `train_cached` call that then restores the members), and every
/// model is wrapped, so the spans attribute the pass to members and calls.
fn pass(
    kind: Cache,
    set: &ScenarioSet,
    profile: &SuiteProfile,
    spec: &SweepSpec,
    path: &Path,
) -> PassOutput {
    let traced = trace::enabled();
    let mut cache = span("cache.open", || ModelCache::open(path)).expect("open the model cache");
    let mut table = ResultTable::new();
    for index in 0..set.len() {
        let scenario = set.scenario(index);
        let cell = set.cell_identity(index);
        let mut train_suite =
            || Suite::train_cached(scenario, profile, &cell, &mut cache).expect("train the suite");
        let suite = match (traced, kind) {
            (false, _) => train_suite(),
            (true, Cache::Warm) => span("cache.restore", train_suite),
            (true, Cache::Cold) => {
                for name in Suite::member_names(scenario, profile) {
                    span(&format!("train.{name}"), || {
                        Suite::train_member_cached(scenario, profile, name, &cell, &mut cache)
                    })
                    .expect("train a member");
                }
                span("train.surrogate", || {
                    Suite::train_cached(scenario, profile, &cell, &mut cache)
                })
                .expect("train the surrogate")
            }
        };
        if traced {
            span("cache.checkpoint", || cache.checkpoint()).expect("checkpoint the cache");
        }
        let datasets = Suite::set_datasets(set, index);
        let part = if traced {
            let wrapped: Vec<Timed<&dyn Localizer>> = suite
                .members
                .iter()
                .map(|m| Timed::new("eval", &m.name, m.model.as_ref()))
                .collect();
            let members: Vec<(&str, &dyn Localizer)> = suite
                .members
                .iter()
                .zip(&wrapped)
                .map(|(m, w)| (m.name.as_str(), w as &dyn Localizer))
                .collect();
            let surrogate = TimedGrad::new("eval", "surrogate", suite.surrogate());
            span("sweep.run", || {
                run_sweep(
                    &members,
                    Some(&surrogate as &dyn DifferentiableModel),
                    &datasets,
                    spec,
                )
            })
        } else {
            suite.sweep(&datasets, spec)
        };
        table.extend(part);
    }
    let csv = span("report.csv", || table.to_csv());
    let calloc: Vec<f64> = table
        .rows()
        .iter()
        .filter(|r| r.framework == "CALLOC")
        .map(|r| r.max_error_m)
        .collect();
    let errors = (
        table
            .mean_where(|r| r.framework == "CALLOC")
            .expect("CALLOC rows"),
        table
            .max_where(|r| r.framework == "CALLOC")
            .expect("CALLOC rows"),
        calloc.iter().sum::<f64>() / calloc.len() as f64,
    );
    PassOutput {
        cells: table.len(),
        csv,
        errors,
        hits: cache.hits(),
        misses: cache.misses(),
    }
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// Runs a sweep workload for `seconds` of passes.
pub fn run(kind: Cache, run: &Run) -> Phase {
    let profile = profile();
    let spec = sweep_spec(Profile::Quick);
    let dir = run.out_dir.join(match kind {
        Cache::Cold => "sweep_cold",
        Cache::Warm => "sweep_warm",
    });
    std::fs::create_dir_all(&dir).expect("create the cache directory");
    let cache_path = |i: usize| -> PathBuf { dir.join(format!("models_{i}.bin")) };

    // Set-up, repeated: collect the grid (and, warm, populate the cache).
    let mut setup_s: Vec<f64> = Vec::new();
    let mut set = None;
    let mut i = 0;
    while run.more_setups(&setup_s) {
        if i > 0 {
            remove(&cache_path(i - 1));
        }
        remove(&cache_path(i));
        let start = Instant::now();
        let grid = stage("setup", || {
            let grid = collect(run.seed);
            if kind == Cache::Warm {
                let mut cache = ModelCache::open(&cache_path(i)).expect("open the model cache");
                for index in 0..grid.len() {
                    span("suite.populate", || {
                        Suite::train_cached(
                            grid.scenario(index),
                            &profile,
                            &grid.cell_identity(index),
                            &mut cache,
                        )
                    })
                    .expect("populate the cache");
                }
            }
            grid
        });
        setup_s.push(start.elapsed().as_secs_f64());
        set = Some(grid);
        i += 1;
    }
    let set = set.expect("at least one set-up");
    let warm_path = cache_path(i - 1);

    // Timed passes.
    let mut pass_s = Vec::new();
    let mut outputs: Vec<PassOutput> = Vec::new();
    let begin = Instant::now();
    while run.more_passes(pass_s.len(), begin) {
        let path = match kind {
            Cache::Cold => {
                let path = dir.join("models_cold.bin");
                remove(&path);
                path
            }
            Cache::Warm => warm_path.clone(),
        };
        let start = Instant::now();
        let out = stage("pass", || pass(kind, &set, &profile, &spec, &path));
        pass_s.push(start.elapsed().as_secs_f64());
        outputs.push(out);
    }

    // Checks: every pass rendered the same bytes; cold and warm agree.
    let mut checks = Vec::new();
    let first = &outputs[0];
    checks.push(Check::new(
        "passes_identical",
        outputs.iter().all(|o| o.csv == first.csv),
        "every pass renders the same sweep CSV",
    ));
    if kind == Cache::Cold {
        let warm = stage("check", || {
            pass(
                Cache::Warm,
                &set,
                &profile,
                &spec,
                &dir.join("models_cold.bin"),
            )
        });
        checks.push(Check::new(
            "cold_equals_warm",
            warm.csv == first.csv && warm.misses == 0,
            "a warm rerun against the cold cache renders the same CSV and trains nothing",
        ));
    } else {
        checks.push(Check::new(
            "warm_restores_everything",
            outputs.iter().all(|o| o.misses == 0),
            "warm passes train nothing",
        ));
    }

    let (mean_error, worst_error, mean_worst_error) = first.errors;

    let cells = first.cells as f64;
    let cells_per_s: Vec<f64> = pass_s.iter().map(|s| cells / s).collect();
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    let slowest = pass_ms.iter().copied().fold(0.0, f64::max);

    let named = vec![
        Metric::median_of("setup_s", "s", setup_s.clone()),
        Metric::median_of("cells_per_s", "1/s", cells_per_s.clone()),
        Metric::single("calloc_mean_error_m", "m", mean_error),
        Metric::single("calloc_worst_error_m", "m", worst_error),
    ];

    let e2e = vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric::median_of("throughput_per_s", "1/s", cells_per_s),
        Metric::median_of("p50_ms", "ms", pass_ms.clone()),
        Metric::single("tail_ms", "ms", slowest),
        Metric::single("mean_error_m", "m", mean_error),
        Metric::single("worst_error_m", "m", mean_worst_error),
    ];

    let last = outputs.last().expect("at least one pass");
    let extras = vec![
        Metric::single("cache.hits", "count", last.hits as f64),
        Metric::single("cache.misses", "count", last.misses as f64),
        Metric::single(
            "cache.bytes",
            "bytes",
            std::fs::metadata(match kind {
                Cache::Cold => dir.join("models_cold.bin"),
                Cache::Warm => warm_path,
            })
            .map_or(0.0, |m| m.len() as f64),
        ),
        Metric::single("sweep.cells", "count", cells),
    ];

    Phase {
        attempted: (first.cells * outputs.len()) as u64,
        failed: 0,
        checks,
        digest: crate::report::digest(first.csv.as_bytes()),
        op_s: median(&pass_s),
        passes: outputs.len(),
        named,
        e2e,
        extras,
    }
}
