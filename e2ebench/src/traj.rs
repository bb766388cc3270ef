//! The `trajectory` workload: sequential inference over the full-profile
//! trajectory grid.
//!
//! Inputs: the five Table II buildings walked under the paper motion prior
//! at three path lengths and two environment levels, over sixteen walk
//! seeds derived from the workload seed, plus the figure's pinned fingerprint
//! survey of each building (`TRAJECTORY_TRAIN_SEED`), so the seed varies
//! the walks being decoded. Set-up realizes the buildings and collects the
//! surveys. One pass
//! simulates the walks, fits KNN and GPC on the surveys, runs member
//! inference on every sequence through the HMM filter and smoother, and
//! renders the CSV.

use std::time::Instant;

use calloc_baselines::{GpcConfig, GpcLocalizer, KnnLocalizer};
use calloc_bench::{trajectory_grid, Profile, TRAJECTORY_TRAIN_SEED};
use calloc_eval::Localizer;
use calloc_sim::{Scenario, TrajectoryPlan};
use calloc_track::{run_trajectory_sweep, TrackConfig, TrajectoryTable};

use crate::report::{median, Metric};
use crate::timed::Timed;
use crate::trace::{self, span, stage};
use crate::{Check, Phase, Run};

/// Walk seeds per pass: enough walks that the error metrics, which a few
/// walks where the filter loses track dominate, move little between seeds.
const WALK_SEEDS: u64 = 16;

/// What one pass produced.
struct PassOutput {
    table: TrajectoryTable,
    csv: String,
    steps: usize,
}

/// Fits the member pair of one building on its survey.
fn fit(survey: &Scenario, num_rps: usize) -> (KnnLocalizer, GpcLocalizer) {
    let train = &survey.train;
    let knn = KnnLocalizer::fit(train.x.clone(), train.labels.clone(), num_rps, 3);
    let gpc = GpcLocalizer::fit(
        train.x.clone(),
        train.labels.clone(),
        num_rps,
        GpcConfig::default(),
    )
    .expect("survey gram matrices are SPD under the default noise");
    (knn, gpc)
}

fn pass(plan: &TrajectoryPlan, surveys: &[Scenario]) -> PassOutput {
    let set = span("sim.trajectories", || plan.clone().generate());
    let trained: Vec<(KnnLocalizer, GpcLocalizer)> = span("baselines.fit", || {
        plan.buildings()
            .iter()
            .zip(surveys)
            .map(|(building, survey)| fit(survey, building.num_rps()))
            .collect()
    });
    let config = TrackConfig::paper();
    let table = if trace::enabled() {
        let wrapped: Vec<[Timed<&dyn Localizer>; 2]> = trained
            .iter()
            .map(|(knn, gpc)| {
                [
                    Timed::new("track", "KNN", knn as &dyn Localizer),
                    Timed::new("track", "GPC", gpc as &dyn Localizer),
                ]
            })
            .collect();
        let members: Vec<Vec<(&str, &dyn Localizer)>> = wrapped
            .iter()
            .map(|[knn, gpc]| {
                vec![
                    ("KNN", knn as &dyn Localizer),
                    ("GPC", gpc as &dyn Localizer),
                ]
            })
            .collect();
        span("track.sweep", || {
            run_trajectory_sweep(&set, &members, &config)
        })
    } else {
        let members: Vec<Vec<(&str, &dyn Localizer)>> = trained
            .iter()
            .map(|(knn, gpc)| {
                vec![
                    ("KNN", knn as &dyn Localizer),
                    ("GPC", gpc as &dyn Localizer),
                ]
            })
            .collect();
        run_trajectory_sweep(&set, &members, &config)
    };
    let csv = span("track.csv", || table.to_csv());
    PassOutput {
        steps: set.trajectories().iter().map(|t| t.len()).sum(),
        table,
        csv,
    }
}

/// Runs the trajectory workload for `seconds` of passes.
pub fn run(run: &Run) -> Phase {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut inputs = None;
    while run.more_setups(&setup_s) {
        let start = Instant::now();
        inputs = Some(stage("setup", || {
            let seeds = (0..WALK_SEEDS).map(|k| run.seed * WALK_SEEDS + k).collect();
            let plan = span("sim.buildings", || {
                trajectory_grid(Profile::Full).with_seeds(seeds).plan()
            });
            let base = plan.spec().base.clone();
            let surveys: Vec<Scenario> = span("sim.scenarios", || {
                plan.buildings()
                    .iter()
                    .map(|b| Scenario::generate(b, &base, TRAJECTORY_TRAIN_SEED))
                    .collect()
            });
            (plan, surveys)
        }));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (plan, surveys) = inputs.expect("at least one set-up");

    let mut pass_s = Vec::new();
    let mut outputs: Vec<PassOutput> = Vec::new();
    let begin = Instant::now();
    while run.more_passes(pass_s.len(), begin) {
        let start = Instant::now();
        outputs.push(stage("pass", || pass(&plan, &surveys)));
        pass_s.push(start.elapsed().as_secs_f64());
    }

    let first = &outputs[0];
    let checks = vec![Check::new(
        "passes_identical",
        outputs.iter().all(|o| o.csv == first.csv),
        "every pass renders the same trajectory CSV",
    )];
    let filtered: Vec<f64> = first
        .table
        .rows()
        .iter()
        .filter(|r| r.mode == "filtered")
        .map(|r| r.mean_error_m)
        .collect();
    let mean_error = filtered.iter().sum::<f64>() / filtered.len() as f64;
    // The worst decoder's error per step: the highest, over the raw,
    // filtered and smoothed estimators, of the mean over every decoded step.
    let worst_error = ["raw", "filtered", "smoothed"]
        .into_iter()
        .map(|mode| {
            let rows = first.table.rows().iter().filter(|r| r.mode == mode);
            let (sum, steps) = rows.fold((0.0, 0.0), |(sum, steps), r| {
                let n = r.path_steps as f64;
                (sum + r.mean_error_m * n, steps + n)
            });
            sum / steps
        })
        .fold(0.0, f64::max);

    let steps = first.steps as f64;
    let steps_per_s: Vec<f64> = pass_s.iter().map(|s| steps / s).collect();
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    let slowest = pass_ms.iter().copied().fold(0.0, f64::max);

    let named = vec![
        Metric::median_of("setup_s", "s", setup_s.clone()),
        Metric::median_of("steps_per_s", "1/s", steps_per_s.clone()),
        Metric::single("traj_mean_error_m", "m", mean_error),
    ];
    let e2e = vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric::median_of("throughput_per_s", "1/s", steps_per_s),
        Metric::median_of("p50_ms", "ms", pass_ms),
        Metric::single("tail_ms", "ms", slowest),
        Metric::single("mean_error_m", "m", mean_error),
        Metric::single("worst_error_m", "m", worst_error),
    ];

    Phase {
        attempted: (first.table.len() * outputs.len()) as u64,
        failed: 0,
        checks,
        digest: crate::report::digest(first.csv.as_bytes()),
        op_s: median(&pass_s),
        passes: outputs.len(),
        named,
        e2e,
        extras: vec![Metric::single("track.steps", "count", steps)],
    }
}
