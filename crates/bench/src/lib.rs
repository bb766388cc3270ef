//! # calloc-bench
//!
//! Shared infrastructure for the table/figure regeneration binaries and
//! the Criterion micro-benchmarks.
//!
//! Every binary honours the `CALLOC_PROFILE` environment variable:
//!
//! * `quick` (default) — reduced buildings, grids and epochs; finishes in
//!   seconds to a couple of minutes and preserves every qualitative trend.
//! * `full` — the paper's five buildings, six devices and full (ε, ø)
//!   grids; takes considerably longer.
//!
//! Regeneration targets (see DESIGN.md §3):
//!
//! ```text
//! cargo run -p calloc-bench --release --bin table1
//! cargo run -p calloc-bench --release --bin table2
//! cargo run -p calloc-bench --release --bin fig1
//! cargo run -p calloc-bench --release --bin fig4
//! cargo run -p calloc-bench --release --bin fig5
//! cargo run -p calloc-bench --release --bin fig6
//! cargo run -p calloc-bench --release --bin fig7
//! cargo run -p calloc-bench --release --bin model_size
//! ```

#![deny(missing_docs)]

use calloc::CallocConfig;

use calloc_attack::AttackKind;
use calloc_baselines::{GpcConfig, GpcLocalizer, KnnLocalizer};
use calloc_eval::{
    run_sweep, DifferentiableModel, ExecSpec, Localizer, ModelCache, ResultTable, Suite,
    SuiteProfile, SweepSpec,
};
use calloc_sim::{
    normalize_rss, Building, BuildingId, BuildingSpec, CollectionConfig, Dataset, EnvLevel,
    Scenario, ScenarioSpec, Trajectory, TrajectoryPlan, TrajectorySpec, RSS_FLOOR_DBM,
};
use calloc_tensor::{Matrix, Rng, TensorError};
use calloc_track::{run_trajectory_sweep, TrackConfig, TrajectoryTable};

/// Calibration of the paper's ε to our normalized RSS units.
///
/// Our features map 100 dB of dynamic range onto `[0, 1]`, so ε = 0.1 in
/// raw units would mean a 10 dB distortion of *every targeted AP* — far
/// beyond the "subtle perturbations" the paper describes and larger than
/// the signal differences between adjacent RPs (0.5–3 dB), which would
/// make robust localization information-theoretically impossible for every
/// framework. We therefore map the paper's ε through this factor: paper
/// ε = 0.1 → 2.5 dB of per-AP distortion, which reproduces both the
/// "subtle" threat model and the paper's error magnitudes. Documented in
/// DESIGN.md §4.
pub const EPSILON_UNIT: f64 = 0.25;

/// Maps a paper ε (0.1–0.5) to normalized attack units.
pub fn calibrate_epsilon(paper_epsilon: f64) -> f64 {
    paper_epsilon * EPSILON_UNIT
}

/// The shared trained-model cache of the figure binaries.
///
/// When `CALLOC_MODEL_CACHE` names a directory, the cache persists to
/// `<dir>/bench_models.bin`, so every `(member config, scenario cell)`
/// pair trains **once across figures, sweeps and reruns** — a warm
/// second run of any figure restores its models bit-identically instead
/// of retraining them. Without the variable the cache is in-memory:
/// repeated cells still train once within the process, and the figures'
/// output is byte-identical either way (cached models restore the exact
/// parameter bits the training produced).
///
/// # Panics
///
/// Panics if `CALLOC_MODEL_CACHE` is set but the cache file is corrupt
/// or written under an incompatible key scheme — a stale cache must
/// never silently feed wrong models into a figure.
pub fn model_cache() -> ModelCache {
    match std::env::var_os("CALLOC_MODEL_CACHE") {
        Some(dir) => {
            let path = std::path::Path::new(&dir).join("bench_models.bin");
            match ModelCache::open(&path) {
                Ok(cache) => cache,
                Err(e) => panic!("CALLOC_MODEL_CACHE: {e} (delete the file to rebuild the cache)"),
            }
        }
        None => ModelCache::in_memory(),
    }
}

/// Checkpoints the figure binaries' model cache and reports its traffic
/// on stderr — every binary calls this once, after its last training.
///
/// # Panics
///
/// Panics if the checkpoint write fails (out of disk, permissions): a
/// figure that claims to have populated the cache must actually have.
pub fn finish_model_cache(cache: &ModelCache) {
    if let Err(e) = cache.checkpoint() {
        panic!("CALLOC_MODEL_CACHE checkpoint failed: {e}");
    }
    eprintln!(
        "model cache: {} hits, {} misses, {} models{}",
        cache.hits(),
        cache.misses(),
        cache.len(),
        cache
            .path()
            .map(|p| format!(" at {}", p.display()))
            .unwrap_or_else(|| " (in-memory)".to_string()),
    );
}

/// Runs one figure sweep through the binaries' **persistent result
/// store** when `CALLOC_RESULT_STORE` names a directory, else entirely
/// in memory (bit-identical to plain [`run_sweep`] either way, so the
/// figures and their goldens don't move).
///
/// With the store set, the sweep's plan opens (or creates)
/// `<dir>/<label>.bin` and executes only the cells the store is
/// missing: finished cells survive reruns and interrupted figure runs
/// resume at the last checkpoint, the way trained models already
/// survive through [`model_cache`]. `label` must therefore pin
/// everything that distinguishes the sweep besides the plan fingerprint
/// itself — the binaries use `<fig>_<profile>_<building>`.
///
/// # Panics
///
/// Panics when the store file exists but belongs to a different plan or
/// is unreadable (the message names the file; delete it to recompute),
/// when a store write fails, or when any cell fails permanently.
pub fn run_sweep_stored(
    label: &str,
    members: &[(&str, &dyn Localizer)],
    surrogate: Option<&dyn DifferentiableModel>,
    datasets: &[(String, String, &Dataset)],
    spec: &SweepSpec,
) -> ResultTable {
    let Some(dir) = std::env::var_os("CALLOC_RESULT_STORE") else {
        return run_sweep(members, surrogate, datasets, spec);
    };
    let file: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = std::path::Path::new(&dir).join(format!("{file}.bin"));
    let names: Vec<String> = members.iter().map(|(n, _)| (*n).into()).collect();
    let labels: Vec<(String, String)> = datasets
        .iter()
        .map(|(b, d, _)| (b.clone(), d.clone()))
        .collect();
    let models: Vec<&dyn Localizer> = members.iter().map(|(_, m)| *m).collect();
    let data: Vec<&Dataset> = datasets.iter().map(|(_, _, d)| *d).collect();
    let plan = spec.plan(&names, &labels);
    let mut store = match plan.open_store(&path) {
        Ok(store) => store,
        Err(e) => panic!(
            "CALLOC_RESULT_STORE: cannot use {}: {e} (delete the file to recompute the sweep)",
            path.display()
        ),
    };
    let restored = store.len();
    let report = plan
        .run_with_store(&models, surrogate, &data, &ExecSpec::default(), &mut store)
        .unwrap_or_else(|e| panic!("CALLOC_RESULT_STORE: {} failed: {e}", path.display()));
    assert!(
        report.is_complete(),
        "sweep {label} left cells unfinished: {}",
        report.summary()
    );
    eprintln!(
        "result store {}: {restored} cells restored, {} executed",
        path.display(),
        report.executed
    );
    report.table
}

/// [`run_sweep_stored`] over a trained suite: the member list and the
/// transfer-attack surrogate come from the suite, exactly as
/// `Suite::sweep` wires them.
pub fn suite_sweep_stored(
    label: &str,
    suite: &Suite,
    datasets: &[(String, String, &Dataset)],
    spec: &SweepSpec,
) -> ResultTable {
    let members: Vec<(&str, &dyn Localizer)> = suite
        .members
        .iter()
        .map(|m| (m.name.as_str(), m.model.as_ref()))
        .collect();
    run_sweep_stored(label, &members, Some(suite.surrogate()), datasets, spec)
}

/// Experiment fidelity, selected by `CALLOC_PROFILE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Reduced grids and epochs (default).
    Quick,
    /// Paper-scale grids.
    Full,
}

impl Profile {
    /// Reads `CALLOC_PROFILE` (`full` → [`Profile::Full`], anything else →
    /// [`Profile::Quick`]).
    pub fn from_env() -> Self {
        match std::env::var("CALLOC_PROFILE").as_deref() {
            Ok("full") => Profile::Full,
            _ => Profile::Quick,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Full => "full",
        }
    }
}

/// The buildings evaluated at this profile. `Quick` uses two shrunken
/// buildings (shorter paths, fewer APs) so that training completes in
/// seconds; `Full` generates all five Table II buildings at paper scale.
pub fn buildings(profile: Profile) -> Vec<Building> {
    match profile {
        Profile::Full => BuildingId::ALL
            .iter()
            .map(|id| Building::generate(id.spec(), 0))
            .collect(),
        Profile::Quick => [BuildingId::B1, BuildingId::B3]
            .iter()
            .map(|id| {
                let spec = BuildingSpec {
                    path_length_m: 24,
                    num_aps: 40,
                    ..id.spec()
                };
                Building::generate(spec, 0)
            })
            .collect(),
    }
}

/// Collects the paper's protocol for a building (5 train / 1 test per RP,
/// OP3 reference, all six devices).
pub fn scenario_for(building: &Building, seed: u64) -> Scenario {
    Scenario::generate(building, &CollectionConfig::paper(), seed)
}

/// The declarative scenario grid of this profile: the same buildings as
/// [`buildings`] under the paper protocol, as a `ScenarioSpec` whose cells
/// the figure binaries generate in parallel (`Full` → the five Table II
/// buildings, `Quick` → the two shrunken ones). Binaries override the seed
/// axis per experiment with `with_seeds`.
pub fn scenario_grid(profile: Profile) -> ScenarioSpec {
    match profile {
        Profile::Full => ScenarioSpec::paper(),
        Profile::Quick => ScenarioSpec::quick(),
    }
}

/// The framework-suite training profile for this fidelity.
pub fn suite_profile(profile: Profile) -> SuiteProfile {
    match profile {
        Profile::Full => SuiteProfile::paper(),
        Profile::Quick => SuiteProfile {
            calloc: CallocConfig {
                embedding_dim: 64,
                attention_dim: 32,
                epochs_per_lesson: 10,
                ..CallocConfig::default()
            },
            lessons: 6,
            baseline_epochs: 40,
            ..SuiteProfile::quick()
        },
    }
}

/// The ε grid (paper: 0.1–0.5).
pub fn epsilon_grid(profile: Profile) -> Vec<f64> {
    match profile {
        Profile::Full => vec![0.1, 0.2, 0.3, 0.4, 0.5],
        Profile::Quick => vec![0.1, 0.3, 0.5],
    }
}

/// The ø grid for heatmap-style sweeps (paper: 10–100).
pub fn phi_grid(profile: Profile) -> Vec<f64> {
    match profile {
        Profile::Full => vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
        Profile::Quick => vec![10.0, 50.0, 100.0],
    }
}

/// The ø grid of Fig. 7 (paper: 1–100).
pub fn phi_grid_fig7(profile: Profile) -> Vec<f64> {
    match profile {
        Profile::Full => vec![
            1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
        ],
        Profile::Quick => vec![1.0, 20.0, 40.0, 60.0, 80.0, 100.0],
    }
}

/// All three attacks in paper order.
pub fn attacks() -> [AttackKind; 3] {
    AttackKind::ALL
}

/// The figure binaries' base sweep: all three crafting algorithms over
/// this profile's (ε, ø) grids, manipulation injection, strongest-AP
/// targeting, ε calibrated through [`EPSILON_UNIT`], no clean cell (the
/// paper's robustness figures are attack-only). Individual figures swap
/// grids or axes on the returned spec.
pub fn sweep_spec(profile: Profile) -> SweepSpec {
    let mut spec =
        SweepSpec::grid(epsilon_grid(profile), phi_grid(profile)).with_epsilon_unit(EPSILON_UNIT);
    spec.include_clean = false;
    spec
}

/// Training seed of the trajectory-sweep members: one fixed fingerprint
/// survey per building, shared by `fig_traj`, the golden tier and
/// `perf_baseline`.
pub const TRAJECTORY_TRAIN_SEED: u64 = 9;

/// The trajectory grid of this profile: the same buildings as
/// [`buildings`] walked under the paper motion prior, with a two-level
/// environment axis (baseline and 2× drift) so the error-vs-path-length
/// trend composes with [`EnvLevel`] drift severity.
pub fn trajectory_grid(profile: Profile) -> TrajectorySpec {
    let spec = match profile {
        Profile::Full => TrajectorySpec::paper(),
        Profile::Quick => TrajectorySpec::quick(),
    };
    spec.with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)])
}

/// Trains the trajectory-sweep member pair for one building realization:
/// KNN (hard one-hot emissions) and GPC (soft probabilistic emissions),
/// both fit on the building's fixed fingerprint survey under `config`.
pub fn trajectory_members(
    building: &Building,
    config: &CollectionConfig,
    seed: u64,
) -> (KnnLocalizer, GpcLocalizer) {
    let scenario = Scenario::generate(building, config, seed);
    let train = &scenario.train;
    let knn = KnnLocalizer::fit(train.x.clone(), train.labels.clone(), building.num_rps(), 3);
    let gpc = GpcLocalizer::fit(
        train.x.clone(),
        train.labels.clone(),
        building.num_rps(),
        GpcConfig::default(),
    )
    .expect("survey gram matrices are SPD under the default noise");
    (knn, gpc)
}

/// The full trajectory sweep of this profile: error vs path length ×
/// environment level × member (KNN and GPC), sequentially decoded by
/// raw / forward-filtered / smoothed estimators. Deterministic for a
/// fixed profile — `tests/golden/trajectory_sweep.csv` pins the quick
/// rendering byte for byte.
pub fn trajectory_sweep_table(profile: Profile) -> TrajectoryTable {
    let set = trajectory_grid(profile).generate();
    let base = set.plan().spec().base.clone();
    let trained: Vec<(KnnLocalizer, GpcLocalizer)> = set
        .plan()
        .buildings()
        .iter()
        .map(|b| trajectory_members(b, &base, TRAJECTORY_TRAIN_SEED))
        .collect();
    let members: Vec<Vec<(&str, &dyn Localizer)>> = trained
        .iter()
        .map(|(knn, gpc)| {
            vec![
                ("KNN", knn as &dyn Localizer),
                ("GPC", gpc as &dyn Localizer),
            ]
        })
        .collect();
    run_trajectory_sweep(&set, &members, &TrackConfig::paper())
}

/// The seed repository's serial trajectory-set generation — a plain
/// cell-order loop over direct [`Trajectory::generate`] calls — preserved
/// as the baseline for the `trajectory_generation` section of the
/// `perf_baseline` JSON snapshot. The parallel
/// `TrajectoryPlan::generate` fan-out must stay **bit-identical** to it
/// for every plan, which is also what keeps
/// `tests/golden/trajectory_sweep.csv` byte-stable across thread counts.
pub fn seed_trajectory_set_reference(plan: &TrajectoryPlan) -> Vec<Trajectory> {
    plan.cells()
        .iter()
        .map(|cell| {
            Trajectory::generate(
                &plan.buildings()[cell.building],
                &plan.spec().motion,
                &plan.config_for(cell),
                plan.steps_for(cell),
                plan.seed_for(cell),
            )
        })
        .collect()
}

/// The seed repository's unblocked Cholesky kernel, preserved verbatim as
/// the shared baseline for the `perf_baseline` JSON snapshot — the
/// blocked/parallel `calloc_tensor::linalg::cholesky` must stay
/// bit-identical to it.
///
/// # Errors
///
/// Returns the same errors as `linalg::cholesky` (non-square input,
/// non-positive pivot).
pub fn seed_cholesky_reference(a: &Matrix) -> Result<Matrix, TensorError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::ShapeMismatch(format!(
            "cholesky requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(TensorError::Numeric(format!(
                        "non-positive pivot {sum:.3e} at row {i}; matrix is not positive definite"
                    )));
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Asserts raw-bit matrix equality (unlike `assert_eq!` on `Matrix`, this
/// distinguishes `0.0` from `-0.0`) — the shared assertion behind every
/// seed-reference bit-identity check in this crate (`perf_baseline` and
/// the unit tests below).
///
/// # Panics
///
/// Panics with `context` if the shapes differ or any element's bit
/// pattern does.
pub fn assert_bits_eq(a: &Matrix, b: &Matrix, context: &str) {
    assert_eq!(a.shape(), b.shape(), "{context}: shapes differ");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: element {i} differs ({x} vs {y})"
        );
    }
}

/// The seed repository's scalar RBF row kernel, preserved verbatim as part
/// of the GPC inference reference below.
fn seed_rbf(a: &[f64], b: &[f64], length_scale: f64) -> f64 {
    let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
    (-sq / (2.0 * length_scale * length_scale)).exp()
}

/// The seed repository's scalar pairwise squared-distance loop (the shape
/// of `SoftKnn::sq_dists` applied per query row), preserved verbatim as
/// the baseline for the `pairwise_dists` section of the `perf_baseline`
/// JSON snapshot — `calloc_tensor::kernel::sq_dists` must stay
/// bit-identical to it.
pub fn seed_sq_dists_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for r in 0..a.rows() {
        let q = a.row(r);
        for i in 0..b.rows() {
            let d = b
                .row(i)
                .iter()
                .zip(q)
                .map(|(p, v)| (p - v).powi(2))
                .sum::<f64>();
            out.set(r, i, d);
        }
    }
    out
}

/// The seed repository's serial scalar GPC scores loop
/// (`GpcLocalizer::scores` before the batched kernel-distance engine),
/// preserved verbatim: one RBF row per (query, training) pair, classes
/// accumulated per element in ascending training order.
pub fn seed_gpc_scores_reference(
    x_train: &Matrix,
    alpha: &Matrix,
    length_scale: f64,
    x: &Matrix,
) -> Matrix {
    let num_classes = alpha.cols();
    let mut out = Matrix::zeros(x.rows(), num_classes);
    for r in 0..x.rows() {
        for i in 0..x_train.rows() {
            let k = seed_rbf(x.row(r), x_train.row(i), length_scale);
            for c in 0..num_classes {
                out.set(r, c, out.get(r, c) + k * alpha.get(i, c));
            }
        }
    }
    out
}

/// The seed repository's serial scalar GPC `loss_and_input_grad` (before
/// the batched kernel-distance engine), preserved verbatim as the baseline
/// for the `gpc_inference` section of the `perf_baseline` JSON snapshot.
/// Note it evaluates the RBF cross-kernel **twice** per call — once inside
/// the logits and again in the gradient loop — which is exactly the
/// redundancy the shared-cross-kernel rewrite removed; the rewrite must
/// nevertheless reproduce these bits exactly.
pub fn seed_gpc_loss_and_input_grad_reference(
    x_train: &Matrix,
    alpha: &Matrix,
    config: calloc_baselines::GpcConfig,
    x: &Matrix,
    targets: &[usize],
) -> (f64, Matrix) {
    assert_eq!(targets.len(), x.rows(), "label count mismatch");
    let logits =
        seed_gpc_scores_reference(x_train, alpha, config.length_scale, x).scale(config.sharpness);
    let (loss, grad_logits) = calloc_nn::loss::cross_entropy(&logits, targets);

    let num_classes = alpha.cols();
    let ls2 = config.length_scale * config.length_scale;
    let mut grad_x = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        for i in 0..x_train.rows() {
            let k = seed_rbf(x.row(r), x_train.row(i), config.length_scale);
            let mut w = 0.0;
            for c in 0..num_classes {
                w += grad_logits.get(r, c) * alpha.get(i, c);
            }
            w *= config.sharpness * k / ls2;
            for col in 0..x.cols() {
                let delta = x_train.get(i, col) - x.get(r, col);
                grad_x.set(r, col, grad_x.get(r, col) + w * delta);
            }
        }
    }
    (loss, grad_x)
}

/// CALLOC's attack step before the fast path, rebuilt from the model's
/// state bytes as the baseline for the `calloc_attack_step` section of
/// the `perf_baseline` JSON snapshot: every call re-embeds the frozen
/// reference memory through `H^O` and `Wk`, then runs the **full**
/// backward — every weight gradient and the memory branch — and keeps
/// only the input gradient. `CallocModel::loss_and_input_grad` (memory
/// keys kept with the weights, input-only backward) must reproduce these
/// bits exactly.
///
/// # Panics
///
/// Panics if the model's state bytes do not decode.
pub fn seed_calloc_loss_and_input_grad_reference(
    model: &calloc::CallocModel,
    x: &Matrix,
    targets: &[usize],
) -> (f64, Matrix) {
    use calloc_nn::attention::{attention_backward, attention_forward};
    use calloc_nn::{loss, state, Mode};
    use calloc_tensor::codec::Reader;

    let bytes = model.state_bytes();
    let mut r = Reader::new(&bytes);
    let parts = (|| {
        // The config header: two dims, four rates, two counts, the seed.
        for _ in 0..2 {
            r.usize()?;
        }
        for _ in 0..4 {
            r.f64()?;
        }
        for _ in 0..2 {
            r.usize()?;
        }
        r.u64()?;
        Ok::<_, String>((
            state::read_sequential(&mut r)?,
            state::read_sequential(&mut r)?,
            state::read_dense(&mut r)?,
            state::read_dense(&mut r)?,
            state::read_dense(&mut r)?,
            r.matrix()?,
        ))
    })();
    let (embed_c, embed_o, wq, wk, fc, memory_x) = parts.expect("CALLOC state decodes");

    let mut rng = Rng::new(0);
    let (h_c, caches_c) = embed_c.forward(x, Mode::Eval, &mut rng);
    let (h_o_mem, caches_o_mem) = embed_o.forward(&memory_x, Mode::Eval, &mut rng);
    let q_proj = wq.forward(&h_c);
    let k_proj = wk.forward(&h_o_mem);
    let (retrieved, attn) = attention_forward(&q_proj, &k_proj, &h_o_mem);
    let context = retrieved.add(&h_c);
    let logits = fc.forward(&context);
    let (loss_value, grad_logits) = loss::cross_entropy(&logits, targets);

    let (g_context, _, _) = fc.backward(&context, &grad_logits);
    let (g_q_proj, g_k_proj, g_v) = attention_backward(&attn, &g_context);
    let (g_hc_from_q, _, _) = wq.backward(&h_c, &g_q_proj);
    let (g_ho_from_k, _, _) = wk.backward(&h_o_mem, &g_k_proj);
    let g_ho_mem = g_ho_from_k.add(&g_v);
    let g_hc = g_hc_from_q.add(&g_context);
    let (g_input, _) = embed_c.backward(&caches_c, &g_hc);
    std::hint::black_box(embed_o.backward(&caches_o_mem, &g_ho_mem));
    (loss_value, g_input)
}

/// The seed repository's matmul kernel (naive i-k-j triple loop with its
/// per-element `a == 0.0` skip), preserved verbatim as the shared baseline
/// for the `matmul` criterion bench and the `perf_baseline` JSON snapshot
/// — both must measure against the exact same reference.
pub fn seed_matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let (k, n) = (a.cols(), b.cols());
    let od = out.as_mut_slice();
    for i in 0..a.rows() {
        for kk in 0..k {
            let av = ad[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let orow = &bd[kk * n..(kk + 1) * n];
            let crow = &mut od[i * n..(i + 1) * n];
            for (cv, &ov) in crow.iter_mut().zip(orow) {
                *cv += av * ov;
            }
        }
    }
    out
}

/// Between-phase environment change of one online session, as realized by
/// the seed scenario generator below (verbatim copy of the simulator's
/// private `PhaseDrift`).
struct SeedPhaseDrift {
    ap_drift_db: Vec<f64>,
    reshadow_db: Matrix,
}

impl SeedPhaseDrift {
    fn none(n_rp: usize, n_ap: usize) -> Self {
        SeedPhaseDrift {
            ap_drift_db: vec![0.0; n_ap],
            reshadow_db: Matrix::zeros(n_rp, n_ap),
        }
    }

    fn sample(n_rp: usize, n_ap: usize, drift_std: f64, reshadow_std: f64, rng: &mut Rng) -> Self {
        SeedPhaseDrift {
            ap_drift_db: (0..n_ap).map(|_| rng.normal(0.0, drift_std)).collect(),
            reshadow_db: Matrix::from_fn(n_rp, n_ap, |_, _| rng.normal(0.0, reshadow_std)),
        }
    }
}

/// The seed repository's per-session collection loop, preserved verbatim
/// as part of the scenario-generation reference below.
fn seed_collect(
    building: &Building,
    propagation: &calloc_sim::PropagationModel,
    device: &calloc_sim::DeviceProfile,
    per_rp: usize,
    drift: &SeedPhaseDrift,
    rng: &mut Rng,
) -> calloc_sim::Dataset {
    let n_rp = building.num_rps();
    let n_ap = building.num_aps();
    let mut x = Matrix::zeros(n_rp * per_rp, n_ap);
    let mut labels = Vec::with_capacity(n_rp * per_rp);
    let mut row = 0;
    for rp in 0..n_rp {
        for _ in 0..per_rp {
            for ap in 0..n_ap {
                let truth = propagation.measure_dbm(building, rp, ap, rng);
                let shifted = if truth > RSS_FLOOR_DBM {
                    (truth + drift.ap_drift_db[ap] + drift.reshadow_db.get(rp, ap))
                        .clamp(RSS_FLOOR_DBM, 0.0)
                } else {
                    truth
                };
                let observed = device.observe(shifted, rng);
                x.set(row, ap, normalize_rss(observed));
            }
            labels.push(rp);
            row += 1;
        }
    }
    calloc_sim::Dataset::new(x, labels, building.rp_positions().to_vec())
}

/// The seed repository's serial `Scenario::generate` (before the
/// session-parallel fan-out), preserved verbatim as the baseline for the
/// `scenario_generation` section of the `perf_baseline` JSON snapshot —
/// the parallel generator (and therefore every `ScenarioSet` cell) must
/// stay **bit-identical** to it for matching `(building, config, seed)`
/// triples, which is also what keeps `tests/golden/quick_sweep.csv`
/// byte-stable across the scenario-grid redesign.
pub fn seed_scenario_generate_reference(
    building: &Building,
    config: &CollectionConfig,
    seed: u64,
) -> Scenario {
    let mut rng = Rng::new(seed ^ building.spec().seed.rotate_left(17));
    let no_drift = SeedPhaseDrift::none(building.num_rps(), building.num_aps());
    let train = seed_collect(
        building,
        &config.propagation,
        &config.reference_device,
        config.train_fingerprints_per_rp,
        &no_drift,
        &mut rng.fork(1),
    );
    let test_per_device = config
        .test_devices
        .iter()
        .enumerate()
        .map(|(i, device)| {
            let mut session_rng = rng.fork(100 + i as u64);
            let drift = SeedPhaseDrift::sample(
                building.num_rps(),
                building.num_aps(),
                config.temporal_drift_std_db,
                config.reshadow_std_db,
                &mut session_rng,
            );
            let ds = seed_collect(
                building,
                &config.propagation,
                device,
                config.test_fingerprints_per_rp,
                &drift,
                &mut session_rng,
            );
            (device.clone(), ds)
        })
        .collect();
    Scenario {
        train,
        test_per_device,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_is_default() {
        // The test environment does not set CALLOC_PROFILE.
        if std::env::var("CALLOC_PROFILE").is_err() {
            assert_eq!(Profile::from_env(), Profile::Quick);
        }
    }

    #[test]
    fn full_profile_generates_table_ii() {
        let b = buildings(Profile::Full);
        assert_eq!(b.len(), 5);
        assert_eq!(b[0].num_aps(), 156);
        assert_eq!(b[4].num_aps(), 218);
    }

    #[test]
    fn quick_buildings_are_small() {
        let b = buildings(Profile::Quick);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|b| b.num_rps() <= 24 && b.num_aps() <= 40));
    }

    #[test]
    fn trajectory_grid_generation_is_bit_identical_to_seed_reference() {
        let spec = TrajectorySpec::from_base(
            vec![
                BuildingSpec {
                    path_length_m: 9,
                    num_aps: 7,
                    ..BuildingId::B1.spec()
                },
                BuildingSpec {
                    path_length_m: 10,
                    num_aps: 6,
                    ..BuildingId::B2.spec()
                },
            ],
            4,
            calloc_sim::MotionConfig::paper(),
            CollectionConfig::small(),
            vec![5, 8],
            vec![2, 7],
        )
        .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)]);
        let plan = spec.plan();
        let reference = seed_trajectory_set_reference(&plan);
        let set = plan.generate();
        assert_eq!(reference.len(), set.len());
        for (i, (a, b)) in reference.iter().zip(set.trajectories()).enumerate() {
            assert_eq!(a.rp_labels, b.rp_labels, "cell {i} labels");
            for (j, (x, y)) in a
                .observations
                .as_slice()
                .iter()
                .zip(b.observations.as_slice())
                .enumerate()
            {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "cell {i} observation {j} diverges from the serial reference"
                );
            }
        }
    }

    #[test]
    fn quick_trajectory_sweep_covers_the_whole_grid() {
        let table = trajectory_sweep_table(Profile::Quick);
        let grid = trajectory_grid(Profile::Quick);
        let cells = grid.buildings.len()
            * grid.path_lengths.len()
            * grid.environments.len()
            * grid.seeds.len();
        // Two members (KNN, GPC) × three estimators per cell.
        assert_eq!(table.len(), cells * 2 * 3);
        assert!(table
            .rows()
            .iter()
            .all(|r| r.mean_error_m.is_finite() && r.final_error_m.is_finite()));
        let envs: std::collections::BTreeSet<&str> =
            table.rows().iter().map(|r| r.env.as_str()).collect();
        assert_eq!(envs.len(), 2, "both environment levels present: {envs:?}");
    }

    #[test]
    fn blocked_cholesky_is_bit_identical_to_seed_reference() {
        use calloc_tensor::{linalg, Rng};
        let n = 100; // crosses the 64-wide panel boundary
        let mut rng = Rng::new(11);
        let b = Matrix::from_fn(n, n, |_, _| rng.normal(0.0, 1.0));
        let a = linalg::add_diagonal(&b.matmul(&b.transpose()), 5.0);
        let seed = seed_cholesky_reference(&a).expect("spd");
        let blocked = linalg::cholesky(&a).expect("spd");
        assert_bits_eq(&seed, &blocked, "blocked cholesky diverges from seed");
    }

    #[test]
    fn batched_sq_dists_is_bit_identical_to_seed_reference() {
        use calloc_tensor::{kernel, Rng};
        let mut rng = Rng::new(21);
        let a = Matrix::from_fn(23, 17, |_, _| rng.uniform(0.0, 1.0));
        let b = Matrix::from_fn(31, 17, |_, _| rng.uniform(0.0, 1.0));
        let seed = seed_sq_dists_reference(&a, &b);
        let batched = kernel::sq_dists(&a, &b);
        assert_bits_eq(&seed, &batched, "batched sq_dists diverges from seed");
    }

    #[test]
    fn batched_gpc_inference_is_bit_identical_to_seed_reference() {
        use calloc_baselines::{GpcConfig, GpcLocalizer};
        use calloc_nn::DifferentiableModel;
        use calloc_tensor::Rng;
        let mut rng = Rng::new(33);
        let classes = 5;
        let x_train = Matrix::from_fn(40, 8, |_, _| rng.uniform(0.0, 1.0));
        let y_train: Vec<usize> = (0..40).map(|i| i % classes).collect();
        let config = GpcConfig::default();
        let gpc = GpcLocalizer::fit(x_train, y_train, classes, config).expect("fit");
        let x = Matrix::from_fn(13, 8, |_, _| rng.uniform(0.0, 1.0));
        let targets: Vec<usize> = (0..13).map(|i| (i * 2) % classes).collect();

        let seed_scores =
            seed_gpc_scores_reference(gpc.x_train(), gpc.alpha(), config.length_scale, &x);
        assert_bits_eq(
            &seed_scores,
            &gpc.scores(&x),
            "batched GPC scores diverge from seed",
        );

        let (seed_loss, seed_grad) = seed_gpc_loss_and_input_grad_reference(
            gpc.x_train(),
            gpc.alpha(),
            config,
            &x,
            &targets,
        );
        let (loss, grad) = gpc.loss_and_input_grad(&x, &targets);
        assert_eq!(seed_loss.to_bits(), loss.to_bits(), "loss diverges");
        assert_bits_eq(&seed_grad, &grad, "GPC input grad diverges from seed");
    }

    #[test]
    fn calloc_attack_step_is_bit_identical_to_the_full_backward_reference() {
        use calloc::CallocModel;
        use calloc_tensor::Rng;
        let mut rng = Rng::new(44);
        let memory = Matrix::from_fn(9, 14, |_, _| rng.uniform(0.0, 1.0));
        let rps: Vec<(f64, f64)> = (0..9).map(|i| (i as f64, 0.5 * i as f64)).collect();
        let model = CallocModel::new(memory, &rps, CallocConfig::fast(), &mut rng);
        let x = Matrix::from_fn(6, 14, |_, _| rng.uniform(0.0, 1.0));
        let targets = vec![0, 3, 8, 1, 5, 2];
        let (seed_loss, seed_grad) =
            seed_calloc_loss_and_input_grad_reference(&model, &x, &targets);
        let (loss, grad) = model.loss_and_input_grad(&x, &targets);
        assert_eq!(seed_loss.to_bits(), loss.to_bits(), "loss diverges");
        assert_bits_eq(
            &seed_grad,
            &grad,
            "CALLOC input grad diverges from the reference",
        );
    }

    #[test]
    fn parallel_scenario_generate_is_bit_identical_to_seed_reference() {
        use calloc_tensor::par;
        let spec = BuildingSpec {
            path_length_m: 12,
            num_aps: 14,
            ..BuildingId::B3.spec()
        };
        let building = Building::generate(spec, 3);
        let config = CollectionConfig::small();
        let reference = seed_scenario_generate_reference(&building, &config, 17);
        let _threads = par::ThreadGuard::new(1);
        for threads in [1usize, 4] {
            par::set_threads(threads);
            let generated = Scenario::generate(&building, &config, 17);
            assert_bits_eq(
                &reference.train.x,
                &generated.train.x,
                &format!("train survey diverges from seed at {threads} threads"),
            );
            assert_eq!(reference.train.labels, generated.train.labels);
            for ((dr, tr), (dg, tg)) in reference
                .test_per_device
                .iter()
                .zip(&generated.test_per_device)
            {
                assert_eq!(dr, dg, "device order diverges at {threads} threads");
                assert_bits_eq(
                    &tr.x,
                    &tg.x,
                    &format!(
                        "{} session diverges from seed at {threads} threads",
                        dr.acronym
                    ),
                );
            }
        }
    }

    #[test]
    fn scenario_grid_matches_profile_buildings() {
        for profile in [Profile::Quick, Profile::Full] {
            let grid = scenario_grid(profile);
            let direct = buildings(profile);
            assert_eq!(grid.buildings.len(), direct.len());
            let planned = grid.plan();
            for (a, b) in planned.buildings().iter().zip(&direct) {
                assert_eq!(a.spec(), b.spec(), "{profile:?}");
                assert_eq!(a.ap_positions(), b.ap_positions(), "{profile:?}");
            }
            assert_eq!(
                grid.base.train_fingerprints_per_rp,
                CollectionConfig::paper().train_fingerprints_per_rp
            );
        }
    }

    #[test]
    fn bench_sweep_spec_matches_profile_grids() {
        let spec = sweep_spec(Profile::Quick);
        assert_eq!(spec.epsilons, epsilon_grid(Profile::Quick));
        assert_eq!(spec.phis, phi_grid(Profile::Quick));
        assert_eq!(spec.epsilon_unit, EPSILON_UNIT);
        assert!(
            !spec.include_clean,
            "paper robustness figures are attack-only"
        );
    }

    #[test]
    fn grids_match_paper_ranges() {
        let eps = epsilon_grid(Profile::Full);
        assert_eq!(eps.first(), Some(&0.1));
        assert_eq!(eps.last(), Some(&0.5));
        let phi = phi_grid(Profile::Full);
        assert_eq!(phi.first(), Some(&10.0));
        assert_eq!(phi.last(), Some(&100.0));
        assert_eq!(phi_grid_fig7(Profile::Full).first(), Some(&1.0));
    }
}
