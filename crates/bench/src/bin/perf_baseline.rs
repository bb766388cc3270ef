//! Records a wall-clock performance snapshot of the tensor hot-path
//! kernels to `BENCH_kernels.json` (in the current directory).
//!
//! For each square size the snapshot compares the seed's naive matmul
//! triple loop against the cache-blocked serial kernel
//! (`CALLOC_THREADS=1`) and the row-chunk-parallel kernel (thread budget
//! from `CALLOC_THREADS` / available parallelism), plus the transpose-free
//! `A·Bᵀ` product, the blocked transpose and the parallel row softmax.
//! The same comparison runs for the Cholesky factorization: the seed's
//! unblocked kernel against the blocked right-looking one, serial and
//! parallel (this is the GPC baseline's fit hot path, which dominated
//! attack-sweep wall clock before the blocked kernel landed); for the
//! batched pairwise-distance primitives (`kernel::sq_dists` /
//! `kernel::rbf_cross` against the seed's per-query scalar loop); and for
//! GPC *inference* (`loss_and_input_grad` on the shared cross-kernel
//! against the seed scalar path that evaluated every RBF row twice per
//! attack step — the sweep-cell hot path since PR 3); and for scenario
//! generation (the session-parallel `Scenario::generate` and the
//! `ScenarioSpec` grid engine against the seed's serial collector,
//! preserved verbatim as `calloc_bench::seed_scenario_generate_reference`).
//! The `trajectory_generation` section runs the same comparison for the
//! trajectory grid (`TrajectoryPlan::generate` against the serial cell
//! loop `calloc_bench::seed_trajectory_set_reference`), and the
//! `recalibration` section prices online GPC recalibration: the rank-1
//! `absorb` path against a full refit on a growing fingerprint bank,
//! with the absorb-vs-refit divergence asserted inside the documented
//! 1e-6 tolerance tier — and every *batch* kernel still asserted
//! bit-identical to its seed reference — before anything is timed.
//! The `pool` section profiles the worker pool itself: the budget nested
//! fan-outs actually observe (asserted > 1 — the pre-pool runtime
//! collapsed them to serial), a sweep-shaped mixed-cost work list whose
//! straggler cell exercises work reclaiming, and an outer fan-out of
//! row-parallel kernels. The `sweep_resilience` section prices the
//! fault-tolerant sweep layer on a small real KNN sweep: the per-cell
//! panic quarantine, the in-memory and checkpointed-disk result stores,
//! a two-shard split-and-merge, and a resume over a half-full store —
//! each asserted byte-identical to the plain one-shot run before it is
//! timed. The `model_cache` section prices the content-addressed
//! trained-model cache: a small suite trained cold into a fresh disk
//! cache against the warm restore from a reopen, with both paths
//! asserted to sweep byte-identically to a cache-off `Suite::train`
//! before the clock starts. The `calloc_attack_step` section prices
//! CALLOC's attack step at paper-scale B1: `loss_and_input_grad` (memory
//! keys kept with the weights, input-only backward) against
//! `calloc_bench::seed_calloc_loss_and_input_grad_reference` (memory
//! re-embedded and the full backward run every step), timed over several
//! rounds so the speedup carries its spread. Every variant's output is asserted
//! bit-identical to the seed reference before it is timed — the
//! determinism contract is checked, not assumed.
//!
//! ```bash
//! cargo run -p calloc-bench --release --bin perf_baseline
//! ```

use calloc::{CallocConfig, CallocModel};
use calloc_baselines::{GpcConfig, GpcLocalizer, KnnLocalizer};
use calloc_bench::{
    assert_bits_eq, seed_calloc_loss_and_input_grad_reference, seed_cholesky_reference,
    seed_gpc_loss_and_input_grad_reference, seed_gpc_scores_reference, seed_matmul_reference,
    seed_scenario_generate_reference, seed_sq_dists_reference, seed_trajectory_set_reference,
};
use calloc_eval::{ExecSpec, Localizer, ModelCache, StoreError, Suite, SuiteProfile, SweepSpec};
use calloc_nn::DifferentiableModel;
use calloc_sim::{
    collection_identity, Building, BuildingId, BuildingSpec, CollectionConfig, Dataset, Scenario,
    ScenarioSpec, TrajectorySpec,
};
use calloc_tensor::{kernel, linalg, par, Matrix, Rng};
use std::fmt::Write as _;
use std::time::Instant;

/// Best-of-`reps` wall time in milliseconds.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Unwraps a store result or exits with the typed error (which names the
/// offending path) — benches fail loudly, they don't unwind.
fn or_die<T>(result: Result<T, StoreError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchmark store failure: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let threads = par::threads();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = 5;
    let mut rows = Vec::new();

    for &size in &[128usize, 256, 384] {
        let mut rng = Rng::new(size as u64);
        let a = Matrix::from_fn(size, size, |_, _| rng.normal(0.0, 1.0));
        let b = Matrix::from_fn(size, size, |_, _| rng.normal(0.0, 1.0));

        let reference = seed_matmul_reference(&a, &b);
        par::set_threads(1);
        assert_eq!(reference, a.matmul(&b), "blocked kernel diverges at {size}");
        par::set_threads(0);
        assert_eq!(
            reference,
            a.matmul(&b),
            "parallel kernel diverges at {size}"
        );
        assert_eq!(
            a.matmul_transposed(&b),
            a.matmul(&b.transpose()),
            "matmul_transposed diverges at {size}"
        );

        let naive_ms = best_ms(reps, || seed_matmul_reference(&a, &b));
        par::set_threads(1);
        let blocked_serial_ms = best_ms(reps, || a.matmul(&b));
        par::set_threads(0);
        let parallel_ms = best_ms(reps, || a.matmul(&b));
        let matmul_transposed_ms = best_ms(reps, || a.matmul_transposed(&b));
        let transpose_ms = best_ms(reps, || a.transpose());
        let softmax_ms = best_ms(reps, || a.softmax_rows());

        println!(
            "matmul {size}x{size}: naive {naive_ms:.3} ms | blocked(serial) \
             {blocked_serial_ms:.3} ms ({:.2}x) | parallel({threads}t) {parallel_ms:.3} ms ({:.2}x)",
            naive_ms / blocked_serial_ms,
            naive_ms / parallel_ms,
        );

        let mut row = String::new();
        write!(
            row,
            "    {{\"size\": {size}, \"naive_ms\": {naive_ms:.4}, \
             \"blocked_serial_ms\": {blocked_serial_ms:.4}, \"parallel_ms\": {parallel_ms:.4}, \
             \"blocked_speedup\": {:.3}, \"parallel_speedup\": {:.3}, \
             \"matmul_transposed_ms\": {matmul_transposed_ms:.4}, \
             \"transpose_ms\": {transpose_ms:.4}, \"softmax_ms\": {softmax_ms:.4}}}",
            naive_ms / blocked_serial_ms,
            naive_ms / parallel_ms,
        )
        .expect("write to string");
        rows.push(row);
    }

    let mut chol_rows = Vec::new();
    for &size in &[128usize, 256, 384] {
        let mut rng = Rng::new(0x5EED ^ size as u64);
        let b = Matrix::from_fn(size, size, |_, _| rng.normal(0.0, 1.0));
        let spd = linalg::add_diagonal(&b.matmul(&b.transpose()), size as f64 * 0.05);

        let reference = seed_cholesky_reference(&spd).expect("SPD by construction");
        par::set_threads(1);
        assert_eq!(
            reference,
            linalg::cholesky(&spd).expect("spd"),
            "blocked cholesky diverges from seed at {size}"
        );
        par::set_threads(0);
        assert_eq!(
            reference,
            linalg::cholesky(&spd).expect("spd"),
            "parallel cholesky diverges from seed at {size}"
        );

        let naive_ms = best_ms(reps, || seed_cholesky_reference(&spd));
        par::set_threads(1);
        let blocked_serial_ms = best_ms(reps, || linalg::cholesky(&spd));
        par::set_threads(0);
        let parallel_ms = best_ms(reps, || linalg::cholesky(&spd));

        println!(
            "cholesky {size}x{size}: seed {naive_ms:.3} ms | blocked(serial) \
             {blocked_serial_ms:.3} ms ({:.2}x) | parallel({threads}t) {parallel_ms:.3} ms ({:.2}x)",
            naive_ms / blocked_serial_ms,
            naive_ms / parallel_ms,
        );

        let mut row = String::new();
        write!(
            row,
            "    {{\"size\": {size}, \"seed_ms\": {naive_ms:.4}, \
             \"blocked_serial_ms\": {blocked_serial_ms:.4}, \"parallel_ms\": {parallel_ms:.4}, \
             \"blocked_speedup\": {:.3}, \"parallel_speedup\": {:.3}}}",
            naive_ms / blocked_serial_ms,
            naive_ms / parallel_ms,
        )
        .expect("write to string");
        chol_rows.push(row);
    }

    // --- Batched pairwise-distance primitives vs the seed scalar loop ---
    let mut pair_rows = Vec::new();
    for &(batch, train, dim) in &[(100usize, 150usize, 24usize), (200, 300, 40)] {
        let mut rng = Rng::new(0xD157 ^ (batch * train) as u64);
        let a = Matrix::from_fn(batch, dim, |_, _| rng.uniform(0.0, 1.0));
        let b = Matrix::from_fn(train, dim, |_, _| rng.uniform(0.0, 1.0));

        let reference = seed_sq_dists_reference(&a, &b);
        par::set_threads(1);
        assert_bits_eq(
            &reference,
            &kernel::sq_dists(&a, &b),
            &format!("batched sq_dists diverges from seed at {batch}x{train}x{dim}"),
        );
        par::set_threads(0);
        assert_bits_eq(
            &reference,
            &kernel::sq_dists(&a, &b),
            &format!("parallel sq_dists diverges from seed at {batch}x{train}x{dim}"),
        );
        assert_bits_eq(
            &kernel::rbf_cross(&a, &b, 0.5),
            &kernel::rbf_from_sq_dists(&kernel::sq_dists(&a, &b), 0.5),
            &format!("fused rbf_cross diverges from the composition at {batch}x{train}x{dim}"),
        );

        let seed_ms = best_ms(reps, || seed_sq_dists_reference(&a, &b));
        par::set_threads(1);
        let batched_serial_ms = best_ms(reps, || kernel::sq_dists(&a, &b));
        par::set_threads(0);
        let parallel_ms = best_ms(reps, || kernel::sq_dists(&a, &b));
        let rbf_cross_ms = best_ms(reps, || kernel::rbf_cross(&a, &b, 0.5));

        println!(
            "pairwise {batch}x{train}x{dim}: seed {seed_ms:.3} ms | batched(serial) \
             {batched_serial_ms:.3} ms ({:.2}x) | parallel({threads}t) {parallel_ms:.3} ms ({:.2}x)",
            seed_ms / batched_serial_ms,
            seed_ms / parallel_ms,
        );

        let mut row = String::new();
        write!(
            row,
            "    {{\"batch\": {batch}, \"train\": {train}, \"dim\": {dim}, \
             \"seed_ms\": {seed_ms:.4}, \"batched_serial_ms\": {batched_serial_ms:.4}, \
             \"parallel_ms\": {parallel_ms:.4}, \"serial_speedup\": {:.3}, \
             \"parallel_speedup\": {:.3}, \"rbf_cross_ms\": {rbf_cross_ms:.4}}}",
            seed_ms / batched_serial_ms,
            seed_ms / parallel_ms,
        )
        .expect("write to string");
        pair_rows.push(row);
    }

    // --- GPC inference (the attack-step hot path) vs the seed scalar path ---
    let mut gpc_rows = Vec::new();
    for &(train, batch, dim, classes) in
        &[(150usize, 100usize, 24usize, 12usize), (300, 200, 40, 24)]
    {
        let mut rng = Rng::new(0x69C ^ train as u64);
        let x_train = Matrix::from_fn(train, dim, |_, _| rng.uniform(0.0, 1.0));
        let y_train: Vec<usize> = (0..train).map(|i| i % classes).collect();
        let config = GpcConfig::default();
        let gpc = GpcLocalizer::fit(x_train, y_train, classes, config).expect("SPD kernel");
        let x = Matrix::from_fn(batch, dim, |_, _| rng.uniform(0.0, 1.0));
        let targets: Vec<usize> = (0..batch).map(|i| (i * 7) % classes).collect();

        let scores_ref =
            seed_gpc_scores_reference(gpc.x_train(), gpc.alpha(), config.length_scale, &x);
        let (loss_ref, grad_ref) = seed_gpc_loss_and_input_grad_reference(
            gpc.x_train(),
            gpc.alpha(),
            config,
            &x,
            &targets,
        );
        for thread_setting in [1usize, 0] {
            par::set_threads(thread_setting);
            assert_bits_eq(
                &scores_ref,
                &gpc.scores(&x),
                &format!(
                    "batched GPC scores diverge from seed at {train}x{batch} \
                     (threads {thread_setting})"
                ),
            );
            let (loss, grad) = gpc.loss_and_input_grad(&x, &targets);
            assert_eq!(
                loss_ref.to_bits(),
                loss.to_bits(),
                "GPC loss diverges from seed at {train}x{batch} (threads {thread_setting})"
            );
            assert_bits_eq(
                &grad_ref,
                &grad,
                &format!(
                    "GPC input grad diverges from seed at {train}x{batch} \
                     (threads {thread_setting})"
                ),
            );
        }
        par::set_threads(0);

        let seed_ms = best_ms(reps, || {
            seed_gpc_loss_and_input_grad_reference(gpc.x_train(), gpc.alpha(), config, &x, &targets)
        });
        par::set_threads(1);
        let batched_serial_ms = best_ms(reps, || gpc.loss_and_input_grad(&x, &targets));
        par::set_threads(0);
        let parallel_ms = best_ms(reps, || gpc.loss_and_input_grad(&x, &targets));
        let scores_ms = best_ms(reps, || gpc.scores(&x));

        println!(
            "gpc_inference {train}train x {batch}batch x {dim}d x {classes}c: seed {seed_ms:.3} ms \
             | batched(serial) {batched_serial_ms:.3} ms ({:.2}x) | parallel({threads}t) \
             {parallel_ms:.3} ms ({:.2}x)",
            seed_ms / batched_serial_ms,
            seed_ms / parallel_ms,
        );

        let mut row = String::new();
        write!(
            row,
            "    {{\"train\": {train}, \"batch\": {batch}, \"dim\": {dim}, \
             \"classes\": {classes}, \"seed_ms\": {seed_ms:.4}, \
             \"batched_serial_ms\": {batched_serial_ms:.4}, \"parallel_ms\": {parallel_ms:.4}, \
             \"serial_speedup\": {:.3}, \"parallel_speedup\": {:.3}, \
             \"scores_ms\": {scores_ms:.4}}}",
            seed_ms / batched_serial_ms,
            seed_ms / parallel_ms,
        )
        .expect("write to string");
        gpc_rows.push(row);
    }

    // --- Scenario generation: session-parallel collector + grid engine
    //     vs the seed serial path (preserved verbatim in calloc-bench) ---
    let mut scen_rows = Vec::new();
    for &(path_m, aps) in &[(24usize, 40usize), (48, 80)] {
        let bspec = BuildingSpec {
            path_length_m: path_m,
            num_aps: aps,
            ..BuildingId::B1.spec()
        };
        let building = Building::generate(bspec, 0);
        let config = CollectionConfig::paper();
        let sessions = config.test_devices.len() + 1;

        let reference = seed_scenario_generate_reference(&building, &config, 42);
        for thread_setting in [1usize, 0] {
            par::set_threads(thread_setting);
            let generated = Scenario::generate(&building, &config, 42);
            assert_bits_eq(
                &reference.train.x,
                &generated.train.x,
                &format!(
                    "scenario survey diverges from seed at {path_m}m (threads {thread_setting})"
                ),
            );
            for ((dr, tr), (dg, tg)) in reference
                .test_per_device
                .iter()
                .zip(&generated.test_per_device)
            {
                assert_eq!(dr, dg, "device order diverges at {path_m}m");
                assert_bits_eq(
                    &tr.x,
                    &tg.x,
                    &format!(
                        "{} session diverges from seed at {path_m}m (threads {thread_setting})",
                        dr.acronym
                    ),
                );
            }
        }
        par::set_threads(0);

        let seed_ms = best_ms(reps, || {
            seed_scenario_generate_reference(&building, &config, 42)
        });
        par::set_threads(1);
        let serial_ms = best_ms(reps, || Scenario::generate(&building, &config, 42));
        par::set_threads(0);
        let parallel_ms = best_ms(reps, || Scenario::generate(&building, &config, 42));

        println!(
            "scenario {path_m}rp x {aps}ap x {sessions}sessions: seed {seed_ms:.3} ms | \
             serial {serial_ms:.3} ms ({:.2}x) | parallel({threads}t) {parallel_ms:.3} ms ({:.2}x)",
            seed_ms / serial_ms,
            seed_ms / parallel_ms,
        );

        let mut row = String::new();
        write!(
            row,
            "    {{\"rps\": {path_m}, \"aps\": {aps}, \"sessions\": {sessions}, \
             \"seed_ms\": {seed_ms:.4}, \"serial_ms\": {serial_ms:.4}, \
             \"parallel_ms\": {parallel_ms:.4}, \"serial_speedup\": {:.3}, \
             \"parallel_speedup\": {:.3}}}",
            seed_ms / serial_ms,
            seed_ms / parallel_ms,
        )
        .expect("write to string");
        scen_rows.push(row);
    }

    // The grid engine: a quick-profile ScenarioSpec fanned out over cells.
    let grid = ScenarioSpec::quick().with_seeds(vec![1, 2]);
    let grid_cells = grid.plan().len();
    par::set_threads(1);
    let grid_serial_ms = best_ms(reps, || grid.generate());
    par::set_threads(0);
    let grid_parallel_ms = best_ms(reps, || grid.generate());
    println!(
        "scenario_grid {grid_cells} cells: serial {grid_serial_ms:.3} ms | \
         parallel({threads}t) {grid_parallel_ms:.3} ms ({:.2}x)",
        grid_serial_ms / grid_parallel_ms,
    );

    // --- Trajectory generation: the grid fan-out vs the seed serial
    //     cell loop (preserved verbatim in calloc-bench) ---
    let traj_spec = TrajectorySpec::quick().with_seeds(vec![1, 2]);
    let traj_plan = traj_spec.plan();
    let traj_cells = traj_plan.len();
    let traj_reference = seed_trajectory_set_reference(&traj_plan);
    for thread_setting in [1usize, 0] {
        par::set_threads(thread_setting);
        let generated = traj_plan.clone().generate();
        for (i, (a, b)) in traj_reference
            .iter()
            .zip(generated.trajectories())
            .enumerate()
        {
            assert_eq!(
                a.rp_labels, b.rp_labels,
                "trajectory walk {i} diverges from seed (threads {thread_setting})"
            );
            assert_bits_eq(
                &a.observations,
                &b.observations,
                &format!(
                    "trajectory observations {i} diverge from seed (threads {thread_setting})"
                ),
            );
        }
    }
    par::set_threads(0);

    let traj_seed_ms = best_ms(reps, || seed_trajectory_set_reference(&traj_plan));
    par::set_threads(1);
    let traj_serial_ms = best_ms(reps, || traj_plan.clone().generate());
    par::set_threads(0);
    let traj_parallel_ms = best_ms(reps, || traj_plan.clone().generate());

    println!(
        "trajectory_generation {traj_cells} cells: seed {traj_seed_ms:.3} ms | serial \
         {traj_serial_ms:.3} ms ({:.2}x) | parallel({threads}t) {traj_parallel_ms:.3} ms ({:.2}x)",
        traj_seed_ms / traj_serial_ms,
        traj_seed_ms / traj_parallel_ms,
    );

    // --- Online recalibration: rank-1 absorb vs full refit on a growing
    //     fingerprint bank ---
    // The untouched batch kernels stay bit-pinned (asserted above and in
    // the cholesky/gpc sections); absorb itself lives in the documented
    // 1e-6 tolerance tier, asserted here before anything is timed.
    let mut recal_rows = Vec::new();
    for &(bank, added) in &[(128usize, 8usize), (256, 8)] {
        let (dim, classes) = (24usize, 12usize);
        let mut rng = Rng::new(0xABBA ^ bank as u64);
        let x = Matrix::from_fn(bank + added, dim, |_, _| rng.uniform(0.0, 1.0));
        let y: Vec<usize> = (0..bank + added).map(|i| i % classes).collect();
        let head = Matrix::from_fn(bank, dim, |r, c| x.get(r, c));
        let tail = Matrix::from_fn(added, dim, |r, c| x.get(bank + r, c));
        let config = GpcConfig::default();
        let base = GpcLocalizer::fit(head, y[..bank].to_vec(), classes, config).expect("fit");

        let mut absorbed = base.clone();
        absorbed.absorb(&tail, &y[bank..]).expect("absorb");
        let refit = GpcLocalizer::fit(x.clone(), y.clone(), classes, config).expect("refit");
        let queries = Matrix::from_fn(32, dim, |_, _| rng.uniform(0.0, 1.0));
        let (sa, sr) = (absorbed.scores(&queries), refit.scores(&queries));
        let max_div = sa
            .as_slice()
            .iter()
            .zip(sr.as_slice())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_div < 1e-6,
            "absorb diverges from refit beyond the tolerance tier at {bank}: {max_div:e}"
        );
        assert_eq!(
            absorbed.predict_classes(&queries),
            refit.predict_classes(&queries),
            "absorb flips predictions at {bank}"
        );

        let refit_ms = best_ms(reps, || {
            GpcLocalizer::fit(x.clone(), y.clone(), classes, config).expect("refit")
        });
        let absorb_ms = best_ms(reps, || {
            let mut g = base.clone();
            g.absorb(&tail, &y[bank..]).expect("absorb");
            g
        });

        println!(
            "recalibration bank {bank}+{added}: refit {refit_ms:.3} ms | absorb \
             {absorb_ms:.3} ms ({:.2}x) | max divergence {max_div:.3e}",
            refit_ms / absorb_ms,
        );

        let mut row = String::new();
        write!(
            row,
            "    {{\"bank\": {bank}, \"added\": {added}, \"dim\": {dim}, \
             \"classes\": {classes}, \"refit_ms\": {refit_ms:.4}, \"absorb_ms\": {absorb_ms:.4}, \
             \"absorb_speedup\": {:.3}, \"max_divergence\": {max_div:.3e}}}",
            refit_ms / absorb_ms,
        )
        .expect("write to string");
        recal_rows.push(row);
    }

    // --- The worker pool itself: nested fan-out budget and the
    //     work-reclaiming straggler profile ---
    // A job running inside a fan-out must see the full configured budget
    // (the pre-pool runtime collapsed nested fan-outs to a budget of 1) —
    // asserted here at an explicit budget so the check is meaningful even
    // on a single-core runner.
    let nested_budget = {
        let _t = par::ThreadGuard::new(4);
        par::par_run(
            (0..4)
                .map(|_| Box::new(par::threads) as Box<dyn FnOnce() -> usize + Send>)
                .collect(),
        )
        .into_iter()
        .min()
        .expect("four probe jobs")
    };
    assert!(
        nested_budget > 1,
        "a job inside a fan-out must see the configured budget, got {nested_budget}"
    );

    // Sweep-shaped mixed-cost work list: one straggler cell (a large
    // matmul, the GPC-heavy sweep cell) among many cheap ones. Under the
    // old static chunking the straggler's chunk-mates idled; with work
    // reclaiming the cheap cells drain around it. Speedup is ~1.0x on a
    // single-core runner and grows with available cores.
    let mut rng = Rng::new(0xF001);
    let big_a = Matrix::from_fn(256, 256, |_, _| rng.normal(0.0, 1.0));
    let big_b = Matrix::from_fn(256, 256, |_, _| rng.normal(0.0, 1.0));
    let small_a = Matrix::from_fn(64, 64, |_, _| rng.normal(0.0, 1.0));
    let small_b = Matrix::from_fn(64, 64, |_, _| rng.normal(0.0, 1.0));
    let straggler_jobs = || {
        let mut jobs: Vec<Box<dyn FnOnce() -> Matrix + Send>> = Vec::new();
        let (ba, bb, sa, sb) = (&big_a, &big_b, &small_a, &small_b);
        jobs.push(Box::new(move || ba.matmul(bb)));
        for _ in 0..15 {
            jobs.push(Box::new(move || sa.matmul(sb)));
        }
        jobs
    };
    par::set_threads(1);
    let straggler_serial_ms = best_ms(reps, || par::par_run(straggler_jobs()));
    par::set_threads(0);
    let straggler_parallel_ms = best_ms(reps, || par::par_run(straggler_jobs()));

    // Nested fan-out wall clock: an outer par_run whose jobs are
    // themselves row-parallel matmuls (the grid-cell → session → kernel
    // shape the sweep and grid engines produce).
    let nested_run = || {
        let (ba, bb) = (&big_a, &big_b);
        let jobs: Vec<Box<dyn FnOnce() -> Matrix + Send>> = (0..4)
            .map(|_| Box::new(move || ba.matmul(bb)) as _)
            .collect();
        par::par_run(jobs)
    };
    par::set_threads(1);
    let nested_serial_ms = best_ms(reps, nested_run);
    par::set_threads(0);
    let nested_parallel_ms = best_ms(reps, nested_run);

    println!(
        "pool: nested budget {nested_budget} (of 4) | straggler sweep serial \
         {straggler_serial_ms:.3} ms, parallel({threads}t) {straggler_parallel_ms:.3} ms ({:.2}x) \
         | nested fan-out serial {nested_serial_ms:.3} ms, parallel {nested_parallel_ms:.3} ms \
         ({:.2}x)",
        straggler_serial_ms / straggler_parallel_ms,
        nested_serial_ms / nested_parallel_ms,
    );

    // --- Fault-tolerant sweep execution: quarantine, store, shard and
    //     resume overhead on a small real KNN sweep ---
    let sweep_building = Building::generate(
        BuildingSpec {
            path_length_m: 12,
            num_aps: 16,
            ..BuildingId::B1.spec()
        },
        3,
    );
    let sweep_scenario = Scenario::generate(&sweep_building, &CollectionConfig::small(), 8);
    let knn = KnnLocalizer::fit(
        sweep_scenario.train.x.clone(),
        sweep_scenario.train.labels.clone(),
        sweep_scenario.train.num_classes(),
        3,
    );
    let soft = knn.to_soft(0.05);
    let names = vec!["KNN".to_string()];
    let labels: Vec<(String, String)> = sweep_scenario
        .test_per_device
        .iter()
        .map(|(d, _)| ("B1".to_string(), d.acronym.clone()))
        .collect();
    let data: Vec<&Dataset> = sweep_scenario
        .test_per_device
        .iter()
        .map(|(_, t)| t)
        .collect();
    let plan = SweepSpec::full_grid(vec![0.1, 0.3], vec![50.0, 100.0])
        .with_seed(5)
        .plan(&names, &labels);
    let models: Vec<&dyn Localizer> = vec![&knn];
    let exec = ExecSpec::default();
    let sweep_cells = plan.len();
    let half = sweep_cells / 2;

    // Byte-identity of every resilient path before any of them is timed.
    let reference_csv = plan.run(&models, Some(&soft), &data).to_csv();
    let ft = plan.run_fault_tolerant(&models, Some(&soft), &data, &exec);
    assert!(ft.is_complete(), "clean sweep must not quarantine cells");
    assert_eq!(
        ft.table.to_csv(),
        reference_csv,
        "fault-tolerant sweep diverges from the plain run"
    );
    let mut half_store = plan.memory_store();
    or_die(
        plan.shard(0..half)
            .run_with_store(&models, Some(&soft), &data, &exec, &mut half_store),
    );
    let mut resumed_store = plan.memory_store();
    or_die(resumed_store.merge(&half_store));
    let resumed =
        or_die(plan.run_with_store(&models, Some(&soft), &data, &exec, &mut resumed_store));
    assert_eq!(resumed.executed, sweep_cells - half);
    assert_eq!(
        resumed.table.to_csv(),
        reference_csv,
        "resumed sweep diverges from the one-shot run"
    );

    let plain_ms = best_ms(reps, || plan.run(&models, Some(&soft), &data));
    let quarantined_ms = best_ms(reps, || {
        plan.run_fault_tolerant(&models, Some(&soft), &data, &exec)
    });
    let store_ms = best_ms(reps, || {
        let mut s = plan.memory_store();
        or_die(plan.run_with_store(&models, Some(&soft), &data, &exec, &mut s)).executed
    });
    let shard_merge_ms = best_ms(reps, || {
        let mut a = plan.memory_store();
        or_die(
            plan.shard(0..half)
                .run_with_store(&models, Some(&soft), &data, &exec, &mut a),
        );
        let mut b = plan.memory_store();
        or_die(plan.shard(half..sweep_cells).run_with_store(
            &models,
            Some(&soft),
            &data,
            &exec,
            &mut b,
        ));
        or_die(a.merge(&b));
        plan.table_from_store(&a).len()
    });
    let store_path =
        std::env::temp_dir().join(format!("calloc_bench_store_{}.bin", std::process::id()));
    let disk_exec = exec.clone().with_checkpoint_every(8);
    let checkpointed_disk_ms = best_ms(reps, || {
        let _ = std::fs::remove_file(&store_path);
        let mut s = or_die(plan.open_store(&store_path));
        or_die(plan.run_with_store(&models, Some(&soft), &data, &disk_exec, &mut s)).executed
    });
    let _ = std::fs::remove_file(&store_path);
    let resume_half_ms = best_ms(reps, || {
        let mut s = plan.memory_store();
        or_die(s.merge(&half_store));
        or_die(plan.run_with_store(&models, Some(&soft), &data, &exec, &mut s)).executed
    });

    println!(
        "sweep_resilience {sweep_cells} cells: plain {plain_ms:.3} ms | quarantined \
         {quarantined_ms:.3} ms ({:.2}x of plain) | in-memory store {store_ms:.3} ms | two shards \
         + merge {shard_merge_ms:.3} ms | disk checkpoints {checkpointed_disk_ms:.3} ms | \
         resume-after-half {resume_half_ms:.3} ms ({:.2}x of plain)",
        quarantined_ms / plain_ms,
        resume_half_ms / plain_ms,
    );

    // --- Content-addressed model cache: cold training vs warm restore ---
    // A small suite (CALLOC + the classical baselines + the surrogate) is
    // trained cold into a fresh disk cache, then restored warm from a
    // reopen. Both paths are asserted to sweep to the **byte-identical**
    // CSV of a cache-off `Suite::train` before anything is timed — the
    // cache must be invisible in the results, only in the wall clock.
    let cache_profile = SuiteProfile {
        calloc: CallocConfig {
            epochs_per_lesson: 4,
            ..CallocConfig::fast()
        },
        lessons: 3,
        include_nc: false,
        include_sota: false,
        include_classical: true,
        baseline_epochs: 10,
        ..SuiteProfile::quick()
    };
    // `sweep_building` was generated with salt 3 and collected under the
    // small protocol with seed 8 — the cell identity restates exactly that.
    let mc_cell = collection_identity(sweep_building.spec(), 3, &CollectionConfig::small(), 8);
    let mc_datasets = Suite::scenario_datasets(&sweep_scenario, "B1");
    let mc_spec = SweepSpec::full_grid(vec![0.1], vec![50.0]).with_seed(5);
    let reference_mc_csv = Suite::train(&sweep_scenario, &cache_profile)
        .sweep(&mc_datasets, &mc_spec)
        .to_csv();
    let cache_path = std::env::temp_dir().join(format!(
        "calloc_bench_model_cache_{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);
    let mut mc = or_die(ModelCache::open(&cache_path));
    let cold_suite = or_die(Suite::train_cached(
        &sweep_scenario,
        &cache_profile,
        &mc_cell,
        &mut mc,
    ));
    assert_eq!(mc.hits(), 0, "a fresh cache cannot hit");
    let mc_members = mc.misses();
    let mc_entries = mc.len();
    assert_eq!(
        cold_suite.sweep(&mc_datasets, &mc_spec).to_csv(),
        reference_mc_csv,
        "cold cached suite diverges from the cache-off run"
    );
    let mut warm = or_die(ModelCache::open(&cache_path));
    let warm_suite = or_die(Suite::train_cached(
        &sweep_scenario,
        &cache_profile,
        &mc_cell,
        &mut warm,
    ));
    assert_eq!(warm.misses(), 0, "a warm cache must hit every member");
    assert_eq!(warm.hits(), mc_members, "every training must be restored");
    assert_eq!(
        warm_suite.sweep(&mc_datasets, &mc_spec).to_csv(),
        reference_mc_csv,
        "warm cached suite diverges from the cache-off run"
    );

    // Cold reps retrain the whole suite; keep them few — the warm path is
    // the one whose speed matters every run.
    let cache_cold_ms = best_ms(2, || {
        let _ = std::fs::remove_file(&cache_path);
        let mut c = or_die(ModelCache::open(&cache_path));
        or_die(Suite::train_cached(
            &sweep_scenario,
            &cache_profile,
            &mc_cell,
            &mut c,
        ))
    });
    let cache_warm_ms = best_ms(reps, || {
        let mut c = or_die(ModelCache::open(&cache_path));
        or_die(Suite::train_cached(
            &sweep_scenario,
            &cache_profile,
            &mc_cell,
            &mut c,
        ))
    });
    let _ = std::fs::remove_file(&cache_path);

    println!(
        "model_cache {mc_members} trainings ({mc_entries} cached models): cold \
         {cache_cold_ms:.3} ms | warm {cache_warm_ms:.3} ms ({:.2}x)",
        cache_cold_ms / cache_warm_ms,
    );

    // --- CALLOC attack step: input-only backward against kept memory keys ---
    // Paper-scale B1 (64 RPs x 156 APs, the default CALLOC widths). The
    // reference re-embeds the frozen memory and runs the full backward on
    // every step; the model keeps the keys with its weights and computes
    // only the input gradient. Bit-identity is asserted before timing, and
    // the speedup is timed in several rounds so its spread is on record.
    let b1 = Building::generate(BuildingId::B1.spec(), 1);
    let b1_scenario = Scenario::generate(&b1, &CollectionConfig::paper(), 1);
    let b1_train = &b1_scenario.train;
    let calloc = CallocModel::new(
        CallocModel::prototypes_from(b1_train),
        &b1_train.rp_positions,
        CallocConfig::default(),
        &mut Rng::new(1),
    );
    let b1_test = &b1_scenario.test_per_device[0].1;
    let rounds = 5;
    let mut attack_rows = Vec::new();
    for batch in [1, b1_test.len()] {
        let rows: Vec<usize> = (0..batch).collect();
        let x = b1_test.x.select_rows(&rows);
        let targets = &b1_test.labels[..batch];
        let (ref_loss, ref_grad) = seed_calloc_loss_and_input_grad_reference(&calloc, &x, targets);
        let (loss, grad) = calloc.loss_and_input_grad(&x, targets);
        assert_eq!(
            ref_loss.to_bits(),
            loss.to_bits(),
            "CALLOC attack-step loss diverges at batch {batch}"
        );
        assert_bits_eq(
            &ref_grad,
            &grad,
            &format!("CALLOC attack-step input grad diverges at batch {batch}"),
        );
        let mut full_ms = Vec::with_capacity(rounds);
        let mut fast_ms = Vec::with_capacity(rounds);
        let mut speedups = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let full = best_ms(reps, || {
                seed_calloc_loss_and_input_grad_reference(&calloc, &x, targets)
            });
            let fast = best_ms(reps, || calloc.loss_and_input_grad(&x, targets));
            full_ms.push(full);
            fast_ms.push(fast);
            speedups.push(full / fast);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (full, fast, speedup) = (
            median(&mut full_ms),
            median(&mut fast_ms),
            median(&mut speedups),
        );
        let (lo, hi) = (speedups[0], speedups[rounds - 1]);
        println!(
            "calloc_attack_step B1 batch {batch}: full backward {full:.3} ms | input-only \
             {fast:.3} ms ({speedup:.2}x, {lo:.2}-{hi:.2}x over {rounds} rounds)"
        );
        let mut row = String::new();
        write!(
            row,
            "    {{\"batch\": {batch}, \"rps\": {}, \"aps\": {}, \"full_backward_ms\": {full:.4}, \
             \"input_only_ms\": {fast:.4}, \"speedup\": {speedup:.3}, \"speedup_min\": {lo:.3}, \
             \"speedup_max\": {hi:.3}, \"speedup_spread\": {:.3}, \"rounds\": {rounds}}}",
            b1_train.num_classes(),
            b1_train.num_aps(),
            (hi - lo) / speedup,
        )
        .expect("write to string");
        attack_rows.push(row);
    }

    let json = format!(
        "{{\n  \"bench\": \"tensor_kernels\",\n  \"threads\": {threads},\n  \
         \"available_parallelism\": {available},\n  \"reps\": {reps},\n  \"matmul\": [\n{}\n  ],\n  \
         \"cholesky\": [\n{}\n  ],\n  \"pairwise_dists\": [\n{}\n  ],\n  \
         \"gpc_inference\": [\n{}\n  ],\n  \"scenario_generation\": [\n{}\n  ],\n  \
         \"scenario_grid\": {{\"cells\": {grid_cells}, \"serial_ms\": {grid_serial_ms:.4}, \
         \"parallel_ms\": {grid_parallel_ms:.4}, \"speedup\": {:.3}}},\n  \
         \"trajectory_generation\": {{\"cells\": {traj_cells}, \"seed_ms\": {traj_seed_ms:.4}, \
         \"serial_ms\": {traj_serial_ms:.4}, \"parallel_ms\": {traj_parallel_ms:.4}, \
         \"serial_speedup\": {:.3}, \"parallel_speedup\": {:.3}}},\n  \
         \"recalibration\": [\n{}\n  ],\n  \
         \"pool\": {{\"nested_budget\": {nested_budget}, \
         \"straggler_serial_ms\": {straggler_serial_ms:.4}, \
         \"straggler_parallel_ms\": {straggler_parallel_ms:.4}, \
         \"straggler_speedup\": {:.3}, \"nested_serial_ms\": {nested_serial_ms:.4}, \
         \"nested_parallel_ms\": {nested_parallel_ms:.4}, \"nested_speedup\": {:.3}}},\n  \
         \"sweep_resilience\": {{\"cells\": {sweep_cells}, \"plain_ms\": {plain_ms:.4}, \
         \"quarantined_ms\": {quarantined_ms:.4}, \"quarantine_overhead\": {:.3}, \
         \"memory_store_ms\": {store_ms:.4}, \"shard_merge_ms\": {shard_merge_ms:.4}, \
         \"checkpointed_disk_ms\": {checkpointed_disk_ms:.4}, \
         \"resume_half_ms\": {resume_half_ms:.4}, \"resume_ratio\": {:.3}}},\n  \
         \"model_cache\": {{\"trainings\": {mc_members}, \"entries\": {mc_entries}, \
         \"cold_ms\": {cache_cold_ms:.4}, \"warm_ms\": {cache_warm_ms:.4}, \
         \"warm_speedup\": {:.3}}},\n  \
         \"calloc_attack_step\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        chol_rows.join(",\n"),
        pair_rows.join(",\n"),
        gpc_rows.join(",\n"),
        scen_rows.join(",\n"),
        grid_serial_ms / grid_parallel_ms,
        traj_seed_ms / traj_serial_ms,
        traj_seed_ms / traj_parallel_ms,
        recal_rows.join(",\n"),
        straggler_serial_ms / straggler_parallel_ms,
        nested_serial_ms / nested_parallel_ms,
        quarantined_ms / plain_ms,
        resume_half_ms / plain_ms,
        cache_cold_ms / cache_warm_ms,
        attack_rows.join(",\n"),
    );
    // Crash-safe, typed-error write: a killed bench can't leave a
    // truncated snapshot that looks like results.
    or_die(calloc_eval::write_atomic(
        std::path::Path::new("BENCH_kernels.json"),
        json.as_bytes(),
    ));
    println!("wrote BENCH_kernels.json ({threads} worker threads, {available} cores available)");
}
