//! Property tests for the dense linear algebra routines, centered on the
//! blocked Cholesky factorization:
//!
//! * random SPD matrices (`AᵀA` plus diagonal jitter) factor and
//!   reconstruct within 1e-9;
//! * `solve_spd` matches the explicit forward/backward triangular-solve
//!   composition;
//! * the blocked factorization is **bit-identical** to the unblocked
//!   serial kernel for every block size and thread count (the same
//!   contract `calloc_tensor::par` imposes on every parallel kernel).

use calloc_tensor::{linalg, par, Matrix, Rng};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the process-global `par` knobs.
static KNOB_LOCK: Mutex<()> = Mutex::new(());

fn lock_knobs() -> std::sync::MutexGuard<'static, ()> {
    KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A random SPD matrix: `BᵀB` is positive semi-definite, the jitter makes
/// it safely positive definite.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::new(seed);
    let b = Matrix::from_fn(n, n, |_, _| rng.normal(0.0, 1.0));
    linalg::add_diagonal(&b.transposed_matmul(&b), 1e-2 + n as f64 * 0.05)
}

fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `L·Lᵀ` reconstructs the input within 1e-9 and `L` is lower
    /// triangular with strictly positive diagonal.
    #[test]
    fn cholesky_reconstructs_random_spd(n in 1usize..48, seed in any::<u64>()) {
        let a = random_spd(n, seed);
        let l = linalg::cholesky(&a).expect("SPD by construction");
        prop_assert!(l.matmul(&l.transpose()).approx_eq(&a, 1e-9));
        for i in 0..n {
            prop_assert!(l.get(i, i) > 0.0, "non-positive diagonal at {i}");
            for j in i + 1..n {
                prop_assert_eq!(l.get(i, j), 0.0, "upper triangle not zero at ({}, {})", i, j);
            }
        }
    }

    /// `solve_spd` is exactly the forward/backward triangular-solve
    /// composition over the same factor.
    #[test]
    fn solve_spd_matches_triangular_composition(
        n in 1usize..40, rhs in 1usize..4, seed in any::<u64>()
    ) {
        let a = random_spd(n, seed);
        let mut rng = Rng::new(seed ^ 0xABCD_EF01);
        let b = Matrix::from_fn(n, rhs, |_, _| rng.normal(0.0, 2.0));
        let x = linalg::solve_spd(&a, &b).expect("solve");
        let l = linalg::cholesky(&a).expect("spd");
        let y = linalg::solve_lower_triangular(&l, &b).expect("fwd");
        let x2 = linalg::solve_upper_from_lower(&l, &y).expect("bwd");
        prop_assert!(bits_eq(&x, &x2), "solve_spd diverges from its own composition");
        prop_assert!(a.matmul(&x).approx_eq(&b, 1e-7));
    }

    /// Blocked-vs-serial bit identity: every block size must reproduce the
    /// single-panel (unblocked) kernel exactly, at several thread counts,
    /// with the fan-out work floor dropped so the parallel trailing update
    /// actually engages at test sizes.
    #[test]
    fn blocked_cholesky_is_bit_identical_across_threads(
        n in 1usize..48, nb in 1usize..16, seed in any::<u64>()
    ) {
        let _guard = lock_knobs();
        let a = random_spd(n, seed);
        let serial = linalg::cholesky_with_block(&a, usize::MAX).expect("spd");
        let _floor = par::MinWorkGuard::new(1);
        let _threads = par::ThreadGuard::new(1);
        for threads in [1usize, 2, 3, 8] {
            par::set_threads(threads);
            let blocked = linalg::cholesky_with_block(&a, nb)
                .expect("same matrix must stay positive definite");
            let default_block = linalg::cholesky(&a).expect("spd");
            prop_assert!(
                bits_eq(&serial, &blocked),
                "nb={} diverged from serial at {} threads", nb, threads
            );
            prop_assert!(
                bits_eq(&serial, &default_block),
                "default block diverged from serial at {} threads", threads
            );
        }
    }
}
