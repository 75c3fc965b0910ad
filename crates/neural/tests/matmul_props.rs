//! Differential tests for the optimized matmul kernels: the blocked,
//! transposed-B kernel must produce **bit-identical** output to the
//! retained naive triple-loop reference across random shapes — including
//! shapes that straddle the small-matrix fast path and the tiled path,
//! and values where floating-point summation order would show through
//! (mixed magnitudes) if the kernels reordered any accumulation.

use chainnet_neural::tensor::Tensor;
use proptest::prelude::*;

fn matrix_strategy(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Tensor> {
    (rows, cols).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-1e3f64..1e3, m * n)
            .prop_map(move |data| Tensor::matrix(m, n, data))
    })
}

/// `(A (m,k), B (k,n))` pairs with conformable inner dimensions.
fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..max_dim, 1..max_dim, 1..max_dim).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-1e3f64..1e3, m * k),
            proptest::collection::vec(-1e-3f64..1e-3, k * n),
        )
            .prop_map(move |(a, b)| (Tensor::matrix(m, k, a), Tensor::matrix(k, n, b)))
    })
}

/// `(A (m,k), W (k,n))` pairs for the inference kernel `matmul_kn`: m
/// from 0 (no rows) to 9, and k, n from 1 up, so the cases include
/// n = 1, n off every block width (16 and 8), and k = 1. The weight
/// side mixes magnitudes so a reordered sum would show in the bits.
fn kn_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (0..10usize, 1..40usize, 1..40usize).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-1e3f64..1e3, m * k),
            proptest::collection::vec(-1e-3f64..1e3, k * n),
        )
            .prop_map(move |(a, w)| (Tensor::matrix(m, k, a), Tensor::matrix(k, n, w)))
    })
}

fn assert_same_bits(fast: &Tensor, slow: &Tensor) -> Result<(), String> {
    prop_assert_eq!(fast.shape(), slow.shape());
    for (x, y) in fast.data().iter().zip(slow.data()) {
        prop_assert!(x.to_bits() == y.to_bits(), "{} vs {}", x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The register-blocked inference kernel == naive reference, bit for
    /// bit, on ragged shapes.
    #[test]
    fn matmul_kn_matches_naive(pair in kn_pair()) {
        let (a, w) = pair;
        assert_same_bits(&a.matmul_kn(&w), &a.matmul_naive(&w))?;
    }

    /// The degenerate widths on their own: one output column (a head's
    /// scalar readout) and one input (k = 1), for every m in 0..10.
    #[test]
    fn matmul_kn_matches_naive_at_n1_and_k1(
        m in 0..10usize,
        k in 1..40usize,
        n in 1..40usize,
        xs in proptest::collection::vec(-1e3f64..1e3, 400),
    ) {
        for (kk, nn) in [(k, 1), (1, n)] {
            let a = Tensor::matrix(m, kk, xs[..m * kk].to_vec());
            let w = Tensor::matrix(kk, nn, xs[m * kk..m * kk + kk * nn].to_vec());
            assert_same_bits(&a.matmul_kn(&w), &a.matmul_naive(&w))?;
        }
    }

    /// Blocked kernel == naive reference, bit for bit (small shapes:
    /// exercises the fast path).
    #[test]
    fn matmul_matches_naive_small(pair in matmul_pair(12)) {
        let (a, b) = pair;
        let fast = a.matmul(&b);
        let slow = a.matmul_naive(&b);
        prop_assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!(x.to_bits() == y.to_bits(), "{} vs {}", x, y);
        }
    }

    /// matmul_bt agrees with matmul on the pre-transposed operand.
    #[test]
    fn matmul_bt_matches_matmul(pair in matmul_pair(10)) {
        let (a, b) = pair;
        let via_bt = a.matmul_bt(&b.transposed());
        let direct = a.matmul(&b);
        prop_assert_eq!(via_bt, direct);
    }

    /// A one-column B makes matmul degenerate to matvec; the optimized
    /// kernel must agree with the existing matvec bit for bit (the
    /// batched-inference path relies on exactly this equivalence).
    #[test]
    fn single_column_matmul_is_matvec(a in matrix_strategy(1..10, 1..10), xs in proptest::collection::vec(-10.0f64..10.0, 9)) {
        let k = a.cols();
        let x = Tensor::from_vec(xs[..k].to_vec());
        let b = Tensor::matrix(k, 1, x.data().to_vec());
        let mv = a.matvec(&x);
        let mm = a.matmul(&b);
        for (p, q) in mm.data().iter().zip(mv.data()) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}

/// Shapes large enough to leave the small-matrix fast path and hit the
/// tiled loop with partial edge tiles.
#[test]
fn matmul_matches_naive_beyond_fast_path() {
    for &(m, k, n) in &[(70usize, 70usize, 70usize), (33, 129, 65), (97, 64, 80)] {
        // Deterministic pseudo-random fill with mixed magnitudes.
        let fill = |len: usize, salt: u64| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(salt);
                    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                    (u - 0.5) * 10f64.powi((h % 7) as i32 - 3)
                })
                .collect()
        };
        let a = Tensor::matrix(m, k, fill(m * k, 1));
        let b = Tensor::matrix(k, n, fill(k * n, 2));
        let fast = a.matmul(&b);
        let slow = a.matmul_naive(&b);
        assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}): {x} vs {y}");
        }
    }
}
