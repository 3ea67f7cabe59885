//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use vortest_shims::*;
use vortex_linalg::chi2;
use vortex_linalg::iterative::{conjugate_gradient, SolveOptions};

mod vortest_shims {
    pub use vortex_linalg::lu;
    pub use vortex_linalg::sparse::TripletBuilder;
    pub use vortex_linalg::stats;
    pub use vortex_linalg::vector;
    pub use vortex_linalg::Matrix;
}

fn small_f64() -> impl Strategy<Value = f64> {
    (-100.0..100.0f64).prop_filter("finite", |v| v.is_finite())
}

fn vec_of(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(small_f64(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_is_commutative(x in vec_of(8), y in vec_of(8)) {
        let a = vector::dot(&x, &y);
        let b = vector::dot(&y, &x);
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn cauchy_schwarz(x in vec_of(12), y in vec_of(12)) {
        let lhs = vector::dot(&x, &y).abs();
        let rhs = vector::norm2(&x) * vector::norm2(&y);
        prop_assert!(lhs <= rhs * (1.0 + 1e-9) + 1e-9);
    }

    #[test]
    fn triangle_inequality(x in vec_of(10), y in vec_of(10)) {
        let sum = vector::add(&x, &y);
        prop_assert!(
            vector::norm2(&sum) <= vector::norm2(&x) + vector::norm2(&y) + 1e-9
        );
    }

    #[test]
    fn matvec_is_linear(data in vec_of(12), x in vec_of(4), y in vec_of(4), a in -3.0..3.0f64) {
        let m = Matrix::from_vec(3, 4, data).unwrap();
        let ax_plus_y: Vec<f64> = x.iter().zip(&y).map(|(u, v)| a * u + v).collect();
        let lhs = m.matvec(&ax_plus_y);
        let mx = m.matvec(&x);
        let my = m.matvec(&y);
        for i in 0..3 {
            let rhs = a * mx[i] + my[i];
            prop_assert!((lhs[i] - rhs).abs() <= 1e-6 * (1.0 + rhs.abs()));
        }
    }

    #[test]
    fn transpose_involution(data in vec_of(20)) {
        let m = Matrix::from_vec(4, 5, data).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn permute_rows_preserves_multiset(data in vec_of(15), seed in 0u64..1000) {
        let m = Matrix::from_vec(5, 3, data).unwrap();
        let mut rng = vortex_linalg::rng::Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..5).collect();
        rng.shuffle(&mut perm);
        let p = m.permute_rows(&perm);
        let mut a: Vec<u64> = m.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut b: Vec<u64> = p.as_slice().iter().map(|v| v.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn lu_solve_roundtrip(diag in proptest::collection::vec(1.0..50.0f64, 6),
                          off in proptest::collection::vec(-0.4..0.4f64, 36),
                          x_true in vec_of(6)) {
        // Diagonally dominant ⇒ nonsingular.
        let m = Matrix::from_fn(6, 6, |i, j| {
            if i == j { diag[i] } else { off[i * 6 + j] }
        });
        let b = m.matvec(&x_true);
        let x = lu::solve(&m, &b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            prop_assert!((u - v).abs() < 1e-6 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn cg_agrees_with_lu_on_spd(vals in proptest::collection::vec(0.5..5.0f64, 10),
                                rhs in vec_of(10)) {
        // SPD tridiagonal system.
        let mut t = TripletBuilder::new(10, 10);
        for (i, &v) in vals.iter().enumerate() {
            t.add(i, i, 2.0 + v);
            if i > 0 {
                t.add(i, i - 1, -1.0);
                t.add(i - 1, i, -1.0);
            }
        }
        let a = t.build();
        let cg = conjugate_gradient(&a, &rhs, &SolveOptions::with_tolerance(1e-11)).unwrap();
        let direct = lu::solve(&a.to_dense(), &rhs).unwrap();
        for (u, v) in cg.x.iter().zip(&direct) {
            prop_assert!((u - v).abs() < 1e-6 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn sparse_matvec_matches_dense(entries in proptest::collection::vec(
        (0usize..6, 0usize..6, -5.0..5.0f64), 0..24), x in vec_of(6)) {
        let mut t = TripletBuilder::new(6, 6);
        for &(i, j, v) in &entries {
            t.add(i, j, v);
        }
        let sp = t.build();
        let ys = sp.matvec(&x);
        let yd = sp.to_dense().matvec(&x);
        for (a, b) in ys.iter().zip(&yd) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(xs in proptest::collection::vec(-1e3..1e3f64, 1..40),
                                          q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = stats::quantile(&xs, lo);
        let b = stats::quantile(&xs, hi);
        prop_assert!(a <= b + 1e-12);
        prop_assert!(a >= stats::min(&xs) - 1e-12);
        prop_assert!(b <= stats::max(&xs) + 1e-12);
    }

    #[test]
    fn chi2_quantile_inverts_cdf(p in 0.01..0.99f64, dof in 1usize..300) {
        let x = chi2::chi2_quantile(p, dof).unwrap();
        prop_assert!((chi2::chi2_cdf(x, dof) - p).abs() < 1e-6);
    }

    #[test]
    fn rng_uniform_in_range(seed in proptest::num::u64::ANY, lo in -10.0..0.0f64, width in 0.001..10.0f64) {
        let mut rng = vortex_linalg::rng::Xoshiro256PlusPlus::seed_from_u64(seed);
        let hi = lo + width;
        for _ in 0..50 {
            let v = rng.range_f64(lo, hi);
            prop_assert!((lo..hi).contains(&v));
        }
    }

    #[test]
    fn histogram_total_counts_everything(xs in proptest::collection::vec(-2.0..2.0f64, 0..100)) {
        let mut h = stats::Histogram::new(-1.0, 1.0, 7);
        h.extend_from(&xs);
        prop_assert_eq!(h.total(), xs.len());
    }

    #[test]
    fn split_children_never_collide_with_parent_stream(seed in proptest::num::u64::ANY,
                                                       n_children in 1usize..8) {
        // The determinism contract of the parallel executor rests on split
        // streams being disjoint: a child that replayed the parent (or a
        // sibling) would correlate Monte-Carlo trials. Drain a window of
        // every stream; all draws must be distinct (a true 64-bit
        // collision has probability ~2⁻⁵⁰ here).
        let mut parent = vortex_linalg::rng::Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut children: Vec<_> = (0..n_children).map(|_| parent.split()).collect();
        let mut draws = Vec::with_capacity(32 * (n_children + 1));
        for _ in 0..32 {
            draws.push(parent.next_u64());
        }
        for child in &mut children {
            for _ in 0..32 {
                draws.push(child.next_u64());
            }
        }
        let total = draws.len();
        draws.sort_unstable();
        draws.dedup();
        prop_assert_eq!(draws.len(), total);
    }
}
