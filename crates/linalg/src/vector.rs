//! Slice-based vector kernels.
//!
//! Vectors throughout the workspace are plain `Vec<f64>` / `&[f64]`; this
//! module provides the handful of BLAS-1 style kernels everything else is
//! written in terms of.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// 1-norm `‖x‖₁ = Σ|xᵢ|`.
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|a| a.abs()).sum()
}

/// Infinity norm `max |xᵢ|` (0 for an empty slice).
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &a| m.max(a.abs()))
}

/// In-place AXPY: `y ← y + alpha·x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling: `x ← alpha·x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise product `z = x ∘ y` (Hadamard).
///
/// This is the `V⁽ⁱ⁾` vector of the paper's Eq. (7): the VAT penalty bound
/// is `ρ·‖x ∘ w‖₂`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn hadamard(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "hadamard: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).collect()
}

/// Element-wise sum `z = x + y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `z = x − y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Index of the maximum element; ties resolve to the lowest index.
///
/// Returns `None` for an empty slice or if every element is NaN.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Linear interpolation between `a` and `b` at parameter `t ∈ [0,1]`.
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Evenly spaced grid of `n` points covering `[lo, hi]` inclusive.
///
/// Returns `[lo]` when `n == 1`; an empty vector when `n == 0`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![lo],
        _ => (0..n)
            .map(|i| lerp(lo, hi, i as f64 / (n - 1) as f64))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm1(&x), 7.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn hadamard_and_add_sub() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(hadamard(&x, &y), vec![4.0, 10.0, 18.0]);
        assert_eq!(add(&x, &y), vec![5.0, 7.0, 9.0]);
        assert_eq!(sub(&y, &x), vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn argmax_ties_and_nan() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn linspace_endpoints() {
        let g = linspace(0.0, 1.0, 5);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(2.0, 9.0, 1), vec![2.0]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
    }
}
