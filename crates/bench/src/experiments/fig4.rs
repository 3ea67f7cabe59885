//! Fig. 4 — the variation-tolerance vs training-rate tradeoff of VAT
//! (§4.1.2).
//!
//! Sweeping the penalty scale γ from 0 to 1: the training rate falls
//! monotonically (tighter constraints), the no-variation test rate falls
//! gently, and the *with-variation* test rate rises to an interior peak
//! before the penalty's disturbance dominates.

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::{evaluate_hardware_with, HardwareEnv};
use vortex_core::report::{fixed, pct, Table};
use vortex_nn::executor::Parallelism;
use vortex_nn::metrics::accuracy_of_weights;

use super::common::Scale;

/// One γ point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Penalty scale γ.
    pub gamma: f64,
    /// Fraction of training samples fitted.
    pub training_rate: f64,
    /// Test rate with no device variation (software evaluation).
    pub test_rate_without_variation: f64,
    /// Mean hardware test rate under variation.
    pub test_rate_with_variation: f64,
}

/// Full Fig. 4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// Sweep points in γ order.
    pub points: Vec<Fig4Point>,
    /// The device-variation σ used.
    pub sigma: f64,
}

impl Fig4Result {
    /// The γ with the best with-variation test rate.
    pub fn best_gamma(&self) -> f64 {
        self.points
            .iter()
            .max_by(|a, b| {
                a.test_rate_with_variation
                    .partial_cmp(&b.test_rate_with_variation)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map_or(0.0, |p| p.gamma)
    }

    /// The figure as a structured table.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!("Fig. 4 — gamma tradeoff at sigma = {}", self.sigma),
            &[
                "gamma",
                "training rate",
                "test rate (w/o var)",
                "test rate (w/ var)",
            ],
        );
        for p in &self.points {
            t.add_row([
                fixed(p.gamma, 2),
                pct(p.training_rate),
                pct(p.test_rate_without_variation),
                pct(p.test_rate_with_variation),
            ]);
        }
        vec![t]
    }

    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        super::common::render_tables(&self.tables())
    }
}

/// Runs the experiment at the paper's default σ = 0.6.
pub fn run(scale: &Scale) -> Fig4Result {
    run_with_sigma(scale, 0.6)
}

/// Runs the experiment at an explicit σ.
///
/// # Panics
///
/// Panics only on internal configuration errors.
pub fn run_with_sigma(scale: &Scale, sigma: f64) -> Fig4Result {
    let side = if scale.n_train >= 1000 { 28 } else { 14 };
    let (train, test) = scale.dataset(side);
    let env = HardwareEnv::with_sigma(sigma).expect("valid sigma");
    let mut rng = scale.rng(4);
    let mapping = RowMapping::identity(train.num_features());
    let gammas = scale.gamma_grid();
    let grid = scale
        .vat()
        .with_sigma(sigma)
        .train_grid(&gammas, &train, Parallelism::Auto)
        .expect("valid trainer");
    let mut points = Vec::new();
    for (gamma, w) in gammas.into_iter().zip(&grid) {
        let training_rate = accuracy_of_weights(w, &train);
        let clean = accuracy_of_weights(w, &test);
        let eval = evaluate_hardware_with(
            w,
            &mapping,
            &env,
            &test,
            scale.mc_draws,
            &mut rng,
            Parallelism::Auto,
        )
        .expect("hardware evaluation");
        points.push(Fig4Point {
            gamma,
            training_rate,
            test_rate_without_variation: clean,
            test_rate_with_variation: eval.mean_test_rate,
        });
    }
    Fig4Result { points, sigma }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_shape() {
        let r = run_with_sigma(&Scale::bench(), 0.8);
        assert!(r.points.len() >= 3);
        let first = r.points.first().unwrap();
        let last = r.points.last().unwrap();
        // Training rate does not grow with γ (allow small optimizer noise).
        assert!(
            last.training_rate <= first.training_rate + 0.05,
            "training rate γ=0 {} vs γ=1 {}",
            first.training_rate,
            last.training_rate
        );
        // With-variation is below without-variation at γ = 0 (variation
        // hurts an unprotected network).
        assert!(first.test_rate_with_variation <= first.test_rate_without_variation + 0.05);
    }

    #[test]
    fn render_and_best_gamma() {
        let r = run_with_sigma(&Scale::bench(), 0.6);
        assert!(r.render().contains("Fig. 4"));
        let g = r.best_gamma();
        assert!((0.0..=1.0).contains(&g));
    }
}
