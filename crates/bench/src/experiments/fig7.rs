//! Fig. 7 — effectiveness of AMP (§5.1).
//!
//! The γ sweep of Fig. 4 repeated with and without per-chip adaptive
//! mapping. AMP reduces the *effective* variation the weights see, so the
//! with-AMP curve sits higher and peaks at a smaller γ.

use vortex_core::amp::greedy::RowMapping;
use vortex_core::amp::sensitivity::mean_abs_inputs;
use vortex_core::pipeline::{evaluate_hardware_with, HardwareEnv};
use vortex_core::report::{fixed, pct, Table};
use vortex_core::vortex::{amp_evaluate_with, AmpChipOptions};
use vortex_nn::executor::Parallelism;
use vortex_nn::metrics::accuracy_of_weights;

use super::common::Scale;

/// One γ point with both readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Point {
    /// Penalty scale γ.
    pub gamma: f64,
    /// Training rate of the VAT weights.
    pub training_rate: f64,
    /// Hardware test rate without AMP (identity mapping).
    pub test_rate_before_amp: f64,
    /// Hardware test rate with AMP (pre-test + greedy mapping, no
    /// redundancy).
    pub test_rate_after_amp: f64,
}

/// Full Fig. 7 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Sweep points in γ order.
    pub points: Vec<Fig7Point>,
    /// The device-variation σ used.
    pub sigma: f64,
}

impl Fig7Result {
    /// γ maximizing the before-AMP curve.
    pub fn best_gamma_before(&self) -> f64 {
        best_gamma(&self.points, |p| p.test_rate_before_amp)
    }

    /// γ maximizing the after-AMP curve.
    pub fn best_gamma_after(&self) -> f64 {
        best_gamma(&self.points, |p| p.test_rate_after_amp)
    }

    /// The figure as a structured table.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!("Fig. 7 — AMP effectiveness at sigma = {}", self.sigma),
            &[
                "gamma",
                "training rate",
                "test (before AMP)",
                "test (after AMP)",
            ],
        );
        for p in &self.points {
            t.add_row([
                fixed(p.gamma, 2),
                pct(p.training_rate),
                pct(p.test_rate_before_amp),
                pct(p.test_rate_after_amp),
            ]);
        }
        vec![t]
    }

    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "optimal gamma: before AMP {:.2}, after AMP {:.2}\n",
            self.best_gamma_before(),
            self.best_gamma_after()
        ));
        out
    }
}

fn best_gamma(points: &[Fig7Point], f: impl Fn(&Fig7Point) -> f64) -> f64 {
    points
        .iter()
        .max_by(|a, b| f(a).partial_cmp(&f(b)).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0.0, |p| p.gamma)
}

/// Runs the experiment at the paper's σ = 0.8 (Fig. 7/9 setting).
pub fn run(scale: &Scale) -> Fig7Result {
    run_with_sigma(scale, 0.8)
}

/// Runs the experiment at an explicit σ.
///
/// # Panics
///
/// Panics only on internal configuration errors.
pub fn run_with_sigma(scale: &Scale, sigma: f64) -> Fig7Result {
    let side = if scale.n_train >= 1000 { 28 } else { 14 };
    let (train, test) = scale.dataset(side);
    let env = HardwareEnv::with_sigma(sigma).expect("valid sigma");
    let mean_abs = mean_abs_inputs(&train);
    let amp_opts = AmpChipOptions::default();
    let identity = RowMapping::identity(train.num_features());
    let mut rng = scale.rng(7);
    let mut points = Vec::new();
    for gamma in scale.gamma_grid() {
        let trainer = scale.vat().with_sigma(sigma).with_gamma(gamma);
        let w = trainer.train(&train).expect("valid trainer");
        let training_rate = accuracy_of_weights(&w, &train);
        let before = evaluate_hardware_with(
            &w,
            &identity,
            &env,
            &test,
            scale.mc_draws,
            &mut rng,
            Parallelism::Auto,
        )
        .expect("hardware evaluation");
        let after = amp_evaluate_with(
            &w,
            &mean_abs,
            &amp_opts,
            &env,
            &test,
            scale.mc_draws,
            &mut rng,
            Parallelism::Auto,
        )
        .expect("AMP evaluation");
        points.push(Fig7Point {
            gamma,
            training_rate,
            test_rate_before_amp: before.mean_test_rate,
            test_rate_after_amp: after.mean_test_rate,
        });
    }
    Fig7Result { points, sigma }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amp_helps_on_average() {
        let r = run_with_sigma(&Scale::bench(), 0.8);
        let mean_before: f64 =
            r.points.iter().map(|p| p.test_rate_before_amp).sum::<f64>() / r.points.len() as f64;
        let mean_after: f64 =
            r.points.iter().map(|p| p.test_rate_after_amp).sum::<f64>() / r.points.len() as f64;
        assert!(
            mean_after > mean_before - 0.02,
            "AMP should help: before {mean_before} after {mean_after}"
        );
    }

    #[test]
    fn render_works() {
        let r = run_with_sigma(&Scale::bench(), 0.6);
        let s = r.render();
        assert!(s.contains("Fig. 7"));
        assert!((0.0..=1.0).contains(&r.best_gamma_before()));
        assert!((0.0..=1.0).contains(&r.best_gamma_after()));
    }
}
