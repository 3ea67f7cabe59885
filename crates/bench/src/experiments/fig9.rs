//! Fig. 9 — design redundancy vs test rate (§5.3).
//!
//! At σ = 0.8 and increasing redundant-row budgets `p`, compare Vortex
//! (VAT + AMP), VAT alone, and AMP alone, against the OLD and CLD
//! baselines (which use no redundancy). Expected shape: redundancy helps,
//! but the test rate is dominated by variation; Vortex without redundancy
//! already beats both baselines.

use vortex_core::amp::greedy::RowMapping;
use vortex_core::amp::sensitivity::mean_abs_inputs;
use vortex_core::cld::CldTrainer;
use vortex_core::old::OldPipeline;
use vortex_core::pipeline::{evaluate_hardware_with, HardwareEnv};
use vortex_core::report::{pct, Table};
use vortex_core::tuning::SelfTuner;
use vortex_core::vortex::{amp_evaluate_with, AmpChipOptions};
use vortex_nn::executor::Parallelism;
use vortex_nn::metrics::accuracy_of_weights;

use super::common::Scale;

/// One redundancy point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Point {
    /// Redundant rows `p`.
    pub redundant_rows: usize,
    /// Vortex (tuned VAT + AMP).
    pub vortex: f64,
    /// VAT alone (tuned γ, identity mapping — redundancy unused).
    pub vat_only: f64,
    /// AMP alone (plain GDT weights + AMP mapping).
    pub amp_only: f64,
}

/// Full Fig. 9 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// Redundancy sweep.
    pub points: Vec<Fig9Point>,
    /// OLD baseline test rate (no redundancy).
    pub old_baseline: f64,
    /// CLD baseline test rate (no redundancy).
    pub cld_baseline: f64,
    /// σ used.
    pub sigma: f64,
    /// The tuned γ Vortex selected.
    pub tuned_gamma: f64,
}

impl Fig9Result {
    /// The figure as a structured table.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Fig. 9 — redundancy vs test rate at sigma = {} (OLD {} / CLD {})",
                self.sigma,
                pct(self.old_baseline),
                pct(self.cld_baseline)
            ),
            &["extra rows p", "Vortex", "VAT only", "AMP only"],
        );
        for p in &self.points {
            t.add_row([
                p.redundant_rows.to_string(),
                pct(p.vortex),
                pct(p.vat_only),
                pct(p.amp_only),
            ]);
        }
        vec![t]
    }

    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!("tuned gamma: {:.2}\n", self.tuned_gamma));
        out
    }
}

/// Runs the experiment at the paper's σ = 0.8.
pub fn run(scale: &Scale) -> Fig9Result {
    run_with_sigma(scale, 0.8)
}

/// Runs the experiment at an explicit σ.
///
/// # Panics
///
/// Panics only on internal configuration errors.
pub fn run_with_sigma(scale: &Scale, sigma: f64) -> Fig9Result {
    let side = if scale.n_train >= 1000 { 28 } else { 14 };
    let (train, test) = scale.dataset(side);
    let n = train.num_features();
    let env = HardwareEnv::with_sigma(sigma).expect("valid sigma");
    let mean_abs = mean_abs_inputs(&train);
    let mut rng = scale.rng(9);

    // Tune γ once (the paper fixes the scheme, then sweeps p).
    let tuner = SelfTuner {
        gamma_grid: scale.gamma_grid(),
        mc_draws: scale.mc_draws.max(3),
        parallelism: Parallelism::Auto,
        ..SelfTuner::default()
    };
    let tuned = tuner
        .tune(&scale.vat().with_sigma(sigma), &train)
        .expect("tuning");
    let w_vat = tuned.weights.clone();
    let w_gdt = scale.gdt().train(&train).expect("gdt training");
    let identity = RowMapping::identity(n);

    // Baselines (no redundancy).
    let old = OldPipeline {
        trainer: scale.gdt(),
        mc_draws: scale.mc_draws,
    }
    .run(&train, &test, &env, &mut rng)
    .expect("OLD baseline");
    let cld = CldTrainer {
        epochs: scale.epochs.max(12),
        mc_draws: scale.mc_draws,
        ..CldTrainer::default()
    }
    .run(&train, &test, &env, &mut rng)
    .expect("CLD baseline");

    let redundancies: &[usize] = if scale.n_train >= 1000 {
        &[0, 50, 100, 200]
    } else {
        &[0, 10, 25, 50]
    };
    let mut points = Vec::with_capacity(redundancies.len());
    // VAT-only does not use redundancy: evaluate once.
    let vat_only = evaluate_hardware_with(
        &w_vat,
        &identity,
        &env,
        &test,
        scale.mc_draws,
        &mut rng,
        Parallelism::Auto,
    )
    .expect("VAT-only evaluation")
    .mean_test_rate;
    for &p in redundancies {
        let opts = AmpChipOptions {
            redundant_rows: p,
            ..AmpChipOptions::default()
        };
        let vortex = amp_evaluate_with(
            &w_vat,
            &mean_abs,
            &opts,
            &env,
            &test,
            scale.mc_draws,
            &mut rng,
            Parallelism::Auto,
        )
        .expect("Vortex evaluation")
        .mean_test_rate;
        let amp_only = amp_evaluate_with(
            &w_gdt,
            &mean_abs,
            &opts,
            &env,
            &test,
            scale.mc_draws,
            &mut rng,
            Parallelism::Auto,
        )
        .expect("AMP-only evaluation")
        .mean_test_rate;
        points.push(Fig9Point {
            redundant_rows: p,
            vortex,
            vat_only,
            amp_only,
        });
    }
    let _ = accuracy_of_weights(&w_vat, &train);
    Fig9Result {
        points,
        old_baseline: old.rates.test_rate,
        cld_baseline: cld.rates.test_rate,
        sigma,
        tuned_gamma: tuned.best_gamma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vortex_beats_old_baseline() {
        let r = run_with_sigma(&Scale::bench(), 0.8);
        let no_redundancy = &r.points[0];
        assert!(
            no_redundancy.vortex > r.old_baseline - 0.03,
            "Vortex {} vs OLD {}",
            no_redundancy.vortex,
            r.old_baseline
        );
    }

    #[test]
    fn redundancy_does_not_hurt() {
        let r = run_with_sigma(&Scale::bench(), 0.8);
        let first = r.points.first().unwrap().vortex;
        let last = r.points.last().unwrap().vortex;
        assert!(
            last > first - 0.06,
            "more redundancy should not hurt much: p=0 {first} vs max {last}"
        );
    }

    #[test]
    fn render_works() {
        let r = run_with_sigma(&Scale::bench(), 0.6);
        let s = r.render();
        assert!(s.contains("Fig. 9"));
        assert!(s.contains("Vortex"));
    }
}
