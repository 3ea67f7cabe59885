//! Ablation studies for the design choices called out in `DESIGN.md`:
//!
//! * how loose is the Chi-square penalty bound of Eq. (7);
//! * greedy SWV mapping vs cheaper mapping policies;
//! * point (Jacobi) vs wire-line preconditioned CG vs dense LU nodal
//!   solves;
//! * self-tuned γ vs a fixed γ across variation corners.
//!
//! [`run`] renders all four as the `experiments ablation` tables. Only
//! the self-tune study depends on the [`Scale`]; the other three run at
//! fixed paper-scale sizes and are identical at every scale.

use vortex_core::amp::greedy::{greedy_map, RowMapping};
use vortex_core::amp::{sensitivity, swv};
use vortex_core::pipeline::{evaluate_hardware, HardwareEnv};
use vortex_core::report::{fixed, Table};
use vortex_core::rho::RhoConfig;
use vortex_core::tuning::SelfTuner;
use vortex_linalg::distributions::standard_normal;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::sparse::TripletBuilder;
use vortex_linalg::{iterative, lu, vector, Matrix};

use super::common::Scale;

// The fixed inputs of [`run`], named in the table titles: the
// penalty-bound study's column length, σ and draws, the mapping study's
// rows, the solver study's unknowns, and the mapping/self-tune σ.
const PENALTY_N: usize = 784;
const PENALTY_SIGMA: f64 = 0.6;
const PENALTY_DRAWS: usize = 5_000;
const MAPPING_ROWS: usize = 784;
const SOLVER_N: usize = 400;
const ABLATION_SIGMA: f64 = 0.8;

/// Tightness of the VAT penalty bound: the empirical 95th percentile of
/// the realized output deviation `|Σ x_q w_q θ_q|` vs the RMS-normalized
/// bound `ρ_rms·‖x ∘ w‖₂`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyBoundReport {
    /// Empirical 95th percentile of the deviation.
    pub empirical_q95: f64,
    /// The analytic bound used by VAT.
    pub bound: f64,
}

/// Measures the penalty-bound tightness by Monte Carlo.
///
/// # Panics
///
/// Panics only on invalid internal parameters.
pub fn penalty_bound_tightness(
    n: usize,
    sigma: f64,
    draws: usize,
    seed: u64,
) -> PenaltyBoundReport {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    // A representative input/weight pair.
    let x: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect();
    let w: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng) * 0.1).collect();
    let xw = vector::hadamard(&x, &w);
    let mut deviations: Vec<f64> = Vec::with_capacity(draws);
    for _ in 0..draws {
        let dev: f64 = xw
            .iter()
            .map(|&v| v * standard_normal(&mut rng) * sigma)
            .sum();
        deviations.push(dev.abs());
    }
    let empirical_q95 = vortex_linalg::stats::quantile(&deviations, 0.95);
    let rho_rms = RhoConfig::default().rho_rms(sigma, n).expect("valid rho");
    PenaltyBoundReport {
        empirical_q95,
        bound: rho_rms * vector::norm2(&xw),
    }
}

/// Residual summed weighted variation of three mapping policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingAblation {
    /// Greedy Algorithm 1 (sensitivity-ordered min-SWV).
    pub greedy: f64,
    /// Identity (no remapping).
    pub identity: f64,
    /// Random permutation.
    pub random: f64,
}

/// Compares mapping policies on random weights/multipliers.
///
/// # Panics
///
/// Panics only on invalid internal parameters.
pub fn mapping_ablation(m: usize, cols: usize, sigma: f64, seed: u64) -> MappingAblation {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let w = Matrix::from_fn(m, cols, |_, _| standard_normal(&mut rng));
    let mult = Matrix::from_fn(m, cols, |_, _| (standard_normal(&mut rng) * sigma).exp());
    let swv_m = swv::swv_matrix(&w, &mult).expect("swv");
    let xbar_sens = vec![1.0; m];
    let sens = sensitivity::row_sensitivity(&w, &xbar_sens);

    let total = |mapping: &RowMapping| -> f64 {
        (0..m)
            .map(|p| swv_m[(p, mapping.physical_row(p))])
            .sum::<f64>()
    };
    let greedy = total(&greedy_map(&sens, &swv_m).expect("greedy"));
    let identity = total(&RowMapping::identity(m));
    let mut perm: Vec<usize> = (0..m).collect();
    rng.shuffle(&mut perm);
    let random = total(&RowMapping::from_assignment(perm, m).expect("perm"));
    MappingAblation {
        greedy,
        identity,
        random,
    }
}

/// Nodes per wire of the [`solver_ablation`] system (a 10-column array).
const ABLATION_WIRE: usize = 10;

/// Point vs wire-line preconditioned CG on one nodal-style system, each
/// checked against dense LU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverAblation {
    /// ∞-norm gap between Jacobi-preconditioned CG and dense LU.
    pub jacobi_vs_dense: f64,
    /// ∞-norm gap between wire-line preconditioned CG and dense LU.
    pub line_vs_dense: f64,
    /// CG iterations with Jacobi preconditioning.
    pub jacobi_iterations: usize,
    /// CG iterations with wire-line preconditioning.
    pub line_iterations: usize,
}

/// Solves a mesh-like SPD system of dimension `n` with Jacobi and with
/// wire-line preconditioned CG, and measures both against dense LU.
///
/// The unknowns form wires of 10 nodes: consecutive nodes of a wire
/// couple through a 0.4 S segment, the first node of each wire is driven
/// through one more, and every node leaks to ground and couples to the
/// same position on the next wire through device-scale conductances
/// (1–100 µS).
///
/// # Panics
///
/// Panics if any solver fails (they must not on this well-conditioned
/// system).
pub fn solver_ablation(n: usize, seed: u64) -> SolverAblation {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut device = || 10f64.powf(rng.range_f64(-6.0, -4.0));
    let mut t = TripletBuilder::new(n, n);
    let couple = |t: &mut TripletBuilder, u: usize, v: usize, g: f64| {
        t.add(u, u, g);
        t.add(v, v, g);
        t.add(u, v, -g);
        t.add(v, u, -g);
    };
    for k in 0..n {
        t.add(k, k, device());
        if k % ABLATION_WIRE == 0 {
            t.add(k, k, 0.4);
        } else {
            couple(&mut t, k - 1, k, 0.4);
        }
        if k + ABLATION_WIRE < n {
            couple(&mut t, k, k + ABLATION_WIRE, device());
        }
    }
    let a = t.build();
    let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let wires = (0..n)
        .step_by(ABLATION_WIRE)
        .map(|start| iterative::Line {
            start,
            stride: 1,
            len: ABLATION_WIRE.min(n - start),
        })
        .collect();
    let opts = iterative::SolveOptions::with_tolerance(1e-9);
    let jacobi = iterative::conjugate_gradient(&a, &b, &opts).expect("jacobi cg");
    let lines = iterative::LinePreconditioner::new(&a, wires).expect("wire lines");
    let line = iterative::preconditioned_cg(&a, &b, &lines, &opts).expect("line cg");
    let dense = lu::solve(&a.to_dense(), &b).expect("lu");
    let gap = |x: &[f64]| {
        x.iter()
            .zip(&dense)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0_f64, f64::max)
    };
    SolverAblation {
        jacobi_vs_dense: gap(&jacobi.x),
        line_vs_dense: gap(&line.x),
        jacobi_iterations: jacobi.iterations,
        line_iterations: line.iterations,
    }
}

/// Hardware test rates of fixed-γ vs self-tuned VAT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTuneAblation {
    /// Fixed γ = 0 (conventional training).
    pub fixed_zero: f64,
    /// Fixed γ = 0.5.
    pub fixed_half: f64,
    /// Self-tuned γ.
    pub tuned: f64,
    /// The γ the tuner chose.
    pub tuned_gamma: f64,
}

/// Runs the self-tuning ablation at the given σ.
///
/// # Panics
///
/// Panics only on internal configuration errors.
pub fn selftune_ablation(scale: &Scale, sigma: f64) -> SelfTuneAblation {
    let (train, test) = scale.dataset(14);
    let env = HardwareEnv::with_sigma(sigma).expect("env");
    let mapping = RowMapping::identity(train.num_features());
    let mut rng = scale.rng(77);
    let eval = |w: &Matrix, rng: &mut Xoshiro256PlusPlus| {
        evaluate_hardware(w, &mapping, &env, &test, scale.mc_draws, rng)
            .expect("eval")
            .mean_test_rate
    };
    let base = scale.vat().with_sigma(sigma);
    let w0 = base.with_gamma(0.0).train(&train).expect("train");
    let w5 = base.with_gamma(0.5).train(&train).expect("train");
    let tuner = SelfTuner {
        gamma_grid: scale.gamma_grid(),
        mc_draws: scale.mc_draws.max(3),
        ..SelfTuner::default()
    };
    let tuned = tuner.tune(&base, &train).expect("tune");
    SelfTuneAblation {
        fixed_zero: eval(&w0, &mut rng),
        fixed_half: eval(&w5, &mut rng),
        tuned: eval(&tuned.weights, &mut rng),
        tuned_gamma: tuned.best_gamma,
    }
}

/// All four ablation studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationResult {
    /// Penalty-bound tightness at n = 784, σ = 0.6.
    pub penalty: PenaltyBoundReport,
    /// Mapping policies at 784×10, σ = 0.8.
    pub mapping: MappingAblation,
    /// Jacobi vs wire-line preconditioned CG at n = 400.
    pub solver: SolverAblation,
    /// Fixed vs self-tuned γ at σ = 0.8.
    pub selftune: SelfTuneAblation,
}

impl AblationResult {
    /// The four studies as structured tables.
    pub fn tables(&self) -> Vec<Table> {
        let p = &self.penalty;
        let mut penalty = Table::new(
            format!(
                "Ablation — Eq. (7) penalty bound (n = {PENALTY_N}, sigma = {PENALTY_SIGMA}, \
                 {PENALTY_DRAWS} draws)"
            ),
            &["q95 |deviation|", "bound", "bound / q95"],
        );
        penalty.add_row([
            fixed(p.empirical_q95, 4),
            fixed(p.bound, 4),
            fixed(p.bound / p.empirical_q95, 3),
        ]);

        let m = &self.mapping;
        let mut mapping = Table::new(
            format!("Ablation — row mapping ({MAPPING_ROWS}x10, sigma = {ABLATION_SIGMA})"),
            &["policy", "residual SWV"],
        );
        for (policy, swv) in [
            ("greedy (Alg. 1)", m.greedy),
            ("identity", m.identity),
            ("random", m.random),
        ] {
            mapping.add_row([policy.to_string(), fixed(swv, 2)]);
        }

        let v = &self.solver;
        let mut solver = Table::new(
            format!("Ablation — nodal solve preconditioner (n = {SOLVER_N})"),
            &["preconditioner", "CG iterations", "max |x - x_LU|"],
        );
        for (name, iterations, gap) in [
            ("Jacobi (point)", v.jacobi_iterations, v.jacobi_vs_dense),
            ("wire-line", v.line_iterations, v.line_vs_dense),
        ] {
            solver.add_row([
                name.to_string(),
                iterations.to_string(),
                format!("{gap:.2e}"),
            ]);
        }

        let t = &self.selftune;
        let mut selftune = Table::new(
            format!("Ablation — self-tuned vs fixed gamma (sigma = {ABLATION_SIGMA})"),
            &["gamma", "chosen by", "hardware test rate"],
        );
        for (gamma, by, rate) in [
            (0.0, "fixed", t.fixed_zero),
            (0.5, "fixed", t.fixed_half),
            (t.tuned_gamma, "self-tune", t.tuned),
        ] {
            selftune.add_row([fixed(gamma, 2), by.to_string(), fixed(rate, 3)]);
        }
        vec![penalty, mapping, solver, selftune]
    }

    /// Renders the four studies as text tables.
    pub fn render(&self) -> String {
        super::common::render_tables(&self.tables())
    }
}

/// Runs all four ablation studies.
///
/// # Panics
///
/// Panics only on internal configuration errors.
pub fn run(scale: &Scale) -> AblationResult {
    AblationResult {
        penalty: penalty_bound_tightness(PENALTY_N, PENALTY_SIGMA, PENALTY_DRAWS, 1),
        mapping: mapping_ablation(MAPPING_ROWS, 10, ABLATION_SIGMA, 1),
        solver: solver_ablation(SOLVER_N, 1),
        selftune: selftune_ablation(scale, ABLATION_SIGMA),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_bound_is_an_upper_guard_at_scale() {
        let r = penalty_bound_tightness(200, 0.6, 3000, 1);
        // The RMS bound should be of the right order: above the typical
        // deviation but not 10× above the 95th percentile.
        assert!(r.bound > 0.0);
        assert!(
            r.bound > r.empirical_q95 * 0.3,
            "bound {} vs q95 {}",
            r.bound,
            r.empirical_q95
        );
        assert!(
            r.bound < r.empirical_q95 * 3.0,
            "bound {} should not be wildly loose vs q95 {}",
            r.bound,
            r.empirical_q95
        );
    }

    #[test]
    fn greedy_mapping_beats_identity_and_random() {
        let r = mapping_ablation(40, 10, 0.8, 2);
        assert!(
            r.greedy <= r.identity,
            "greedy {} identity {}",
            r.greedy,
            r.identity
        );
        assert!(
            r.greedy <= r.random,
            "greedy {} random {}",
            r.greedy,
            r.random
        );
    }

    #[test]
    fn solvers_agree() {
        let r = solver_ablation(80, 3);
        assert!(
            r.jacobi_vs_dense < 1e-6,
            "jacobi vs dense {}",
            r.jacobi_vs_dense
        );
        assert!(r.line_vs_dense < 1e-6, "line vs dense {}", r.line_vs_dense);
        assert!(
            r.line_iterations < r.jacobi_iterations,
            "line {} vs jacobi {} iterations",
            r.line_iterations,
            r.jacobi_iterations
        );
    }

    #[test]
    fn selftuned_gamma_is_competitive() {
        // Quick scale: a bench-scale validation split is too noisy for a
        // meaningful comparison.
        let r = selftune_ablation(&Scale::quick(), 0.8);
        let best_fixed = r.fixed_zero.max(r.fixed_half);
        assert!(
            r.tuned >= best_fixed - 0.08,
            "tuned {} should be near the best fixed {}",
            r.tuned,
            best_fixed
        );
        assert!((0.0..=1.0).contains(&r.tuned_gamma));
    }
}
