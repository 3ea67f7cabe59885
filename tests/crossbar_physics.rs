//! Cross-crate physics validation: the circuit, device and programming
//! models must agree with each other and with first principles.

use vortex_device::pulse::precalculate_pulse;
use vortex_device::{DeviceParams, Memristor, VariationModel};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_xbar::circuit::NodalAnalysis;
use vortex_xbar::crossbar::{Crossbar, CrossbarConfig};
use vortex_xbar::irdrop::{ComputeAttenuationMap, ProgramVoltageMap};
use vortex_xbar::pretest::{pretest, PretestConfig};
use vortex_xbar::program::{program_with_protocol, ProgramOptions};
use vortex_xbar::sensing::Adc;

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

#[test]
fn mesh_solver_conserves_current() {
    // Kirchhoff: total input current == total output current.
    let m = 12;
    let n = 6;
    let na = NodalAnalysis::new(m, n, 3.0).expect("mesh");
    let g = Matrix::from_fn(m, n, |i, j| 1e-5 * (1 + (i * n + j) % 9) as f64);
    let x: Vec<f64> = (0..m).map(|i| 0.2 + 0.05 * i as f64).collect();
    let sol = na.compute(&g, &x).expect("solve");
    let out_total: f64 = sol.column_currents.iter().sum();
    // Everything the row drivers inject leaves the row wires through the
    // devices: I_in = Σ g_ij · (T(i,j) − B(i,j)).
    let in_total: f64 = g
        .as_slice()
        .iter()
        .zip(sol.device_voltages.as_slice())
        .map(|(gd, vd)| gd * vd)
        .sum();
    assert!(
        (in_total - out_total).abs() / out_total.abs() < 1e-5,
        "KCL violated: in {in_total} vs out {out_total}"
    );
}

#[test]
fn attenuation_model_validated_against_exact_mesh() {
    let m = 20;
    let n = 8;
    let na = NodalAnalysis::new(m, n, 4.0).expect("mesh");
    let mut r = rng(7);
    let g = Matrix::from_fn(m, n, |_, _| 10f64.powf(r.range_f64(-6.0, -4.0)));
    let reference: Vec<f64> = (0..m).map(|_| r.range_f64(0.2, 0.8)).collect();
    let map = ComputeAttenuationMap::calibrate(&na, &g, &reference).expect("calibrate");
    // On 20 random binary inputs the fast model stays within 15 % of the
    // exact column currents.
    for trial in 0..20 {
        let x: Vec<f64> = (0..m)
            .map(|_| if r.next_f64() < 0.5 { 1.0 } else { 0.0 })
            .collect();
        let exact = na.compute(&g, &x).expect("solve").column_currents;
        let fast = map.compute(&g, &x);
        for (j, (a, b)) in fast.iter().zip(&exact).enumerate() {
            let denom = b.abs().max(1e-9);
            assert!(
                (a - b).abs() / denom < 0.15,
                "trial {trial} col {j}: fast {a} exact {b}"
            );
        }
    }
}

#[test]
fn analytic_program_map_tracks_exact_on_mixed_states() {
    let m = 14;
    let n = 6;
    let mut r = rng(8);
    let g = Matrix::from_fn(m, n, |_, _| 10f64.powf(r.range_f64(-6.0, -4.0)));
    let na = NodalAnalysis::new(m, n, 2.5).expect("mesh");
    let v = DeviceParams::default().v_program();
    let exact = ProgramVoltageMap::from_exact(&na, &g, v).expect("exact map");
    let approx = ProgramVoltageMap::analytic(&g, 2.5, v).expect("analytic map");
    let mut worst = 0.0_f64;
    for i in 0..m {
        for j in 0..n {
            worst = worst.max((exact.factor(i, j) - approx.factor(i, j)).abs());
        }
    }
    assert!(worst < 0.12, "analytic vs exact worst error {worst}");
}

#[test]
fn open_loop_error_statistics_match_the_variation_model() {
    // Program a large crossbar open-loop and verify the realized/target
    // conductance log-ratios reproduce the lognormal σ.
    let sigma = 0.45;
    let config = CrossbarConfig {
        rows: 40,
        cols: 25,
        device: DeviceParams::default(),
        r_wire: 0.0,
        variation: VariationModel::parametric(sigma).expect("variation"),
        defects: vortex_device::defects::DefectModel::none(),
    };
    let mut r = rng(9);
    let mut xbar = Crossbar::new(config, &mut r).expect("fabricate");
    let targets = Matrix::filled(40, 25, 3e-5);
    program_with_protocol(
        &mut xbar,
        &targets,
        None,
        &ProgramOptions::default(),
        &mut r,
    )
    .expect("program");
    let g = xbar.conductances();
    let logs: Vec<f64> = g.as_slice().iter().map(|&gi| (gi / 3e-5).ln()).collect();
    let s = vortex_linalg::stats::std_dev(&logs);
    let mean = vortex_linalg::stats::mean(&logs);
    assert!(mean.abs() < 0.05, "log-ratio mean {mean}");
    assert!((s - sigma).abs() < 0.05, "log-ratio std {s} vs σ {sigma}");
}

#[test]
fn pretest_estimates_feed_correct_crossbar_state() {
    // After pre-testing, the crossbar must be back at HRS and the
    // estimates must correlate strongly with the true thetas.
    let config = CrossbarConfig {
        rows: 16,
        cols: 10,
        device: DeviceParams::default(),
        r_wire: 2.5,
        variation: VariationModel::parametric(0.6).expect("variation"),
        defects: vortex_device::defects::DefectModel::none(),
    };
    let mut r = rng(10);
    let mut xbar = Crossbar::new(config, &mut r).expect("fabricate");
    let truth = xbar.thetas();
    let cfg = PretestConfig::with_adc(Adc::new(10, 150e-6).expect("adc")).expect("config");
    let report = pretest(&mut xbar, &cfg, &mut r).expect("pretest");
    // Correlation between θ̂ and θ.
    let a = report.theta_hat.as_slice();
    let b = truth.as_slice();
    let ma = vortex_linalg::stats::mean(a);
    let mb = vortex_linalg::stats::mean(b);
    let cov: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - ma) * (y - mb))
        .sum::<f64>();
    let corr = cov
        / (vortex_linalg::stats::std_dev(a) * vortex_linalg::stats::std_dev(b) * a.len() as f64);
    assert!(corr > 0.95, "pre-test correlation {corr}");
    for i in 0..16 {
        for j in 0..10 {
            assert_eq!(xbar.device(i, j).state(), 0.0, "device ({i},{j}) not reset");
        }
    }
}

#[test]
fn device_pulse_roundtrip_through_crossbar_read() {
    // Program a single device to several targets and confirm the ideal
    // crossbar read sees exactly the programmed conductance.
    let params = DeviceParams::default();
    for &target in &[20e3, 50e3, 200e3, 800e3] {
        let mut dev = Memristor::fresh(params);
        let pulse = precalculate_pulse(&params, params.r_off(), target).expect("pulse");
        dev.apply_pulse(&pulse);
        let g = Matrix::filled(1, 1, dev.conductance());
        let y = g.vecmat(&[1.0]);
        assert!(
            (y[0] - 1.0 / target).abs() / (1.0 / target) < 2e-2,
            "target {target}: read {}",
            y[0]
        );
    }
}

#[test]
fn half_select_scheme_preserves_neighbours() {
    // Programming one device must leave the rest of an ideal crossbar
    // essentially untouched even when disturb is modeled.
    let mut xbar = Crossbar::ideal(8, 8, DeviceParams::default());
    let mut r = rng(11);
    let targets = Matrix::from_fn(8, 8, |i, j| 2e-6 + 1.2e-5 * ((i * 8 + j) % 8) as f64);
    let opts = ProgramOptions {
        compensation: None,
        half_select_disturb: true,
    };
    program_with_protocol(&mut xbar, &targets, None, &opts, &mut r).expect("program");
    // Disturb is judged against the device conductance *range*: cells
    // programmed near HRS have tiny absolute conductance, so a per-cell
    // relative metric would be dominated by numerically irrelevant drift.
    let g = xbar.conductances();
    let range = DeviceParams::default().g_on() - DeviceParams::default().g_off();
    let mut worst = 0.0_f64;
    for i in 0..8 {
        for j in 0..8 {
            worst = worst.max((g[(i, j)] - targets[(i, j)]).abs() / range);
        }
    }
    assert!(worst < 0.05, "half-select disturb too strong: {worst}");
}

#[test]
fn analytic_program_map_tracks_exact_on_large_arrays() {
    // The transmission-line analytic model must stay close to the exact
    // mesh solve even at paper scale. Sampling cells keeps this fast.
    let device = DeviceParams::default();
    let v = device.v_program();
    for &(m, gval) in &[(128usize, 1e-4f64), (256, 5e-6)] {
        let g = Matrix::filled(m, 10, gval);
        let analytic = ProgramVoltageMap::analytic(&g, 2.5, v).expect("analytic");
        let na = NodalAnalysis::new(m, 10, 2.5).expect("mesh");
        for &(p, q) in &[(0usize, 9usize), (m / 2, 5), (m - 1, 0)] {
            let exact = na.program_bias(&g, (p, q), v).expect("solve")[(p, q)] / v;
            let approx = analytic.factor(p, q);
            assert!(
                (exact - approx).abs() < 0.08,
                "{m} rows g={gval}: cell ({p},{q}) exact {exact:.4} vs analytic {approx:.4}"
            );
        }
    }
}

#[test]
fn amp_mapping_gain_is_robust_across_variation_models() {
    // §4.1.3: the proposed techniques "are not restricted to any
    // particular variation models". Empirically the greedy-vs-identity
    // mapping gain with redundancy is essentially the same for an i.i.d.
    // field and a row-dominated correlated field of equal marginal
    // spread — AMP keeps working either way.
    use vortex_core::amp;
    use vortex_core::amp::greedy::{greedy_map, RowMapping};
    use vortex_core::amp::{sensitivity, swv};
    use vortex_device::variation::CorrelatedVariationModel;

    let rows = 40;
    let physical = 55; // 15 redundant rows
    let cols = 10;
    let mut r = rng(21);
    let weights = Matrix::from_fn(rows, cols, |_, _| {
        vortex_linalg::distributions::standard_normal(&mut r) * 0.5
    });
    let x_bar = vec![0.5; rows];
    let sens = sensitivity::row_sensitivity(&weights, &x_bar);

    let gain = |field_pos: &Matrix, field_neg: &Matrix| -> f64 {
        let mp = field_pos.map(f64::exp);
        let mn = field_neg.map(f64::exp);
        let swv_m = swv::swv_matrix_pair(&weights, &mp, &mn).expect("swv");
        let greedy = greedy_map(&sens, &swv_m).expect("greedy");
        let identity = RowMapping::identity_into(rows, physical);
        amp::effective_sigma(&weights, &mp, &mn, &identity)
            - amp::effective_sigma(&weights, &mp, &mn, &greedy)
    };

    // Same marginal sigma = 0.8: i.i.d. vs row-dominated.
    let iid = CorrelatedVariationModel::new(0.8, 0.0, 0.0).expect("model");
    let row_corr = CorrelatedVariationModel::new(0.2, 0.7746, 0.0).expect("model");
    assert!((iid.total_sigma() - row_corr.total_sigma()).abs() < 1e-3);

    let mut gain_iid = 0.0;
    let mut gain_row = 0.0;
    let trials = 10;
    for k in 0..trials {
        let mut rr = rng(100 + k);
        gain_iid += gain(
            &iid.sample_theta_matrix(physical, cols, &mut rr),
            &iid.sample_theta_matrix(physical, cols, &mut rr),
        );
        let mut rr = rng(200 + k);
        gain_row += gain(
            &row_corr.sample_theta_matrix(physical, cols, &mut rr),
            &row_corr.sample_theta_matrix(physical, cols, &mut rr),
        );
    }
    let mean_iid = gain_iid / trials as f64;
    let mean_row = gain_row / trials as f64;
    assert!(
        mean_iid > 0.05,
        "i.i.d. mapping gain {mean_iid} should be real"
    );
    assert!(
        mean_row > 0.05,
        "row-correlated mapping gain {mean_row} should be real"
    );
    assert!(
        (mean_row - mean_iid).abs() < 0.15,
        "gains should be comparable: row {mean_row} vs iid {mean_iid}"
    );
}

#[test]
fn correlated_field_feeds_crossbar_fabrication() {
    use vortex_device::variation::CorrelatedVariationModel;
    let config = CrossbarConfig {
        rows: 12,
        cols: 8,
        device: DeviceParams::default(),
        r_wire: 0.0,
        variation: VariationModel::none(),
        defects: vortex_device::defects::DefectModel::none(),
    };
    let model = CorrelatedVariationModel::new(0.1, 0.6, 0.0).expect("model");
    let mut r = rng(31);
    let field = model.sample_theta_matrix(12, 8, &mut r);
    let xbar = Crossbar::with_theta_field(config, &field, &mut r).expect("fabricate");
    assert_eq!(xbar.thetas(), field);
    // Shape mismatch rejected.
    let bad = Matrix::zeros(5, 8);
    assert!(Crossbar::with_theta_field(config, &bad, &mut r).is_err());
}
