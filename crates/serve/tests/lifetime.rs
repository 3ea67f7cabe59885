//! The device timeline against a real compiled model: bit-determinism
//! of replayed lifetimes, mechanism composition, and the policy trait
//! driving an actual reprogram loop.

use vortex_device::drift::RetentionModel;
use vortex_device::DeviceParams;
use vortex_linalg::{Matrix, Xoshiro256PlusPlus};
use vortex_runtime::{CompiledModel, Fidelity, ReadOptions};
use vortex_serve::lifetime::{
    CanaryTriggered, DeviceTimeline, DriftPredictive, LifetimeConfig, Periodic, PolicyObservation,
    RecalibrationPolicy, TemperatureProfile, ThermalModel, WearModel, REFERENCE_C,
};
use vortex_xbar::crossbar::CrossbarConfig;
use vortex_xbar::encoding::EncodingTable;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::program::{program_with_protocol, ProgramOptions};

const ROWS: usize = 6;
const COLS: usize = 3;

/// A freshly compiled 6×3 model with a canary set — the same recipe as
/// the self-healing tests, pure in its arguments.
fn fresh_model() -> CompiledModel {
    let device = DeviceParams::default();
    let config = CrossbarConfig {
        r_wire: 8.0,
        ..CrossbarConfig::ideal(ROWS, COLS, device)
    };
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
    let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng).unwrap();
    let w = Matrix::from_fn(ROWS, COLS, |i, j| {
        ((i * COLS + j) as f64 * 0.53).sin() * 0.8
    });
    let (tp, tn) = pair.mapping().weights_to_targets(&w);
    let protocol = ProgramOptions::default();
    program_with_protocol(pair.pos_mut(), &tp, None, &protocol, &mut rng).unwrap();
    program_with_protocol(pair.neg_mut(), &tn, None, &protocol, &mut rng).unwrap();
    let assignment: Vec<usize> = (0..ROWS).collect();
    let calibration = vec![0.5; ROWS];
    CompiledModel::compile(
        &pair.freeze(),
        &assignment,
        &ReadOptions::new(Fidelity::Calibrated),
        Some(&calibration),
        EncodingTable::differential(pair.rows()),
    )
    .unwrap()
    .with_canary_inputs((0..24).map(input).collect())
    .unwrap()
}

fn input(k: usize) -> Vec<f64> {
    (0..ROWS)
        .map(|i| ((i * 7 + k) as f64 * 0.37).sin().abs())
        .collect()
}

/// A full-mechanism configuration: drift, wear, diurnal heat, thermal
/// coupling.
fn config(seed: u64) -> LifetimeConfig {
    LifetimeConfig::new(seed, RetentionModel::new(0.08, 0.05, 60.0).unwrap())
        .unwrap()
        .with_wear(WearModel::new(0.05, 50.0, 1.0).unwrap())
        .with_temperature(TemperatureProfile::Diurnal {
            base_c: 20.0,
            peak_c: 45.0,
            period_s: 86_400.0,
        })
        .unwrap()
        .with_thermal(ThermalModel::new(2e-3, 1e-3, 0.04).unwrap())
        .with_reprogram_window(300.0)
        .unwrap()
}

fn bits(m: &CompiledModel) -> Vec<u64> {
    m.realized_weights()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn equal_timelines_replay_bit_identically() {
    let mut a = DeviceTimeline::new(config(7), fresh_model());
    let mut b = DeviceTimeline::new(config(7), fresh_model());
    // Interleave materialization and reprogramming; every materialized
    // model must agree to the bit.
    let schedule = [
        (3_600.0, false),
        (40_000.0, false),
        (50_000.0, true),
        (55_000.0, false),
        (172_800.0, true),
        (200_000.0, false),
    ];
    for &(t, reprogram) in &schedule {
        if reprogram {
            a.reprogram(t).unwrap();
            b.reprogram(t).unwrap();
        }
        let (ma, mb) = (a.model_at(t).unwrap(), b.model_at(t).unwrap());
        assert_eq!(bits(&ma), bits(&mb), "replay diverged at t = {t}");
    }
    assert_eq!(a.reprograms(), 2);
    // A different seed is a different chip.
    let c = DeviceTimeline::new(config(8), fresh_model());
    assert_ne!(
        bits(&a.model_at(200_000.0).unwrap()),
        bits(&c.model_at(200_000.0).unwrap())
    );
}

#[test]
fn a_benign_timeline_is_the_identity_at_t_zero() {
    // No wear yet, reference ambient, t = 0: the materialized model is
    // the fresh compile, bit for bit.
    let retention = RetentionModel::new(0.08, 0.05, 60.0).unwrap();
    let cfg = LifetimeConfig::new(9, retention).unwrap();
    let fresh = fresh_model();
    let timeline = DeviceTimeline::new(cfg, fresh.clone());
    let at_zero = timeline.model_at(0.0).unwrap();
    assert_eq!(bits(&fresh), bits(&at_zero));
    assert_eq!(at_zero.canary_accuracy().unwrap(), 1.0);
}

#[test]
fn drift_degrades_canaries_and_reprogram_restores_them() {
    // Aggressive retention so the canaries visibly break within the
    // horizon.
    let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
    let cfg = LifetimeConfig::new(11, retention).unwrap();
    let mut timeline = DeviceTimeline::new(cfg, fresh_model());
    let aged = timeline.model_at(1e8).unwrap();
    let broken = aged.canary_accuracy().unwrap();
    assert!(broken < 1.0, "heavy drift must break the canaries");
    timeline.reprogram(1e8).unwrap();
    let healed = timeline.model_at(1e8).unwrap();
    assert!(
        healed.canary_accuracy().unwrap() > broken,
        "reprogramming must recover canary accuracy"
    );
    // The drift clock restarted: right after reprogramming, decay is
    // negligible again.
    assert_eq!(timeline.last_program_s(), 1e8);
    assert_eq!(timeline.effective_age_s(1e8), 0.0);
}

#[test]
fn wear_makes_late_reprograms_worse_in_expectation() {
    let wear = WearModel::new(0.02, 10.0, 1.0).unwrap();
    assert!(wear.sigma_at(100) > wear.sigma_at(1));
    let retention = RetentionModel::new(0.01, 0.0, 1e6).unwrap();
    let cfg = LifetimeConfig::new(13, retention).unwrap().with_wear(wear);
    let fresh = fresh_model();
    let mut timeline = DeviceTimeline::new(cfg, fresh.clone());
    let target = fresh.realized_weights();
    let mut last_err = 0.0;
    // Reprogram error (rms versus the fresh target) grows with wear over
    // many cycles; compare cycle 1 to cycle 120 well past endurance.
    for n in [1u64, 120] {
        while timeline.reprograms() < n {
            let t = 10.0 * (timeline.reprograms() + 1) as f64;
            timeline.reprogram(t).unwrap();
        }
        let worn = timeline.model_at(timeline.last_program_s()).unwrap();
        let got = worn.realized_weights();
        let rms = got
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(rms > last_err, "wear must widen the reprogram error");
        last_err = rms;
    }
    assert!(timeline.next_wear_sigma() > 0.02);
}

#[test]
fn temperature_swing_moves_the_read_and_reference_is_identity() {
    let retention = RetentionModel::new(0.0, 0.0, 1.0).unwrap(); // no drift
    let cfg = LifetimeConfig::new(17, retention)
        .unwrap()
        .with_temperature(TemperatureProfile::Constant(60.0))
        .unwrap()
        .with_thermal(ThermalModel::new(2e-3, 1e-3, 0.0).unwrap());
    let fresh = fresh_model();
    let hot = DeviceTimeline::new(cfg, fresh.clone());
    let hot_model = hot.model_at(1000.0).unwrap();
    assert_ne!(
        bits(&fresh),
        bits(&hot_model),
        "a 35-degree excursion must move conductances"
    );
    // Same chip at the reference ambient: thermal factors are exactly 1.
    let cfg_ref = LifetimeConfig::new(17, RetentionModel::new(0.0, 0.0, 1.0).unwrap())
        .unwrap()
        .with_temperature(TemperatureProfile::Constant(REFERENCE_C))
        .unwrap()
        .with_thermal(ThermalModel::new(2e-3, 1e-3, 0.0).unwrap());
    let cool = DeviceTimeline::new(cfg_ref, fresh.clone());
    assert_eq!(bits(&fresh), bits(&cool.model_at(1000.0).unwrap()));
}

#[test]
fn arrhenius_heat_ages_the_drift_clock_faster() {
    let retention = RetentionModel::new(0.08, 0.0, 60.0).unwrap();
    let hot_cfg = LifetimeConfig::new(19, retention)
        .unwrap()
        .with_temperature(TemperatureProfile::Constant(55.0))
        .unwrap()
        .with_thermal(ThermalModel::new(0.0, 0.0, 0.05).unwrap());
    let cool_cfg = LifetimeConfig::new(19, retention).unwrap();
    let hot = DeviceTimeline::new(hot_cfg, fresh_model());
    let cool = DeviceTimeline::new(cool_cfg, fresh_model());
    assert!(hot.effective_age_s(10_000.0) > cool.effective_age_s(10_000.0));
    // Same seed ⇒ same ν population, so the hotter chip is strictly more
    // decayed at every device.
    let (h, c) = (
        hot.model_at(10_000.0).unwrap().realized_weights(),
        cool.model_at(10_000.0).unwrap().realized_weights(),
    );
    let decay = |m: &Matrix| m.as_slice().iter().map(|v| v.abs()).sum::<f64>();
    assert!(
        decay(&h) < decay(&c),
        "heat must accelerate conductance loss"
    );
}

#[test]
fn virtual_time_is_monotone_and_validated() {
    let cfg = config(23);
    let mut timeline = DeviceTimeline::new(cfg, fresh_model());
    timeline.reprogram(1000.0).unwrap();
    assert!(timeline.model_at(999.0).is_err(), "before last reprogram");
    assert!(timeline.reprogram(500.0).is_err(), "time cannot rewind");
    assert!(timeline.model_at(f64::NAN).is_err());
    assert!(
        timeline.model_at(1000.0).is_ok(),
        "at the reprogram is fine"
    );
}

#[test]
fn policies_drive_a_real_reprogram_loop() {
    // Aggressive drift; the canary-triggered policy must fire at least
    // once over the horizon and each firing must restore accuracy.
    let retention = RetentionModel::new(0.6, 0.3, 1e-3).unwrap();
    let cfg = LifetimeConfig::new(29, retention).unwrap();
    let mut timeline = DeviceTimeline::new(cfg, fresh_model());
    let mut policy: Box<dyn RecalibrationPolicy> = Box::new(CanaryTriggered);
    let floor = 0.9;
    let mut recals = 0u64;
    for step in 1..=24 {
        let t = step as f64 * 2e7;
        let acc = timeline.model_at(t).unwrap().canary_accuracy().unwrap();
        let obs = PolicyObservation {
            t_s: t,
            canary_accuracy: acc,
            accuracy_floor: floor,
            since_reprogram_s: t - timeline.last_program_s(),
            reprograms: timeline.reprograms(),
        };
        if policy.decide(&obs) {
            timeline.reprogram(t).unwrap();
            policy.notify_reprogrammed(t);
            recals += 1;
            assert!(timeline.model_at(t).unwrap().canary_accuracy().unwrap() >= acc);
        }
    }
    assert!(recals > 0, "the floor must breach at least once");
    assert_eq!(timeline.reprograms(), recals);

    // The other two policies implement the same trait object interface.
    for mut p in [
        Box::new(Periodic::new(1e7).unwrap()) as Box<dyn RecalibrationPolicy>,
        Box::new(DriftPredictive::new(4, 1e6).unwrap()),
    ] {
        let _ = p.name();
        let _ = p.decide(&PolicyObservation {
            t_s: 0.0,
            canary_accuracy: 1.0,
            accuracy_floor: floor,
            since_reprogram_s: 0.0,
            reprograms: 0,
        });
    }
}
