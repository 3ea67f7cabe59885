//! Lifetime policy comparison — recalibration policies raced over a
//! virtual device lifetime (extension beyond the paper).
//!
//! One chip, three operators. The [`DeviceTimeline`] evolves a compiled
//! model over two virtual days of retention drift, write-endurance wear
//! and a diurnal temperature swing (hot afternoons age the chip faster
//! through the Arrhenius clock). Every virtual hour each
//! [`RecalibrationPolicy`] probes the canaries and decides whether to
//! reprogram; a reprogram restores accuracy but blacks the chip out for
//! a recalibration window, dropping every request that arrives inside
//! it.
//!
//! The race is scored on three axes:
//!
//! * **Accuracy-hours lost** — the integral of `max(0, floor − canary)`
//!   over the horizon: how long, and how far, the chip served below its
//!   promised floor.
//! * **Recompiles** — each one costs a blackout window. The periodic
//!   policy is granted *exactly* the drift-predictive policy's budget
//!   (`lifetime_recompile_budget_delta` is CI-gated at 0), so the
//!   comparison isolates *placement* of recalibrations, not their count.
//! * **Requests served** — a seeded diurnal arrival trace
//!   ([`TrafficGen`]) replayed against each policy's blackout windows;
//!   `lifetime_served_per_virtual_sec` is the CI-gated virtual
//!   throughput of the deployed (drift-predictive) policy.
//!
//! The paper's thesis at serving time: variation is not noise to
//! average away but structure to *anticipate*. The drift-predictive
//! policy extrapolates the canary-accuracy slope and recalibrates just
//! before the floor breach; CI gates that it strictly beats the
//! blind periodic schedule on accuracy-hours lost at the same budget
//! (`predictive_minus_periodic_accuracy_hours` ceiling < 0).
//!
//! Everything — the timeline, the policies, the traffic — is a pure
//! function of fixed seeds, so the whole table (and the
//! `BENCH_lifetime.json` payload) is bit-identical across reruns,
//! Monte-Carlo thread counts and pool sizes; the determinism test
//! asserts `run == run`.

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::report::{fixed, Table};
use vortex_device::drift::RetentionModel;
use vortex_runtime::CompiledModel;
use vortex_serve::lifetime::{
    CanaryTriggered, DeviceTimeline, DriftPredictive, LifetimeConfig, Periodic, PolicyObservation,
    RecalibrationPolicy, TemperatureProfile, ThermalModel, WearModel,
};

use super::common::Scale;
use crate::traffic::{ArrivalProcess, TrafficGen};

/// Device-timeline master seed.
const LIFETIME_SEED: u64 = 4242;
/// Arrival-trace seed (independent of the device seed).
const TRAFFIC_SEED: u64 = 0x11FE;
/// Virtual horizon: two days.
const HORIZON_S: f64 = 172_800.0;
/// Probe cadence: one virtual hour.
const PROBE_S: f64 = 3_600.0;
/// Canary-accuracy floor the deployment promises.
const ACCURACY_FLOOR: f64 = 0.9;
/// Canary probes frozen into the model.
const CANARIES: usize = 48;
/// Virtual seconds a reprogram blacks the chip out.
const REPROGRAM_S: f64 = 900.0;
/// Retention drift: mean and device spread of the decay exponent ν, and
/// the knee τ (seconds). Tuned so the canaries sag over a working day.
const NU_MEAN: f64 = 0.12;
const NU_SIGMA: f64 = 0.05;
const TAU_S: f64 = 3_600.0;
/// Wear: log-spread of reprogram 1 and the endurance rating.
const WEAR_SIGMA_FRESH: f64 = 0.005;
const WEAR_ENDURANCE: f64 = 200.0;
/// Diurnal ambient swing (°C) on a one-day period.
const BASE_C: f64 = 20.0;
const PEAK_C: f64 = 45.0;
const DAY_S: f64 = 86_400.0;
/// Thermal coupling: mean tempco, device spread, Arrhenius acceleration.
const TEMPCO: f64 = 1e-3;
const TEMPCO_SIGMA: f64 = 5e-4;
const ARRHENIUS: f64 = 0.02;
/// Drift-predictive fit window (probes) and lookahead (virtual seconds).
const PREDICT_WINDOW: usize = 6;
const PREDICT_LEAD_S: f64 = 3.0 * PROBE_S;
/// Diurnal arrival rates (requests per virtual second).
const ARRIVAL_BASE: f64 = 0.02;
const ARRIVAL_PEAK: f64 = 0.10;

/// How one policy fared over the horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Policy name (from [`RecalibrationPolicy::name`]).
    pub name: &'static str,
    /// Reprograms the policy spent.
    pub recompiles: u64,
    /// Integral of `max(0, floor − canary accuracy)` over the horizon,
    /// in accuracy·hours — the headline cost.
    pub accuracy_hours_lost: f64,
    /// Probes that found the canaries below the floor.
    pub breach_probes: usize,
    /// Worst canary accuracy any probe observed.
    pub min_canary_accuracy: f64,
    /// Arrivals answered (outside every recalibration blackout).
    pub served: usize,
    /// Arrivals dropped inside recalibration blackouts.
    pub missed_in_blackout: usize,
}

/// Result of the lifetime policy race.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeBenchResult {
    /// Physical crossbar rows of the compiled model.
    pub rows: usize,
    /// Crossbar columns (= classes).
    pub cols: usize,
    /// Virtual horizon (seconds).
    pub horizon_s: f64,
    /// Probe cadence (virtual seconds).
    pub probe_s: f64,
    /// The promised canary-accuracy floor.
    pub accuracy_floor: f64,
    /// Arrivals in the traffic trace.
    pub arrivals: usize,
    /// Outcomes in `[canary-triggered, periodic, drift-predictive]`
    /// order.
    pub outcomes: Vec<PolicyOutcome>,
}

impl LifetimeBenchResult {
    fn outcome(&self, name: &str) -> &PolicyOutcome {
        self.outcomes
            .iter()
            .find(|o| o.name == name)
            .expect("all three policies ran")
    }

    /// The reactive baseline (today's `HealthMonitor`).
    pub fn canary(&self) -> &PolicyOutcome {
        self.outcome("canary-triggered")
    }

    /// The blind cadence at the predictive policy's budget.
    pub fn periodic(&self) -> &PolicyOutcome {
        self.outcome("periodic")
    }

    /// The slope-extrapolating policy — the one a deployment would run.
    pub fn predictive(&self) -> &PolicyOutcome {
        self.outcome("drift-predictive")
    }

    /// Accuracy-hours advantage of predictive over periodic (negative =
    /// predictive wins); the CI-gated ceiling.
    pub fn predictive_minus_periodic_accuracy_hours(&self) -> f64 {
        self.predictive().accuracy_hours_lost - self.periodic().accuracy_hours_lost
    }

    /// Periodic-minus-predictive recompile count — pinned at 0 in CI so
    /// the comparison stays budget-fair.
    pub fn recompile_budget_delta(&self) -> i64 {
        self.periodic().recompiles as i64 - self.predictive().recompiles as i64
    }

    /// Requests the deployed (predictive) policy answers per virtual
    /// second — the CI-gated virtual throughput. No wall clock is
    /// involved, so the value is bit-deterministic.
    pub fn served_per_virtual_sec(&self) -> f64 {
        self.predictive().served as f64 / self.horizon_s
    }

    /// The experiment as structured tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Lifetime policy race — {}x{} model, {:.0} h horizon, floor {:.2}, {} arrivals",
                self.rows,
                self.cols,
                self.horizon_s / 3600.0,
                self.accuracy_floor,
                self.arrivals
            ),
            &[
                "policy",
                "recompiles",
                "acc-hours lost",
                "breach probes",
                "min canary",
                "served",
                "missed",
            ],
        );
        for o in &self.outcomes {
            t.add_row([
                o.name.to_string(),
                o.recompiles.to_string(),
                fixed(o.accuracy_hours_lost, 4),
                o.breach_probes.to_string(),
                fixed(o.min_canary_accuracy, 4),
                o.served.to_string(),
                o.missed_in_blackout.to_string(),
            ]);
        }
        vec![t]
    }

    /// Renders the race as a text table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "predictive vs periodic at equal budget ({} recompiles): {:+.4} accuracy-hours\n",
            self.predictive().recompiles,
            self.predictive_minus_periodic_accuracy_hours()
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_lifetime.json` payload): the
    /// flat CI-gated fields plus the structured tables. Contains no
    /// wall-clock quantity, so reruns produce byte-identical files.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"rows\":{},\"cols\":{},\"horizon_s\":{:.1},\"probe_s\":{:.1},",
                "\"accuracy_floor\":{:.3},\"arrivals\":{},",
                "\"lifetime_served_per_virtual_sec\":{:.6},",
                "\"accuracy_hours_lost_predictive\":{:.6},",
                "\"predictive_minus_periodic_accuracy_hours\":{:.6},",
                "\"lifetime_recompile_budget_delta\":{}"
            ),
            self.rows,
            self.cols,
            self.horizon_s,
            self.probe_s,
            self.accuracy_floor,
            self.arrivals,
            self.served_per_virtual_sec(),
            self.predictive().accuracy_hours_lost,
            self.predictive_minus_periodic_accuracy_hours(),
            self.recompile_budget_delta(),
        );
        for o in &self.outcomes {
            let tag = o.name.replace('-', "_");
            out.push_str(&format!(
                concat!(
                    ",\"recompiles_{tag}\":{},\"accuracy_hours_lost_{tag}\":{:.6},",
                    "\"served_{tag}\":{},\"missed_{tag}\":{},\"min_canary_{tag}\":{:.6}"
                ),
                o.recompiles,
                o.accuracy_hours_lost,
                o.served,
                o.missed_in_blackout,
                o.min_canary_accuracy,
                tag = tag,
            ));
        }
        out.push_str(&format!(
            ",\"tables\":{}}}",
            super::common::tables_to_json(&self.tables())
        ));
        out
    }
}

/// The shared timeline configuration: every policy races the *same*
/// chip (same seed, same mechanisms).
fn lifetime_config() -> LifetimeConfig {
    LifetimeConfig::new(
        LIFETIME_SEED,
        RetentionModel::new(NU_MEAN, NU_SIGMA, TAU_S).expect("valid retention"),
    )
    .expect("valid defaults")
    .with_wear(WearModel::new(WEAR_SIGMA_FRESH, WEAR_ENDURANCE, 1.0).expect("valid wear"))
    .with_temperature(TemperatureProfile::Diurnal {
        base_c: BASE_C,
        peak_c: PEAK_C,
        period_s: DAY_S,
    })
    .expect("valid profile")
    .with_thermal(ThermalModel::new(TEMPCO, TEMPCO_SIGMA, ARRHENIUS).expect("valid thermal"))
    .with_reprogram_window(REPROGRAM_S)
    .expect("valid window")
}

/// Replays one policy over the horizon: probe every [`PROBE_S`], act on
/// a trigger (up to `budget` reprograms), and score the blackout windows
/// against the arrival trace. Pure in its arguments.
fn run_policy(
    fresh: &CompiledModel,
    mut policy: Box<dyn RecalibrationPolicy>,
    budget: Option<u64>,
    arrivals: &[f64],
) -> PolicyOutcome {
    let mut timeline = DeviceTimeline::new(lifetime_config(), fresh.clone());
    let probes = (HORIZON_S / PROBE_S) as usize;
    let mut accuracy_hours_lost = 0.0;
    let mut breach_probes = 0;
    let mut min_canary_accuracy = f64::INFINITY;
    let mut blackouts: Vec<(f64, f64)> = Vec::new();
    for k in 1..=probes {
        let t = k as f64 * PROBE_S;
        let acc = timeline
            .model_at(t)
            .expect("monotone probe times")
            .canary_accuracy()
            .expect("model carries canaries");
        accuracy_hours_lost += (ACCURACY_FLOOR - acc).max(0.0) * PROBE_S / 3600.0;
        if acc < ACCURACY_FLOOR {
            breach_probes += 1;
        }
        min_canary_accuracy = min_canary_accuracy.min(acc);
        let triggered = policy.decide(&PolicyObservation {
            t_s: t,
            canary_accuracy: acc,
            accuracy_floor: ACCURACY_FLOOR,
            since_reprogram_s: t - timeline.last_program_s(),
            reprograms: timeline.reprograms(),
        });
        if triggered && budget.map_or(true, |b| timeline.reprograms() < b) {
            timeline.reprogram(t).expect("monotone reprogram times");
            policy.notify_reprogrammed(t);
            blackouts.push((t, t + REPROGRAM_S));
        }
    }
    let missed_in_blackout = arrivals
        .iter()
        .filter(|&&a| blackouts.iter().any(|&(s, e)| a >= s && a < e))
        .count();
    PolicyOutcome {
        name: policy.name(),
        recompiles: timeline.reprograms(),
        accuracy_hours_lost,
        breach_probes,
        min_canary_accuracy,
        served: arrivals.len() - missed_in_blackout,
        missed_in_blackout,
    }
}

/// Runs the experiment: compile one chip, race the three policies over
/// the same virtual lifetime, score against the same traffic trace.
/// Deterministic end to end.
///
/// # Panics
///
/// Panics only on internal configuration errors (the constants are
/// valid) or if the drift never forces a single recalibration (the
/// constants are tuned so it always does).
pub fn run(scale: &Scale) -> LifetimeBenchResult {
    let (train, test) = scale.dataset(7);
    let weights = scale.gdt().train(&train).expect("training");
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(0.4)
        .expect("valid sigma")
        .with_ir_drop(5.0);
    let calibration = test.mean_input();
    let canaries: Vec<Vec<f64>> = (0..CANARIES)
        .map(|k| test.image(k % test.len()).to_vec())
        .collect();
    let fresh = env
        .compiler()
        .with_calibration(&calibration)
        .request(&weights, &mapping)
        .compile_with(&mut scale.rng(78))
        .expect("compile")
        .with_canary_inputs(canaries)
        .expect("canary freeze");

    let arrivals: Vec<f64> = TrafficGen::new(
        ArrivalProcess::diurnal_ramp(ARRIVAL_BASE, ARRIVAL_PEAK, DAY_S),
        TRAFFIC_SEED,
    )
    .take_while(|&t| t < HORIZON_S)
    .collect();

    // The predictive policy runs first and sets the recompile budget;
    // the periodic policy then gets the same number of reprograms,
    // spread evenly (its cadence is the horizon divided by the budget,
    // snapped to the probe grid), so the race compares *placement* at
    // equal cost.
    let predictive = run_policy(
        &fresh,
        Box::new(DriftPredictive::new(PREDICT_WINDOW, PREDICT_LEAD_S).expect("valid predictor")),
        None,
        &arrivals,
    );
    let budget = predictive.recompiles;
    assert!(budget > 0, "drift must force at least one recalibration");
    let probes = (HORIZON_S / PROBE_S) as u64;
    let cadence_probes = (probes / budget).max(1);
    let periodic = run_policy(
        &fresh,
        Box::new(Periodic::new(cadence_probes as f64 * PROBE_S).expect("valid cadence")),
        Some(budget),
        &arrivals,
    );
    let canary = run_policy(&fresh, Box::new(CanaryTriggered), None, &arrivals);

    LifetimeBenchResult {
        rows: fresh.rows(),
        cols: fresh.classes(),
        horizon_s: HORIZON_S,
        probe_s: PROBE_S,
        accuracy_floor: ACCURACY_FLOOR,
        arrivals: arrivals.len(),
        outcomes: vec![canary, periodic, predictive],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::chaos::json_field;

    #[test]
    fn lifetime_run_is_deterministic() {
        let a = run(&Scale::bench());
        let b = run(&Scale::bench());
        assert_eq!(a, b, "same seeds must replay the same lifetime");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn predictive_beats_periodic_at_equal_budget() {
        let r = run(&Scale::bench());
        assert_eq!(r.recompile_budget_delta(), 0, "budgets must match");
        assert!(r.predictive().recompiles > 0);
        assert!(
            r.predictive_minus_periodic_accuracy_hours() < 0.0,
            "predictive must strictly beat periodic: {:+.4}",
            r.predictive_minus_periodic_accuracy_hours()
        );
        // The reactive baseline breaches by construction — it only acts
        // after the floor is gone.
        assert!(r.canary().breach_probes > 0);
        assert!(r.served_per_virtual_sec() > 0.0);
        for o in &r.outcomes {
            assert_eq!(o.served + o.missed_in_blackout, r.arrivals);
        }
    }

    #[test]
    fn json_carries_the_gated_fields() {
        let r = run(&Scale::bench());
        let j = r.to_json();
        for key in [
            "rows",
            "cols",
            "horizon_s",
            "probe_s",
            "accuracy_floor",
            "arrivals",
            "lifetime_served_per_virtual_sec",
            "accuracy_hours_lost_predictive",
            "predictive_minus_periodic_accuracy_hours",
            "lifetime_recompile_budget_delta",
            "recompiles_periodic",
            "accuracy_hours_lost_canary_triggered",
            "served_drift_predictive",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
        assert_eq!(
            crate::gate::extract_number(&j, "lifetime_recompile_budget_delta"),
            Some(0.0),
            "the gate must see a zero budget delta"
        );
    }
}
