//! The CI benchmark regression gate behind the `check_bench` binary.
//!
//! CI's `bench-smoke` job runs `experiments serve runtime chaos fleet
//! lifetime encoding training --quick --json`, then compares each fresh
//! `BENCH_<name>.json`
//! against its checked-in
//! `bench/baseline*.json` file: any gated floor key regressing
//! more than the allowed fraction fails the build. The baseline is
//! intentionally conservative (set well below a warm local run) so
//! ordinary runner noise passes while a genuine hot-path regression — a
//! serialized executor, an accidentally-quadratic read — still trips the
//! gate.
//!
//! Throughput is not the only thing gated: [`EXACT_KEYS`] pin
//! reliability invariants (the chaos run's `lost_requests` must equal
//! the baseline's 0 exactly) and [`CEILING_KEYS`] cap error budgets
//! (the recovered-accuracy delta must stay under the baseline ceiling).
//!
//! The workspace has no JSON parser dependency, so [`extract_number`]
//! performs the one extraction this gate needs: finding a numeric field
//! by key in a flat JSON object.

/// The floor keys the gate compares (higher is better). All but one are
/// throughput in samples/sec (requests per *virtual* second for the
/// lifetime key, which makes that floor noise-free); `kernel_gain` is a
/// unitless ratio. Baselines opt keys in: `bench/baseline.json` gates
/// the runtime experiment's reference/serial/parallel trio (the f64
/// reference kernel, the certified-f32 serial fast path, and the pooled
/// parallel batch), its serial Exact-fidelity read (which collapses if
/// Exact stops reading through its compiled transfer matrices), and
/// `kernel_gain`, serial over reference, which falls to ≈1 if the f32
/// fast path stops engaging. `bench/baseline_serve.json` gates the
/// serve experiment's serial/pooled pair, `bench/baseline_fleet.json`
/// gates the fleet experiment's five-replica drain, and
/// `bench/baseline_lifetime.json` floors the virtual throughput the
/// deployed recalibration policy sustains around its blackout windows.
pub const GATED_KEYS: [&str; 8] = [
    "reference_samples_per_sec",
    "serial_samples_per_sec",
    "parallel_samples_per_sec",
    "exact_samples_per_sec",
    "kernel_gain",
    "pooled_samples_per_sec",
    "fleet_goodput_samples_per_sec",
    "lifetime_served_per_virtual_sec",
];

/// Keys that must match the baseline **exactly** — invariants, not
/// throughput. `bench/baseline_chaos.json` pins `lost_requests` at 0:
/// any chaos run that loses an accepted request fails CI outright,
/// whatever the noise budget. `bench/baseline_lifetime.json` pins
/// `lifetime_recompile_budget_delta` at 0: the periodic-vs-predictive
/// comparison is only meaningful when both spend the same number of
/// recompiles. `bench/baseline_encoding.json` likewise pins
/// `encoding_pulse_budget_delta` at 0: the adaptive-vs-fixed accuracy
/// comparison is only honest at an identical programming pulse budget.
/// `bench/baseline_training.json` pins `training_recovery_delta_pp` at
/// 0: a chaos-battered training job must recover onto **exactly** the
/// undisturbed run's weights — any drift in the recovered test
/// accuracy, however small, is a determinism bug, not noise.
pub const EXACT_KEYS: [&str; 4] = [
    "lost_requests",
    "lifetime_recompile_budget_delta",
    "encoding_pulse_budget_delta",
    "training_recovery_delta_pp",
];

/// Keys where the baseline is a **ceiling** — current must not exceed
/// it (lower is better; a negative ceiling demands a strict win).
/// `bench/baseline_chaos.json` caps `recovered_accuracy_delta_pp` at
/// 0.5: the hot-swapped model must land within half a percentage point
/// of a fresh compile. `bench/baseline_fleet.json` caps
/// `ensemble_accuracy_delta_pp` (best single chip minus the 5-chip
/// vote, worst case over sigma ≥ 0.3) at 0: the ensemble read must beat
/// every single replica once variation dominates, or CI fails.
/// `bench/baseline_lifetime.json` caps the predictive policy's
/// accuracy-hours lost and holds
/// `predictive_minus_periodic_accuracy_hours` under a *negative*
/// ceiling: drift-predictive recalibration must strictly beat the blind
/// periodic schedule at equal recompile budget.
/// `bench/baseline_encoding.json` caps
/// `encoding_fixed_minus_adaptive_pp` (fixed 4-bit minus adaptive
/// accuracy, worst case over sigma ≥ 0.3) at 0: sensitivity-driven
/// level allocation must meet or beat the uniform grid at the same
/// pulse budget. `bench/baseline_training.json` caps
/// `training_p99_inflation_x`: the p99 inference latency with a
/// *yielding* co-resident trainer, as a multiple of inference running
/// alone — the priority-class discipline must keep the tail bounded.
/// `bench/baseline.json` caps `exact_transfer_build_ms`, the time to
/// compile one chip's Exact transfer matrices, at ~8× its wire-line
/// preconditioned cost and far below its cost under point (Jacobi)
/// preconditioning, so a fallback of the mesh solve fails CI.
pub const CEILING_KEYS: [&str; 7] = [
    "recovered_accuracy_delta_pp",
    "ensemble_accuracy_delta_pp",
    "accuracy_hours_lost_predictive",
    "predictive_minus_periodic_accuracy_hours",
    "encoding_fixed_minus_adaptive_pp",
    "training_p99_inflation_x",
    "exact_transfer_build_ms",
];

/// How a gated key is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Higher is better; fails beyond the `max_regression` fraction.
    Throughput,
    /// Must equal the baseline exactly.
    Exact,
    /// Must not exceed the baseline.
    Ceiling,
}

/// Extracts the numeric value of `"key":<number>` from a JSON document.
///
/// Matches the first occurrence of the exact quoted key; returns `None`
/// if the key is absent or its value does not parse as a finite number.
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Why a gate check could not be evaluated (distinct from a check that
/// ran and *failed* — that is a [`GateCheck`] with `pass == false`).
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// The regression threshold is outside `[0, 1)` or non-finite.
    InvalidThreshold {
        /// The rejected threshold.
        value: f64,
    },
    /// A throughput baseline is zero or negative (a floor of 0 would
    /// pass any regression).
    NonPositiveBaseline {
        /// The offending gated key.
        key: &'static str,
        /// The rejected baseline value.
        value: f64,
    },
    /// The baseline gates a key the current payload does not carry.
    MissingCurrentKey {
        /// The absent gated key.
        key: &'static str,
    },
    /// The baseline opts no gated key in — malformed JSON, NaN values
    /// and absent keys all land here, because [`extract_number`] yields
    /// no finite number for any of them.
    NoGatedKeys,
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidThreshold { value } => {
                write!(f, "max regression must lie in [0, 1), got {value}")
            }
            Self::NonPositiveBaseline { key, value } => {
                write!(f, "baseline `{key}` must be positive, got {value}")
            }
            Self::MissingCurrentKey { key } => {
                write!(f, "current payload is missing gated key `{key}`")
            }
            Self::NoGatedKeys => write!(f, "baseline contains no gated keys"),
        }
    }
}

impl std::error::Error for GateError {}

/// One gated comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// The JSON key compared.
    pub key: String,
    /// How the key is judged.
    pub kind: GateKind,
    /// Baseline value (floor, pinned value, or ceiling by kind).
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Throughput: fractional regression versus baseline (negative =
    /// improvement). Exact/ceiling: `current - baseline`.
    pub regression: f64,
    /// Whether the check passed.
    pub pass: bool,
}

/// The gate verdict over all gated keys.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Per-key comparisons, in [`GATED_KEYS`] order.
    pub checks: Vec<GateCheck>,
    /// The regression fraction that fails a check (e.g. `0.30`).
    pub max_regression: f64,
}

impl GateReport {
    /// Whether every check passed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// A human-readable per-key summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let verdict = if c.pass { "ok" } else { "FAIL" };
            match c.kind {
                GateKind::Throughput => out.push_str(&format!(
                    "{}: baseline {:.1}, current {:.1}, regression {:+.1}% (limit {:.0}%) — {}\n",
                    c.key,
                    c.baseline,
                    c.current,
                    100.0 * c.regression,
                    100.0 * self.max_regression,
                    verdict
                )),
                GateKind::Exact => out.push_str(&format!(
                    "{}: pinned {}, current {} (must match exactly) — {}\n",
                    c.key, c.baseline, c.current, verdict
                )),
                GateKind::Ceiling => out.push_str(&format!(
                    "{}: ceiling {}, current {} (must not exceed) — {}\n",
                    c.key, c.baseline, c.current, verdict
                )),
            }
        }
        out
    }
}

/// Compares `current_json` against `baseline_json` over [`GATED_KEYS`].
///
/// Keys missing from the baseline are skipped (the baseline opts keys in);
/// a gated baseline key missing from the current payload is an error, as
/// is a non-positive throughput baseline. Malformed inputs surface as
/// typed [`GateError`]s, never panics.
///
/// # Errors
///
/// Returns the [`GateError`] describing the malformed input.
pub fn check(
    current_json: &str,
    baseline_json: &str,
    max_regression: f64,
) -> Result<GateReport, GateError> {
    if !(max_regression.is_finite() && (0.0..1.0).contains(&max_regression)) {
        return Err(GateError::InvalidThreshold {
            value: max_regression,
        });
    }
    let mut checks = Vec::new();
    for key in GATED_KEYS {
        let Some(baseline) = extract_number(baseline_json, key) else {
            continue;
        };
        if baseline <= 0.0 {
            return Err(GateError::NonPositiveBaseline {
                key,
                value: baseline,
            });
        }
        let current =
            extract_number(current_json, key).ok_or(GateError::MissingCurrentKey { key })?;
        let regression = 1.0 - current / baseline;
        checks.push(GateCheck {
            key: key.to_string(),
            kind: GateKind::Throughput,
            baseline,
            current,
            regression,
            pass: regression <= max_regression,
        });
    }
    for (keys, kind) in [
        (EXACT_KEYS.as_slice(), GateKind::Exact),
        (CEILING_KEYS.as_slice(), GateKind::Ceiling),
    ] {
        for &key in keys {
            let Some(baseline) = extract_number(baseline_json, key) else {
                continue;
            };
            let current =
                extract_number(current_json, key).ok_or(GateError::MissingCurrentKey { key })?;
            checks.push(GateCheck {
                key: key.to_string(),
                kind,
                baseline,
                current,
                regression: current - baseline,
                pass: match kind {
                    GateKind::Exact => current == baseline,
                    _ => current <= baseline,
                },
            });
        }
    }
    if checks.is_empty() {
        return Err(GateError::NoGatedKeys);
    }
    Ok(GateReport {
        checks,
        max_regression,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_finds_flat_fields() {
        let json = r#"{"a":1,"serial_samples_per_sec":1234.5,"b":-2e3}"#;
        assert_eq!(extract_number(json, "serial_samples_per_sec"), Some(1234.5));
        assert_eq!(extract_number(json, "a"), Some(1.0));
        assert_eq!(extract_number(json, "b"), Some(-2000.0));
        assert_eq!(extract_number(json, "missing"), None);
        assert_eq!(extract_number(r#"{"a":"text"}"#, "a"), None);
        assert_eq!(
            extract_number(r#"{"a": 7}"#, "a"),
            Some(7.0),
            "space after colon"
        );
        assert_eq!(extract_number(r#"{"a":3}"#, "b"), None);
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond() {
        let baseline = r#"{"serial_samples_per_sec":1000.0,"parallel_samples_per_sec":4000.0}"#;
        let ok = r#"{"serial_samples_per_sec":800.0,"parallel_samples_per_sec":4100.0}"#;
        let report = check(ok, baseline, 0.30).unwrap();
        assert!(report.pass());
        assert_eq!(report.checks.len(), 2);
        assert!((report.checks[0].regression - 0.2).abs() < 1e-12);
        assert!(report.checks[1].regression < 0.0, "improvement is negative");

        let bad = r#"{"serial_samples_per_sec":600.0,"parallel_samples_per_sec":4000.0}"#;
        let report = check(bad, baseline, 0.30).unwrap();
        assert!(!report.pass());
        assert!(report.render().contains("FAIL"));
        assert!(report.render().contains("serial_samples_per_sec"));
    }

    #[test]
    fn gate_rejects_malformed_inputs_with_typed_errors() {
        let baseline = r#"{"serial_samples_per_sec":1000.0}"#;
        assert_eq!(
            check("{}", baseline, 0.30),
            Err(GateError::MissingCurrentKey {
                key: "serial_samples_per_sec"
            })
        );
        assert_eq!(check(baseline, "{}", 0.30), Err(GateError::NoGatedKeys));
        assert_eq!(
            check(baseline, r#"{"serial_samples_per_sec":0.0}"#, 0.30),
            Err(GateError::NonPositiveBaseline {
                key: "serial_samples_per_sec",
                value: 0.0
            })
        );
        assert_eq!(
            check(baseline, baseline, 1.5),
            Err(GateError::InvalidThreshold { value: 1.5 })
        );
        assert!(matches!(
            check(baseline, baseline, f64::NAN),
            Err(GateError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn gate_error_displays_and_boxes() {
        // The binary prints these and callers may `?` them into a boxed
        // error; both paths go through Display/Error.
        let e = GateError::NonPositiveBaseline {
            key: "serial_samples_per_sec",
            value: -3.0,
        };
        assert!(e.to_string().contains("serial_samples_per_sec"));
        assert!(e.to_string().contains("-3"));
        let boxed: Box<dyn std::error::Error> = Box::new(GateError::NoGatedKeys);
        assert_eq!(boxed.to_string(), "baseline contains no gated keys");
        assert!(GateError::MissingCurrentKey {
            key: "lost_requests"
        }
        .to_string()
        .contains("lost_requests"));
        assert!(GateError::InvalidThreshold { value: f64::NAN }
            .to_string()
            .contains("NaN"));
    }

    #[test]
    fn nan_and_negative_values_are_typed_failures_not_panics() {
        // A NaN baseline value never parses as a finite number, so the
        // key is skipped; if it was the only key the gate reports
        // NoGatedKeys rather than comparing against NaN.
        let nan_baseline = r#"{"serial_samples_per_sec":NaN}"#;
        assert_eq!(
            check(r#"{"serial_samples_per_sec":1.0}"#, nan_baseline, 0.30),
            Err(GateError::NoGatedKeys)
        );
        // A NaN *current* value reads as a missing key.
        let baseline = r#"{"serial_samples_per_sec":1000.0}"#;
        assert_eq!(
            check(r#"{"serial_samples_per_sec":NaN}"#, baseline, 0.30),
            Err(GateError::MissingCurrentKey {
                key: "serial_samples_per_sec"
            })
        );
        // Negative throughput floors are rejected, not silently passed.
        assert_eq!(
            check(baseline, r#"{"serial_samples_per_sec":-10.0}"#, 0.30),
            Err(GateError::NonPositiveBaseline {
                key: "serial_samples_per_sec",
                value: -10.0
            })
        );
    }

    #[test]
    fn malformed_baseline_json_is_a_typed_failure() {
        let current = r#"{"serial_samples_per_sec":1000.0}"#;
        for garbage in [
            "",
            "not json at all",
            "{\"serial_samples_per_sec\":",
            r#"{"serial_samples_per_sec":"fast"}"#,
            "[1,2,3]",
        ] {
            assert_eq!(
                check(current, garbage, 0.30),
                Err(GateError::NoGatedKeys),
                "garbage baseline {garbage:?} must fail typed, not panic"
            );
        }
    }

    #[test]
    fn negative_ceilings_demand_a_strict_win() {
        // The lifetime gate holds predictive-minus-periodic under a
        // negative ceiling: zero (a tie) must FAIL the check while a
        // clear win passes, and the ceiling boundary itself passes.
        let baseline = r#"{"predictive_minus_periodic_accuracy_hours":-0.05}"#;
        let win = check(
            r#"{"predictive_minus_periodic_accuracy_hours":-0.8}"#,
            baseline,
            0.30,
        )
        .unwrap();
        assert!(win.pass());
        let tie = check(
            r#"{"predictive_minus_periodic_accuracy_hours":0.0}"#,
            baseline,
            0.30,
        )
        .unwrap();
        assert!(!tie.pass(), "a tie is not a strict win");
        let at = check(
            r#"{"predictive_minus_periodic_accuracy_hours":-0.05}"#,
            baseline,
            0.30,
        )
        .unwrap();
        assert!(at.pass(), "exactly at the ceiling passes");
    }

    #[test]
    fn exact_keys_pin_invariants() {
        let baseline = r#"{"lost_requests":0}"#;
        let report = check(r#"{"lost_requests":0}"#, baseline, 0.30).unwrap();
        assert!(report.pass());
        assert_eq!(report.checks[0].kind, GateKind::Exact);

        // Any loss fails, even one well inside a throughput-style margin.
        let report = check(r#"{"lost_requests":1}"#, baseline, 0.30).unwrap();
        assert!(!report.pass());
        assert!(report.render().contains("must match exactly"));
        assert!(report.render().contains("FAIL"));

        assert!(
            check("{}", baseline, 0.30).is_err(),
            "missing current exact key"
        );
    }

    #[test]
    fn ceiling_keys_cap_error_budgets() {
        let baseline = r#"{"recovered_accuracy_delta_pp":0.5}"#;
        let at = check(r#"{"recovered_accuracy_delta_pp":0.5}"#, baseline, 0.30).unwrap();
        assert!(at.pass(), "exactly at the ceiling passes");
        let under = check(r#"{"recovered_accuracy_delta_pp":0.0}"#, baseline, 0.30).unwrap();
        assert!(under.pass());
        assert_eq!(under.checks[0].kind, GateKind::Ceiling);
        let over = check(r#"{"recovered_accuracy_delta_pp":0.6}"#, baseline, 0.30).unwrap();
        assert!(!over.pass());
        assert!(over.render().contains("must not exceed"));
    }

    #[test]
    fn kinds_compose_in_one_baseline() {
        let baseline = r#"{"serial_samples_per_sec":1000.0,"lost_requests":0,"recovered_accuracy_delta_pp":0.5}"#;
        let current = r#"{"serial_samples_per_sec":900.0,"lost_requests":0,"recovered_accuracy_delta_pp":0.1}"#;
        let report = check(current, baseline, 0.30).unwrap();
        assert_eq!(report.checks.len(), 3);
        assert!(report.pass());
    }

    #[test]
    fn checked_in_runtime_baseline_catches_a_lost_fast_path() {
        // Every floor and ceiling of the checked-in runtime baseline is
        // met with room to spare, but serial runs at reference speed, as
        // it does when the certified f32 path stops engaging: exactly
        // the `kernel_gain` check must fail.
        let baseline = include_str!("../../../bench/baseline.json");
        let mut fields = Vec::new();
        for key in GATED_KEYS.iter().chain(&CEILING_KEYS) {
            if let Some(v) = extract_number(baseline, key) {
                let current = match *key {
                    "kernel_gain" => 1.0,
                    k if CEILING_KEYS.contains(&k) => v / 2.0,
                    _ => v * 2.0,
                };
                fields.push(format!("\"{key}\":{current}"));
            }
        }
        let current = format!("{{{}}}", fields.join(","));
        let report = check(&current, baseline, 0.30).unwrap();
        let failed: Vec<&str> = report
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.key.as_str())
            .collect();
        assert_eq!(failed, ["kernel_gain"], "{}", report.render());
    }

    #[test]
    fn baseline_opts_keys_in() {
        // A baseline that only gates the serial path skips the parallel key.
        let baseline = r#"{"serial_samples_per_sec":100.0,"_note":"serial only"}"#;
        let current = r#"{"serial_samples_per_sec":95.0}"#;
        let report = check(current, baseline, 0.30).unwrap();
        assert_eq!(report.checks.len(), 1);
        assert!(report.pass());
    }
}
