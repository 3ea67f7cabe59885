//! Weight-encoding comparison — continuous differential pairs versus
//! fixed multi-level quantization versus sensitivity-driven adaptive
//! row quantization (extension beyond the paper).
//!
//! One trained side-14 model (196 physical rows — an even count, so the
//! adaptive 3/5-bit split at fine fraction ½ spends *exactly* the fixed
//! 4-bit pulse budget) is compiled under every encoding at each sigma,
//! averaged over the scale's Monte-Carlo fabrication seeds. The table
//! reports accuracy, effective bits per device and the total programming
//! pulse budget; a 1T-1R row shows the NEAT-style pre-distorted compile
//! on the same substrate. Everything is seeded computation —
//! bit-identical on every run — so CI gates two flat keys exactly:
//!
//! * `encoding_pulse_budget_delta` (adaptive pulses − fixed pulses) is
//!   pinned at 0 — the comparison is only meaningful at equal budget.
//! * `encoding_fixed_minus_adaptive_pp` (fixed 4-bit accuracy minus
//!   adaptive accuracy, percentage points, worst case over sigma ≥ 0.3)
//!   has a ceiling of 0 — spending the same pulses where the AMP
//!   sensitivity `|x̄·w|` says they matter must not lose accuracy.

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::report::{fixed, Table};
use vortex_device::cell::CellKind;
use vortex_xbar::encoding::EncodingSpec;

use vortex_nn::dataset::{DatasetConfig, SynthDigits};

use super::common::Scale;

/// Sigma grid of the sweep; the accuracy gate covers ≥ 0.3.
pub const SIGMAS: [f64; 3] = [0.15, 0.30, 0.45];
/// Image side of the benchmark model: 196 physical rows, an even count
/// (see the module docs — equal pulse budget needs one).
const SIDE: usize = 14;
/// Bits per device of the fixed multi-level encoding.
const FIXED_BITS: u8 = 4;
/// Coarse/fine bits of the adaptive encoding; at fine fraction ½ the
/// mean pulse cost equals the fixed encoding's exactly. A 3/5 split
/// quadruples the coarse rows' squared quantization error versus the
/// uniform grid — mild enough that the sensitivity skew pays for it (a
/// 2/6 split's 16× coarse penalty measurably does not on this model).
const LOW_BITS: u8 = 3;
const HIGH_BITS: u8 = 5;
const FINE_FRACTION: f64 = 0.5;
/// Access-transistor series resistance of the 1T-1R row (Ω).
const R_ACCESS: f64 = 3.0e3;
/// Fabrication-seed stream tag.
const SEED_TAG: u64 = 0xE9C0D;
/// Eval samples per class (600 total) and the fabrication-draw floor:
/// the adaptive-vs-fixed margin is well under a percentage point, so a
/// scale's 2-draw / 150-sample quick settings would measure sampling
/// luck, not encodings (the same reasoning as the fleet experiment's
/// dedicated eval set).
const EVAL_PER_CLASS: usize = 60;
const MIN_DRAWS: usize = 16;

/// One (sigma, encoding) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingRow {
    /// Programming-noise sigma.
    pub sigma: f64,
    /// Encoding name.
    pub encoding: &'static str,
    /// Mean accuracy over the Monte-Carlo draws.
    pub accuracy: f64,
    /// Mean bits per quantized device (infinite for continuous rows).
    pub effective_bits: f64,
    /// Total programming pulses for the whole differential pair.
    pub pulses: u64,
}

/// Result of the encoding experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingResult {
    /// The sweep, grouped by sigma in encoding order.
    pub rows: Vec<EncodingRow>,
    /// Fabrication draws behind each accuracy cell.
    pub mc_draws: usize,
}

impl EncodingResult {
    fn rows_named(&self, name: &'static str) -> impl Iterator<Item = &EncodingRow> {
        self.rows.iter().filter(move |r| r.encoding == name)
    }

    fn high_sigma_accuracy(&self, name: &'static str) -> f64 {
        self.rows_named(name)
            .last()
            .map(|r| r.accuracy)
            .unwrap_or(f64::NAN)
    }

    fn pulses_of(&self, name: &'static str) -> u64 {
        self.rows_named(name).map(|r| r.pulses).max().unwrap_or(0)
    }

    /// Adaptive minus fixed total programming pulses — the pinned gate
    /// key: 0 means the two encodings spend the same budget.
    pub fn encoding_pulse_budget_delta(&self) -> i64 {
        self.pulses_of("adaptive") as i64 - self.pulses_of("mlc4") as i64
    }

    /// Fixed 4-bit accuracy minus adaptive accuracy (pp), worst case
    /// over sigma ≥ 0.3 — the gated ceiling key: ≤ 0 means adaptive
    /// allocation wins (or ties) wherever variation dominates.
    pub fn encoding_fixed_minus_adaptive_pp(&self) -> f64 {
        self.rows_named("mlc4")
            .filter(|r| r.sigma >= 0.3)
            .map(|f| {
                let adaptive = self
                    .rows_named("adaptive")
                    .find(|a| a.sigma == f.sigma)
                    .expect("adaptive runs at every sigma");
                (f.accuracy - adaptive.accuracy) * 100.0
            })
            .fold(f64::MIN, f64::max)
    }

    /// The experiment as structured tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Weight encodings — side-{SIDE} model, {} draw(s) per cell",
                self.mc_draws
            ),
            &["sigma", "encoding", "accuracy", "eff bits", "pulses"],
        );
        for r in &self.rows {
            let bits = if r.effective_bits.is_finite() {
                fixed(r.effective_bits, 1)
            } else {
                "analog".to_string()
            };
            t.add_row([
                fixed(r.sigma, 2),
                r.encoding.to_string(),
                fixed(r.accuracy, 3),
                bits,
                r.pulses.to_string(),
            ]);
        }
        vec![t]
    }

    /// Renders the experiment as a text table plus a summary line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "equal pulse budget ({} pulses): adaptive {}/{}-bit {:.3} vs fixed {}-bit {:.3} at sigma {:.2} ({:+.1} pp)\n",
            self.pulses_of("adaptive"),
            LOW_BITS,
            HIGH_BITS,
            self.high_sigma_accuracy("adaptive"),
            FIXED_BITS,
            self.high_sigma_accuracy("mlc4"),
            SIGMAS[SIGMAS.len() - 1],
            (self.high_sigma_accuracy("adaptive") - self.high_sigma_accuracy("mlc4")) * 100.0,
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_encoding.json` payload):
    /// flat gated fields plus the structured tables.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"mc_draws\":{},\"pulses_fixed\":{},\"pulses_adaptive\":{},",
                "\"encoding_pulse_budget_delta\":{},",
                "\"encoding_fixed_minus_adaptive_pp\":{:.2},",
                "\"differential_accuracy\":{:.4},\"mlc_accuracy\":{:.4},",
                "\"adaptive_accuracy\":{:.4},\"one_t1r_accuracy\":{:.4},",
                "\"tables\":{}}}"
            ),
            self.mc_draws,
            self.pulses_of("mlc4"),
            self.pulses_of("adaptive"),
            self.encoding_pulse_budget_delta(),
            self.encoding_fixed_minus_adaptive_pp(),
            self.high_sigma_accuracy("differential"),
            self.high_sigma_accuracy("mlc4"),
            self.high_sigma_accuracy("adaptive"),
            self.high_sigma_accuracy("differential-1t1r"),
            super::common::tables_to_json(&self.tables()),
        )
    }
}

/// The encodings under comparison, in table order.
fn encodings() -> [(&'static str, EncodingSpec, CellKind); 4] {
    let one_t1r = CellKind::one_t1r(R_ACCESS).expect("valid access resistance");
    [
        (
            "differential",
            EncodingSpec::DifferentialPair,
            CellKind::OneR,
        ),
        (
            "mlc4",
            EncodingSpec::MultiLevelCell { bits: FIXED_BITS },
            CellKind::OneR,
        ),
        (
            "adaptive",
            EncodingSpec::AdaptiveRowQuant {
                low_bits: LOW_BITS,
                high_bits: HIGH_BITS,
                fine_fraction: FINE_FRACTION,
            },
            CellKind::OneR,
        ),
        ("differential-1t1r", EncodingSpec::DifferentialPair, one_t1r),
    ]
}

/// Runs the sweep: every encoding at every sigma, each accuracy averaged
/// over the scale's Monte-Carlo fabrication seeds.
///
/// # Panics
///
/// Panics only on internal configuration errors (the defaults are valid).
pub fn run(scale: &Scale) -> EncodingResult {
    // The trainer gets an epoch floor independent of the scale: a
    // half-trained model's soft margins amplify sampling noise, and the
    // encoding margins under test are fractions of a percentage point.
    let (train, _) = scale.dataset(SIDE);
    let mut trainer = scale.gdt();
    trainer.epochs = trainer.epochs.max(30);
    let weights = trainer.train(&train).expect("training");
    let mapping = RowMapping::identity(weights.rows());
    // A dedicated fixed-size eval set for the same reason (see the
    // constants above).
    let eval = SynthDigits::generate(
        &DatasetConfig {
            samples_per_class: EVAL_PER_CLASS,
            ..DatasetConfig::paper()
        },
        scale.seed ^ 0xE9C,
    )
    .expect("valid dataset config")
    .downsample(28 / SIDE)
    .expect("side divides 28");
    let test = eval;
    let mut seed_rng = scale.rng(SEED_TAG);
    let seeds: Vec<u64> = (0..scale.mc_draws.max(MIN_DRAWS))
        .map(|_| seed_rng.next_u64())
        .collect();

    let mut rows = Vec::with_capacity(SIGMAS.len() * encodings().len());
    for &sigma in &SIGMAS {
        for (name, spec, cell) in encodings() {
            let mut env = HardwareEnv::with_sigma(sigma).expect("valid sigma");
            env.cell = cell;
            let compiler = env.compiler().with_calibration(&test.mean_input());
            let mut accuracy = 0.0;
            let mut effective_bits = f64::NAN;
            let mut pulses = 0u64;
            for &seed in &seeds {
                let model = compiler
                    .request(&weights, &mapping)
                    .encoding(spec)
                    .seed(seed)
                    .compile()
                    .expect("compilation");
                accuracy += model.accuracy(&test).expect("test read");
                effective_bits = model.encoding().effective_bits();
                pulses = model.encoding().programming_pulses(weights.cols());
            }
            rows.push(EncodingRow {
                sigma,
                encoding: name,
                accuracy: accuracy / seeds.len() as f64,
                effective_bits,
                pulses,
            });
        }
    }
    EncodingResult {
        rows,
        mc_draws: seeds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::json_field;

    #[test]
    fn pulse_budgets_match_and_tables_are_deterministic() {
        let scale = Scale::bench();
        let a = run(&scale);
        assert_eq!(a.encoding_pulse_budget_delta(), 0, "unequal pulse budget");
        // Continuous encodings program with two pulses per device; any
        // quantized encoding spends strictly more.
        assert!(a.pulses_of("differential") < a.pulses_of("mlc4"));
        let b = run(&scale);
        assert_eq!(a, b, "the sweep must be a pure function of the seed");
    }

    #[test]
    fn render_and_json_carry_the_gated_fields() {
        let r = run(&Scale::bench());
        let s = r.render();
        assert!(s.contains("Weight encodings"));
        assert!(s.contains("analog"), "continuous rows render as analog");
        let j = r.to_json();
        for key in [
            "mc_draws",
            "pulses_fixed",
            "pulses_adaptive",
            "encoding_pulse_budget_delta",
            "encoding_fixed_minus_adaptive_pp",
            "differential_accuracy",
            "mlc_accuracy",
            "adaptive_accuracy",
            "one_t1r_accuracy",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
        assert!(!j.contains("inf"), "no infinities may leak into JSON");
    }

    #[test]
    fn every_encoding_stays_above_chance() {
        let r = run(&Scale::bench());
        for row in &r.rows {
            assert!(
                row.accuracy > 0.3,
                "{} at sigma {} collapsed to {}",
                row.encoding,
                row.sigma,
                row.accuracy
            );
        }
    }
}
