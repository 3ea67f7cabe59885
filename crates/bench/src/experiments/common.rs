//! Shared experiment scaffolding: scales, dataset preparation, trainers.

use vortex_core::report::Table;
use vortex_core::vat::VatTrainer;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::split::stratified_split;

/// How big an experiment run is.
///
/// `paper()` matches the paper's setup (4000 train / 2000 test samples on
/// a 784-row crossbar, 1000-run Fig. 2 Monte Carlo); `quick()` shrinks
/// everything to seconds for CI; `bench()` shrinks further for unit and
/// CLI tests (`experiments --bench`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Training samples.
    pub n_train: usize,
    /// Test samples.
    pub n_test: usize,
    /// Samples generated per class (must cover train + test).
    pub samples_per_class: usize,
    /// Monte-Carlo fabrication draws for test-rate estimates.
    pub mc_draws: usize,
    /// Monte-Carlo runs for the Fig. 2 column experiment.
    pub column_runs: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Points on γ sweeps.
    pub gamma_points: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The paper-scale configuration.
    pub fn paper() -> Self {
        Self {
            n_train: 4000,
            n_test: 2000,
            samples_per_class: 600,
            mc_draws: 5,
            column_runs: 1000,
            epochs: 30,
            gamma_points: 11,
            seed: 2015,
        }
    }

    /// A CI-friendly configuration (seconds, not minutes).
    pub fn quick() -> Self {
        Self {
            n_train: 300,
            n_test: 150,
            samples_per_class: 45,
            mc_draws: 2,
            column_runs: 200,
            epochs: 10,
            gamma_points: 5,
            seed: 2015,
        }
    }

    /// An even smaller configuration for tests (`experiments --bench`).
    pub fn bench() -> Self {
        Self {
            n_train: 120,
            n_test: 60,
            samples_per_class: 18,
            mc_draws: 1,
            column_runs: 50,
            epochs: 4,
            gamma_points: 3,
            seed: 2015,
        }
    }

    /// The γ sweep grid for this scale.
    pub fn gamma_grid(&self) -> Vec<f64> {
        vortex_linalg::vector::linspace(0.0, 1.0, self.gamma_points.max(2))
    }

    /// Generates the benchmark dataset at the given image side (28, 14 or
    /// 7 — the paper's full and under-sampled benchmarks) and splits it
    /// into train/test.
    ///
    /// # Panics
    ///
    /// Panics if the scale's sample counts exceed the generated dataset,
    /// or the side is not one of 7/14/28.
    pub fn dataset(&self, side: usize) -> (Dataset, Dataset) {
        assert!([7, 14, 28].contains(&side), "side must be 7, 14 or 28");
        let cfg = DatasetConfig {
            samples_per_class: self.samples_per_class,
            ..DatasetConfig::paper()
        };
        let full = SynthDigits::generate(&cfg, self.seed).expect("valid dataset config");
        let full = if side == 28 {
            full
        } else {
            full.downsample(28 / side).expect("side divides 28")
        };
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed ^ 0xDA7A);
        let split = stratified_split(&full, self.n_train, self.n_test, &mut rng)
            .expect("scale sample counts fit the dataset");
        (split.train, split.test)
    }

    /// The conventional (GDT) trainer at this scale.
    pub fn gdt(&self) -> GdtTrainer {
        GdtTrainer {
            epochs: self.epochs,
            ..Default::default()
        }
    }

    /// The VAT trainer at this scale (γ and σ set per experiment).
    pub fn vat(&self) -> VatTrainer {
        VatTrainer {
            epochs: self.epochs,
            ..Default::default()
        }
    }

    /// The master RNG of an experiment (offset by an experiment tag so
    /// different figures do not share streams).
    pub fn rng(&self, tag: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(self.seed.wrapping_mul(0x9E37).wrapping_add(tag))
    }
}

/// Renders a sequence of tables separated by blank lines — the standard
/// text layout of every experiment's `render()`.
pub fn render_tables(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Serializes a sequence of tables as a JSON array (see
/// [`Table::to_json`]).
pub fn tables_to_json(tables: &[Table]) -> String {
    let mut out = String::from("[");
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push(']');
    out
}

/// Whether `json` carries `key` as an object key — the payload-shape
/// check of the experiments' JSON writer tests.
#[cfg(test)]
pub(crate) fn json_field(json: &str, key: &str) -> bool {
    json.contains(&format!("{}:", vortex_core::report::json_string(key)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let p = Scale::paper();
        let q = Scale::quick();
        let b = Scale::bench();
        assert!(p.n_train > q.n_train && q.n_train > b.n_train);
        assert!(p.column_runs > q.column_runs);
    }

    #[test]
    fn dataset_sides() {
        let s = Scale::bench();
        let (train, test) = s.dataset(14);
        assert_eq!(train.num_features(), 196);
        assert_eq!(train.len(), 120);
        assert_eq!(test.len(), 60);
        let (train7, _) = s.dataset(7);
        assert_eq!(train7.num_features(), 49);
    }

    #[test]
    fn gamma_grid_spans_unit_interval() {
        let g = Scale::quick().gamma_grid();
        assert_eq!(g.first(), Some(&0.0));
        assert_eq!(g.last(), Some(&1.0));
        assert_eq!(g.len(), 5);
    }

    #[test]
    #[should_panic(expected = "side must be")]
    fn bad_side_panics() {
        let _ = Scale::bench().dataset(9);
    }
}
