//! Crossbar tiling: mapping one large weight matrix onto several small
//! crossbar pairs whose outputs are summed digitally.
//!
//! Extension beyond the paper, motivated directly by its own findings:
//! Table 1 shows IR-drop wrecking large monolithic arrays while small
//! ones stay healthy, and Fig. 3 shows the update-rate skew exploding
//! past ~128 rows. Splitting the 784 input rows into, say, 128-row tiles
//! keeps every physical array inside the benign regime at the cost of a
//! digital adder per column — the standard architectural answer in
//! crossbar accelerators.
//!
//! Every tile is a chip of its own, built by the same route as the
//! monolithic AMP harness: fabricate, optional per-tile AMP, program,
//! then [`ModelCompiler::freeze`], calibrated on the tile's slice of the
//! mean test input. Freezing there
//! gives a tile everything a monolithic chip gets: the 1T-1R
//! access-transistor mapping of [`HardwareEnv::cell`], an ADC sized by
//! the tile's own physical rows (spare rows included, a short last tile
//! smaller), and the env's input DAC. Draws fan out over
//! [`run_trials`](vortex_nn::executor::run_trials), so results are
//! bit-identical on any worker count.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::classifier::accuracy_with;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;

use crate::pipeline::{evaluate_draws, HardwareEnv, HardwareEvaluation, ModelCompiler};
use crate::vortex::{compile_chip, AmpChipOptions};
use crate::{CoreError, Result};

/// Tiled hardware evaluator.
///
/// # Example
///
/// ```
/// use vortex_core::tiling::TiledEvaluator;
///
/// # fn main() -> Result<(), vortex_core::CoreError> {
/// let tiler = TiledEvaluator::new(64)?;
/// let ranges = tiler.tile_ranges(196);
/// assert_eq!(ranges.len(), 4);                 // 64+64+64+4
/// assert_eq!(ranges.last().unwrap().len(), 4); // remainder tile
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiledEvaluator {
    /// Rows per tile (the last tile takes the remainder).
    pub tile_rows: usize,
    /// Optional per-tile AMP (pre-test + greedy mapping + redundancy).
    pub amp: Option<AmpChipOptions>,
}

impl TiledEvaluator {
    /// Creates an evaluator with plain (identity-mapped) tiles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `tile_rows == 0`.
    pub fn new(tile_rows: usize) -> Result<Self> {
        if tile_rows == 0 {
            return Err(CoreError::InvalidParameter {
                name: "tile_rows",
                requirement: "must be positive",
            });
        }
        Ok(Self {
            tile_rows,
            amp: None,
        })
    }

    /// Adds per-tile AMP.
    pub fn with_amp(mut self, amp: AmpChipOptions) -> Self {
        self.amp = Some(amp);
        self
    }

    /// Row ranges of each tile for an `n`-row weight matrix.
    pub fn tile_ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + self.tile_rows).min(n);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Programs `weights` across tiles on fresh hardware and measures the
    /// test rate, repeated over `mc_draws` fabrications.
    ///
    /// # Errors
    ///
    /// Propagates fabrication, pre-test, programming and readout errors.
    pub fn evaluate(
        &self,
        weights: &Matrix,
        mean_abs_input: &[f64],
        env: &HardwareEnv,
        test: &Dataset,
        mc_draws: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<HardwareEvaluation> {
        if mean_abs_input.len() != weights.rows() {
            return Err(CoreError::InvalidParameter {
                name: "mean_abs_input",
                requirement: "length must match the weight-matrix rows",
            });
        }
        let mean_input = test.mean_input();
        let tiles: Vec<Tile> = self
            .tile_ranges(weights.rows())
            .into_iter()
            .map(|range| {
                let rows: Vec<usize> = range.clone().collect();
                Tile {
                    weights: weights.select_rows(&rows),
                    mean_abs_input: mean_abs_input[range.clone()].to_vec(),
                    compiler: env.compiler().with_calibration(&mean_input[range.clone()]),
                    range,
                }
            })
            .collect();
        evaluate_draws(rng, mc_draws, Parallelism::Auto, |draw_rng| {
            self.evaluate_one(&tiles, weights.cols(), test, draw_rng)
        })
    }

    /// Compiles one chip per tile from `rng`, in tile order, and scores
    /// the digitally summed tile outputs on `test`.
    fn evaluate_one(
        &self,
        tiles: &[Tile],
        cols: usize,
        test: &Dataset,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<f64> {
        let spare_rows = self.amp.as_ref().map_or(0, |a| a.redundant_rows);
        let models = tiles
            .iter()
            .map(|tile| {
                let physical_rows = tile.weights.rows() + spare_rows;
                let amp = self
                    .amp
                    .as_ref()
                    .map(|opts| (opts, tile.mean_abs_input.as_slice()));
                compile_chip(
                    &tile.compiler,
                    &tile.weights,
                    physical_rows,
                    amp,
                    |_| Ok(None),
                    rng,
                )
                .map(|(model, _)| model)
            })
            .collect::<Result<Vec<_>>>()?;

        let mut failed = false;
        let acc = accuracy_with(test, |x| {
            let mut y = vec![0.0; cols];
            for (tile, model) in tiles.iter().zip(&models) {
                match model.scores(&x[tile.range.clone()]) {
                    Ok(part) => {
                        for (acc_j, p) in y.iter_mut().zip(&part) {
                            *acc_j += p;
                        }
                    }
                    Err(_) => failed = true,
                }
            }
            y
        });
        if failed {
            return Err(CoreError::InvalidParameter {
                name: "readout",
                requirement: "tiled hardware read failed during scoring",
            });
        }
        Ok(acc)
    }
}

/// One tile's share of the weight matrix, fixed across draws.
struct Tile {
    /// The weight rows this tile holds.
    range: std::ops::Range<usize>,
    weights: Matrix,
    mean_abs_input: Vec<f64>,
    /// Calibrated on the tile's slice of the mean test input.
    compiler: ModelCompiler,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amp::greedy::RowMapping as Mapping;
    use crate::amp::sensitivity::mean_abs_inputs;
    use crate::pipeline::evaluate_hardware;
    use vortex_device::cell::CellKind;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::gdt::GdtTrainer;
    use vortex_nn::split::stratified_split;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(808)
    }

    fn setup() -> (Dataset, Dataset, Matrix) {
        let d = SynthDigits::generate(&DatasetConfig::tiny(), 81).unwrap();
        let s = stratified_split(&d, 200, 100, &mut rng()).unwrap();
        let w = GdtTrainer {
            epochs: 10,
            ..Default::default()
        }
        .train(&s.train)
        .unwrap();
        (s.train, s.test, w)
    }

    #[test]
    fn tile_ranges_cover_exactly() {
        let t = TiledEvaluator::new(50).unwrap();
        let ranges = t.tile_ranges(196);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..50);
        assert_eq!(ranges[3], 150..196);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 196);
        assert!(TiledEvaluator::new(0).is_err());
    }

    #[test]
    fn tiled_matches_monolithic_on_ideal_hardware() {
        let (train, test, w) = setup();
        let env = HardwareEnv::ideal();
        let mean_abs = mean_abs_inputs(&train);
        let mono = evaluate_hardware(&w, &Mapping::identity(w.rows()), &env, &test, 1, &mut rng())
            .unwrap();
        let tiled = TiledEvaluator::new(64)
            .unwrap()
            .evaluate(&w, &mean_abs, &env, &test, 1, &mut rng())
            .unwrap();
        assert!(
            (tiled.mean_test_rate - mono.mean_test_rate).abs() < 0.05,
            "tiled {} vs monolithic {}",
            tiled.mean_test_rate,
            mono.mean_test_rate
        );
    }

    #[test]
    fn one_tile_is_bit_equal_to_the_monolithic_harness() {
        // A tile covering every row, without AMP, is the monolithic chip:
        // same fabrication stream, same programming, same freeze (1T-1R
        // access-transistor mapping, converters, calibration). So its
        // per-draw rates must match `evaluate_hardware` bit for bit.
        let (train, test, w) = setup();
        let mean_abs = mean_abs_inputs(&train);
        let one_r = HardwareEnv::with_sigma(0.3).unwrap();
        let mut one_t1r = one_r;
        one_t1r.cell = CellKind::one_t1r(2.0e4).unwrap();
        let mut one_t1r_wide = HardwareEnv::with_sigma(0.5).unwrap();
        one_t1r_wide.cell = CellKind::one_t1r(5.0e3).unwrap();
        for (name, env) in [
            ("1R", one_r),
            ("1R + IR drop", one_r.with_ir_drop(5.0)),
            ("1T-1R", one_t1r),
            ("1T-1R + IR drop", one_t1r.with_ir_drop(5.0)),
            ("1T-1R 5 kOhm", one_t1r_wide),
        ] {
            let mono =
                evaluate_hardware(&w, &Mapping::identity(w.rows()), &env, &test, 3, &mut rng())
                    .unwrap();
            let tiled = TiledEvaluator::new(w.rows())
                .unwrap()
                .evaluate(&w, &mean_abs, &env, &test, 3, &mut rng())
                .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&tiled.per_draw),
                bits(&mono.per_draw),
                "{name}: tiled {:?} vs monolithic {:?}",
                tiled.per_draw,
                mono.per_draw
            );
        }
    }

    #[test]
    fn tiling_mitigates_heavy_ir_drop() {
        let (train, test, w) = setup();
        // Strong wires, uncompensated programming: the monolithic array
        // suffers; 32-row tiles keep every path short.
        let env = HardwareEnv::ideal().with_ir_drop(12.0);
        let mean_abs = mean_abs_inputs(&train);
        let mono = evaluate_hardware(&w, &Mapping::identity(w.rows()), &env, &test, 2, &mut rng())
            .unwrap();
        let tiled = TiledEvaluator::new(32)
            .unwrap()
            .evaluate(&w, &mean_abs, &env, &test, 2, &mut rng())
            .unwrap();
        assert!(
            tiled.mean_test_rate > mono.mean_test_rate,
            "tiled {} should beat monolithic {} under heavy IR-drop",
            tiled.mean_test_rate,
            mono.mean_test_rate
        );
    }

    #[test]
    fn tiled_amp_runs_under_variation() {
        let (train, test, w) = setup();
        let env = HardwareEnv::with_sigma(0.8).unwrap();
        let mean_abs = mean_abs_inputs(&train);
        let plain = TiledEvaluator::new(64)
            .unwrap()
            .evaluate(&w, &mean_abs, &env, &test, 2, &mut rng())
            .unwrap();
        let amped = TiledEvaluator::new(64)
            .unwrap()
            .with_amp(AmpChipOptions {
                redundant_rows: 8,
                ..AmpChipOptions::default()
            })
            .evaluate(&w, &mean_abs, &env, &test, 2, &mut rng())
            .unwrap();
        assert!(
            amped.mean_test_rate >= plain.mean_test_rate - 0.03,
            "per-tile AMP {} vs plain {}",
            amped.mean_test_rate,
            plain.mean_test_rate
        );
    }

    #[test]
    fn evaluate_validates_inputs() {
        let (_, test, w) = setup();
        let env = HardwareEnv::ideal();
        let t = TiledEvaluator::new(64).unwrap();
        assert!(t
            .evaluate(&w, &vec![0.5; w.rows()], &env, &test, 0, &mut rng())
            .is_err());
        assert!(t
            .evaluate(&w, &[0.5; 3], &env, &test, 1, &mut rng())
            .is_err());
    }
}
