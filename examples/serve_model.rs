//! Serving a compiled model: train a digit classifier, compile it onto
//! fabricated hardware exactly once, save the frozen model to a versioned
//! artifact, reload it, and batch-infer the test set — with identical
//! predictions before and after the round-trip.
//!
//! ```text
//! cargo run --release --example serve_model
//! ```

use vortex_core::amp::greedy::RowMapping;
use vortex_core::error::Error;
use vortex_core::pipeline::HardwareEnv;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{DatasetConfig, SynthDigits};
use vortex_nn::executor::Parallelism;
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::split::stratified_split;
use vortex_runtime::CompiledModel;

fn main() -> Result<(), Error> {
    // 1. Train a conventional classifier on the 14×14 digit benchmark.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let data_cfg = DatasetConfig {
        side: 14,
        samples_per_class: 90,
        ..DatasetConfig::paper()
    };
    let data = SynthDigits::generate(&data_cfg, 7)?;
    let split = stratified_split(&data, 600, 300, &mut rng)?;
    let weights = GdtTrainer {
        epochs: 15,
        ..Default::default()
    }
    .train(&split.train)?;

    // 2. Compile once: fabricate a varying crossbar pair, program the
    //    weights, calibrate the IR-drop read path, and freeze the result.
    let mut env = HardwareEnv::with_sigma(0.4)?.with_ir_drop(5.0);
    env.compensate_program_irdrop = true;
    let mapping = RowMapping::identity(weights.rows());
    let model = env
        .compiler()
        .with_calibration(&split.test.mean_input())
        .request(&weights, &mapping)
        .compile_with(&mut rng)?;
    println!(
        "compiled: {}x{} crossbar pair, {:?} read path",
        model.rows(),
        model.classes(),
        model.fidelity()
    );

    // 3. Save the frozen model to a self-contained versioned artifact,
    //    then reload it — no retraining, no refabrication.
    let path = std::env::temp_dir().join(format!("vortex-model-{}.vxrt", std::process::id()));
    model.save(&path)?;
    let artifact_bytes = std::fs::metadata(&path)?.len();
    let served = CompiledModel::load(&path)?;
    std::fs::remove_file(&path).ok();
    println!("artifact: {artifact_bytes} bytes at {}", path.display());

    // 4. Batch-infer the test set on both instances. Predictions are
    //    bit-identical: the artifact round-trip preserves every frozen
    //    conductance and calibration value exactly.
    let samples: Vec<&[f64]> = (0..split.test.len()).map(|i| split.test.image(i)).collect();
    let before = model.infer_batch(&samples, Parallelism::Serial)?;
    let after = served.infer_batch(&samples, Parallelism::Auto)?;
    assert_eq!(before, after, "artifact round-trip changed predictions");

    let accuracy = served.accuracy(&split.test)?;
    println!(
        "served  : {} samples batch-inferred, test rate {:.1}%, predictions identical",
        samples.len(),
        100.0 * accuracy
    );
    Ok(())
}
