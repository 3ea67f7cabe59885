//! Fleet serving, end to end: compile five replicas of one classifier
//! from five distinct variation seeds (five different simulated physical
//! chips), put them behind a router, and serve traffic while one replica
//! is drained, healed and returned to rotation — then show the ensemble
//! read beating every single chip by majority-voting across them.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```

use std::sync::Arc;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::error::Error;
use vortex_core::pipeline::HardwareEnv;
use vortex_device::drift::RetentionModel;
use vortex_fleet::ensemble::ensemble_accuracy;
use vortex_fleet::prelude::*;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::split::stratified_split;
use vortex_serve::HealthConfig;

const REPLICAS: usize = 5;
const SIGMA: f64 = 0.4;

fn main() -> Result<(), Error> {
    // 1. One trained model, five chips: each replica is compiled from
    //    its own variation seed, so each carries different conductance
    //    errors — and different per-sample mistakes.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
    let data = SynthDigits::generate(
        &DatasetConfig {
            samples_per_class: 40,
            ..DatasetConfig::paper()
        },
        31,
    )?
    .downsample(4)?;
    let split = stratified_split(&data, 260, 130, &mut rng)?;
    let (train, test) = (split.train, split.test);
    let weights = GdtTrainer {
        epochs: 12,
        ..Default::default()
    }
    .train(&train)?;
    let mapping = RowMapping::identity(weights.rows());
    let env = HardwareEnv::with_sigma(SIGMA)?.with_ir_drop(5.0);
    let compiler = env.compiler().with_calibration(&test.mean_input());
    let canaries: Vec<Vec<f64>> = (0..16).map(|k| test.image(k).to_vec()).collect();

    let compile_chip = {
        let (compiler, weights, mapping) = (compiler.clone(), weights.clone(), mapping.clone());
        let canaries = canaries.clone();
        move |seed: u64| -> Result<CompiledModel, Error> {
            Ok(compiler
                .request(&weights, &mapping)
                .seed(seed)
                .compile()?
                .with_canary_inputs(canaries.clone())?)
        }
    };
    let seeds: Vec<u64> = (0..REPLICAS as u64).map(|i| 0xC419 + i).collect();
    let mut models = Vec::new();
    for &seed in &seeds {
        let model = compile_chip(seed)?;
        println!(
            "chip seed {seed:#06x}: accuracy {:.3}",
            model.accuracy(&test)?
        );
        models.push((seed, Arc::new(model)));
    }
    let singles: Vec<f64> = models
        .iter()
        .map(|(_, m)| m.accuracy(&test))
        .collect::<Result<_, _>>()?;
    let best_single = singles.iter().cloned().fold(f64::MIN, f64::max);
    let model_refs: Vec<&CompiledModel> = models.iter().map(|(_, m)| m.as_ref()).collect();
    let voted = ensemble_accuracy(&model_refs, &test)?;
    println!("best single chip {best_single:.3}, 5-chip majority vote {voted:.3}\n");

    // 2. The fleet: five schedulers on the shared pool, consistent-hash
    //    routing so a request key always lands on the same chip.
    let fleet = Fleet::new(
        models.clone(),
        FleetConfig::new(RoutingPolicy::ConsistentHash)
            .with_scheduler(SchedulerConfig::deterministic().with_queue_capacity(512)),
    )
    .expect("replicas share one shape");
    let mut routed = vec![0usize; fleet.len()];
    for k in 0..test.len() {
        let (replica, ticket) = fleet
            .submit(k as u64, test.image(k).to_vec(), None)
            .expect("queue sized for the trace");
        routed[replica] += 1;
        ticket.wait().expect("routed request answers");
    }
    println!(
        "consistent-hash spread over {} requests: {routed:?}",
        test.len()
    );

    // 3. Break chip 0 the way hardware breaks (retention drift), then
    //    heal it: drain → canary breach → same-seed recompile → hot swap
    //    → back in rotation. The other four replicas serve throughout.
    let retention = RetentionModel::new(0.6, 0.3, 1e-3)?;
    let aged = fleet.scheduler(0).primary().age_with(&retention, 1e8, 99)?;
    fleet
        .swap_replica(0, Arc::new(aged))
        .expect("same logical shape");
    println!(
        "chip 0 drifted: canary accuracy {:.3}",
        fleet.scheduler(0).primary().canary_accuracy()?
    );
    let outcome = fleet
        .heal_replica(
            0,
            HealthConfig::new(1.0, std::time::Duration::from_millis(50)).expect("valid floor"),
            {
                let compile_chip = compile_chip.clone();
                move || {
                    compile_chip(0xC419)
                        .map(Arc::new)
                        .map_err(|e| Box::new(e) as Box<dyn std::error::Error + Send + Sync>)
                }
            },
        )
        .expect("probe runs on a canary-carrying model");
    match outcome {
        ProbeOutcome::Recovered { before, after } => {
            println!("healed: canary accuracy {before:.3} -> {after:.3} (drained, swapped, back in rotation)")
        }
        other => println!("unexpected probe outcome: {other:?}"),
    }

    // 4. The ensemble read: fan one request to all five chips and take
    //    the majority — redundancy across whole crossbars.
    let mut split_verdicts = 0usize;
    let mut correct = 0usize;
    for k in 0..test.len() {
        let verdict = fleet
            .ensemble_submit(test.image(k).to_vec(), REPLICAS)
            .expect("every leg admits")
            .wait()
            .expect("every leg answers");
        if !verdict.unanimous {
            split_verdicts += 1;
        }
        if verdict.class == test.label(k) {
            correct += 1;
        }
    }
    println!(
        "ensemble reads: {}/{} correct ({} split verdicts rescued by voting)",
        correct,
        test.len(),
        split_verdicts
    );
    fleet.shutdown();
    Ok(())
}
