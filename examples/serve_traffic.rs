//! Serving under load: train a digit classifier, compile it twice (an
//! `Exact` primary and a `Calibrated` fallback sharing the same
//! programmed crossbar pair), then push a traffic burst through the
//! batched scheduler and watch backpressure and the degradation ladder
//! work: early requests are served exact, requests admitted above the
//! high-water mark are downgraded to the calibrated read, overflow is
//! rejected with `QueueFull`, and after the queue drains the scheduler
//! recovers to exact fidelity on its own.
//!
//! ```text
//! cargo run --release --example serve_traffic
//! ```

use std::sync::Arc;
use std::time::Duration;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::error::Error;
use vortex_core::pipeline::{HardwareEnv, ReadFidelity};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::{DatasetConfig, SynthDigits};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::split::stratified_split;
use vortex_serve::prelude::*;

fn main() -> Result<(), Error> {
    // 1. Train a small digit classifier.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let data = SynthDigits::generate(
        &DatasetConfig {
            side: 7,
            samples_per_class: 60,
            ..DatasetConfig::paper()
        },
        7,
    )?;
    let split = stratified_split(&data, 400, 200, &mut rng)?;
    let weights = GdtTrainer {
        epochs: 12,
        ..Default::default()
    }
    .train(&split.train)?;
    let mapping = RowMapping::identity(weights.rows());

    // 2. Program one crossbar pair, then freeze it twice: an exact
    //    (nodal IR-drop) primary and a calibrated fallback.
    let mut env = HardwareEnv::with_sigma(0.3)?.with_ir_drop(4.0);
    env.compensate_program_irdrop = true;
    let compiler = env.compiler().with_calibration(&split.test.mean_input());
    let pair = compiler.program(&weights, &mapping, &mut rng)?;
    let mut exact_env = env;
    exact_env.read_fidelity = ReadFidelity::ExactIrDrop;
    let primary = Arc::new(
        exact_env
            .compiler()
            .with_calibration(&split.test.mean_input())
            .freeze(&pair, &mapping)?,
    );
    let fallback = Arc::new(compiler.freeze(&pair, &mapping)?);
    println!(
        "compiled: {}x{} pair as {:?} primary + {:?} fallback",
        primary.rows(),
        primary.classes(),
        primary.fidelity(),
        fallback.fidelity()
    );

    // 3. A scheduler with a deliberately tight queue so a burst engages
    //    both backpressure and the degradation ladder.
    let config = SchedulerConfig::new(Parallelism::Fixed(4))
        .with_queue_capacity(96)
        .with_batching(32, Duration::from_micros(200))
        .with_watermarks(48, 12)
        .paused();
    let scheduler = Scheduler::new(Arc::clone(&primary), Some(Arc::clone(&fallback)), config)
        .expect("scheduler config is valid");

    // 4. Burst the whole test set at the paused scheduler, then release
    //    the workers and collect every response.
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for k in 0..split.test.len() {
        match scheduler.try_submit(split.test.image(k).to_vec(), None) {
            Ok(ticket) => tickets.push((k, ticket)),
            Err(ServeError::QueueFull { .. }) => rejected += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    println!(
        "burst   : {} submitted, {} admitted, {} rejected (backpressure), ladder engaged: {}",
        split.test.len(),
        tickets.len(),
        rejected,
        scheduler.is_degraded()
    );

    scheduler.resume();
    let mut exact_served = 0usize;
    let mut degraded_served = 0usize;
    let mut correct = 0usize;
    for (k, ticket) in tickets {
        let p = ticket.wait().expect("admitted requests are answered");
        if p.downgraded {
            degraded_served += 1;
        } else {
            exact_served += 1;
        }
        if p.class == split.test.label(k) {
            correct += 1;
        }
    }
    let served = exact_served + degraded_served;
    println!(
        "served  : {served} answered — {exact_served} exact, {degraded_served} degraded, \
         test rate {:.1}%",
        100.0 * correct as f64 / served as f64
    );

    // 5. The queue drained past the low-water mark, so the ladder has
    //    released: a fresh request is served exact again.
    let probe = scheduler
        .submit_wait(split.test.image(0).to_vec())
        .expect("probe after drain");
    println!(
        "recover : ladder engaged: {}, probe served {:?} (downgraded: {})",
        scheduler.is_degraded(),
        probe.fidelity,
        probe.downgraded
    );
    assert!(!probe.downgraded, "scheduler should have recovered");

    // 6. The obs registry saw every admit/reject/downgrade.
    let snapshot = vortex_obs::snapshot();
    for name in [
        "serve.admitted",
        "serve.completed",
        "serve.rejected_full",
        "serve.rejected_timeout",
        "serve.downgraded",
        "serve.degradation_entered",
        "serve.degradation_exited",
    ] {
        println!("metrics : {name} = {}", snapshot.counter(name).unwrap_or(0));
    }
    Ok(())
}
