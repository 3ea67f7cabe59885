//! Runtime throughput — samples/sec through a [`CompiledModel`], serial
//! vs parallel (extension beyond the paper).
//!
//! The serving path compiles the digit classifier onto fabricated
//! hardware exactly once (fabricate → map → program → calibrate), then
//! meters `infer_batch` three ways:
//!
//! * **reference** — `Parallelism::Serial` with the f32 fast path
//!   disabled ([`CompiledModel::with_reference_kernel`]): the pure f64
//!   kernel, the semantics everything else must match.
//! * **serial** — `Parallelism::Serial` on the production model (fast
//!   path on): isolates the certified-f32 kernel gain.
//! * **parallel** — `Parallelism::Fixed(threads)` on the shared
//!   [`WorkerPool`](vortex_nn::pool::WorkerPool): the production path.
//!
//! Predictions are bit-identical on every row (see
//! `vortex_nn::executor` and `vortex_runtime::kernels`); only wall-clock
//! changes.
//!
//! The same chip is also frozen at [`Fidelity::Exact`] and metered
//! serially: its read goes through the nodal mesh's compiled transfer
//! matrices. The experiment also times one transfer-matrix rebuild — the
//! cost every conductance change (`with_conductance_factors`, `aged`,
//! `with_cell_faults`) pays on an Exact model.
//!
//! [`Fidelity::Exact`]: vortex_runtime::Fidelity::Exact

use std::time::Instant;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::{HardwareEnv, ReadFidelity};
use vortex_core::report::{fixed, json_string, Table};
use vortex_linalg::Matrix;
use vortex_nn::executor::Parallelism;
use vortex_runtime::CompiledModel;

use super::common::Scale;

/// Result of the runtime throughput experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeResult {
    /// Physical crossbar rows of the compiled model.
    pub rows: usize,
    /// Crossbar columns (= classes).
    pub cols: usize,
    /// Test samples scored per metered pass.
    pub samples: usize,
    /// Worker count of the parallel pass.
    pub threads: usize,
    /// Serial throughput of the forced-f64 reference kernel, samples/sec.
    pub reference_sps: f64,
    /// Serial throughput (fast path on), samples/sec.
    pub serial_sps: f64,
    /// Pooled parallel throughput, samples/sec.
    pub parallel_sps: f64,
    /// Serial throughput of the same chip frozen at Exact fidelity,
    /// samples/sec.
    pub exact_sps: f64,
    /// Median time to rebuild the Exact model's transfer matrices after
    /// a conductance change, milliseconds.
    pub exact_transfer_build_ms: f64,
    /// Size of the serialized model artifact, bytes.
    pub artifact_bytes: usize,
    /// Test-set accuracy of the compiled model (identical on all paths).
    pub accuracy: f64,
}

impl RuntimeResult {
    /// Parallel speedup over serial.
    pub fn speedup(&self) -> f64 {
        if self.serial_sps > 0.0 {
            self.parallel_sps / self.serial_sps
        } else {
            0.0
        }
    }

    /// Certified-f32 kernel gain: serial fast-path over the reference.
    pub fn kernel_gain(&self) -> f64 {
        if self.reference_sps > 0.0 {
            self.serial_sps / self.reference_sps
        } else {
            0.0
        }
    }

    /// The experiment as a structured table.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Runtime throughput — {}x{} compiled model, {} samples/pass",
                self.rows, self.cols, self.samples
            ),
            &["path", "workers", "samples/sec"],
        );
        t.add_row([
            "reference (f64)".to_string(),
            "1".to_string(),
            fixed(self.reference_sps, 0),
        ]);
        t.add_row([
            "serial".to_string(),
            "1".to_string(),
            fixed(self.serial_sps, 0),
        ]);
        t.add_row([
            "parallel (pool)".to_string(),
            self.threads.to_string(),
            fixed(self.parallel_sps, 0),
        ]);
        t.add_row([
            "exact (transfer matrix)".to_string(),
            "1".to_string(),
            fixed(self.exact_sps, 0),
        ]);
        vec![t]
    }

    /// Renders the experiment as a text table plus a summary line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "speedup {:.2}x, kernel gain {:.2}x, exact transfer rebuild {:.1} ms, artifact {} bytes, accuracy {:.1}%\n",
            self.speedup(),
            self.kernel_gain(),
            self.exact_transfer_build_ms,
            self.artifact_bytes,
            100.0 * self.accuracy
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_runtime.json` payload): flat
    /// throughput fields plus the structured table.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"rows\":{},\"cols\":{},\"samples\":{},\"threads\":{},",
                "\"reference_samples_per_sec\":{:.3},",
                "\"serial_samples_per_sec\":{:.3},",
                "\"parallel_samples_per_sec\":{:.3},",
                "\"exact_samples_per_sec\":{:.3},",
                "\"exact_transfer_build_ms\":{:.3},",
                "\"speedup\":{:.4},\"kernel_gain\":{:.4},",
                "\"artifact_bytes\":{},\"accuracy\":{:.6},",
                "\"tables\":{}}}"
            ),
            self.rows,
            self.cols,
            self.samples,
            self.threads,
            self.reference_sps,
            self.serial_sps,
            self.parallel_sps,
            self.exact_sps,
            self.exact_transfer_build_ms,
            self.speedup(),
            self.kernel_gain(),
            self.artifact_bytes,
            self.accuracy,
            super::common::tables_to_json(&self.tables()),
        )
    }
}

/// Validates a JSON fragment claim used by the binary's writer tests.
pub fn json_field(json: &str, key: &str) -> bool {
    json.contains(&format!("{}:", json_string(key)))
}

fn meter(model: &CompiledModel, samples: &[&[f64]], parallelism: Parallelism) -> f64 {
    // Repeat whole passes until a wall-clock floor so short test sets
    // still give a stable rate.
    let floor_s = 0.15;
    let start = Instant::now();
    let mut scored = 0usize;
    loop {
        model
            .infer_batch(samples, parallelism)
            .expect("compiled model scores the test set");
        scored += samples.len();
        if start.elapsed().as_secs_f64() >= floor_s {
            break;
        }
    }
    scored as f64 / start.elapsed().as_secs_f64()
}

/// Median wall time, in milliseconds, of rebuilding `model`'s derived
/// read state from unchanged conductances — for an Exact model, the
/// transfer matrices every conductance change recomputes.
fn time_rebuild_ms(model: &CompiledModel) -> f64 {
    let unit = Matrix::filled(model.rows(), model.classes(), 1.0);
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(
                model
                    .with_conductance_factors(&unit, &unit)
                    .expect("unit factors are valid"),
            );
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Runs the experiment: compile once, meter all three paths, then meter
/// the same chip frozen at Exact fidelity.
///
/// # Panics
///
/// Panics only on internal configuration errors (the defaults are valid).
pub fn run(scale: &Scale) -> RuntimeResult {
    let side = if scale.n_train >= 1000 { 28 } else { 14 };
    let (train, test) = scale.dataset(side);
    let weights = scale.gdt().train(&train).expect("training");
    let env = HardwareEnv::with_sigma(0.4)
        .expect("valid sigma")
        .with_ir_drop(5.0);
    let mapping = RowMapping::identity(weights.rows());
    let model = env
        .compiler()
        .with_calibration(&test.mean_input())
        .request(&weights, &mapping)
        .compile_with(&mut scale.rng(42))
        .expect("model compiles");
    let reference = model.clone().with_reference_kernel();
    // The same generator seed fabricates and programs the same chip.
    let mut exact_env = env;
    exact_env.read_fidelity = ReadFidelity::ExactIrDrop;
    let exact = exact_env
        .compiler()
        .request(&weights, &mapping)
        .compile_with(&mut scale.rng(42))
        .expect("exact model compiles");

    let samples: Vec<&[f64]> = (0..test.len()).map(|i| test.image(i)).collect();
    let threads = 8;
    let reference_sps = meter(&reference, &samples, Parallelism::Serial);
    let serial_sps = meter(&model, &samples, Parallelism::Serial);
    let parallel_sps = meter(&model, &samples, Parallelism::Fixed(threads));
    let exact_sps = meter(&exact, &samples, Parallelism::Serial);
    RuntimeResult {
        rows: model.rows(),
        cols: model.classes(),
        samples: samples.len(),
        threads,
        reference_sps,
        serial_sps,
        parallel_sps,
        exact_sps,
        exact_transfer_build_ms: time_rebuild_ms(&exact),
        artifact_bytes: model.to_bytes().len(),
        accuracy: model.accuracy(&test).expect("scoring"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_positive_and_predictions_agree() {
        let r = run(&Scale::bench());
        assert!(r.reference_sps > 0.0 && r.serial_sps > 0.0);
        assert!(r.parallel_sps > 0.0);
        assert!(r.exact_sps > 0.0 && r.exact_transfer_build_ms > 0.0);
        assert!(r.samples > 0 && r.rows > 0 && r.cols == 10);
        assert!(r.artifact_bytes > 0);
        assert!((0.0..=1.0).contains(&r.accuracy));
        // Speedup is hardware-dependent; only require it on real
        // multi-core machines (CI containers often expose one core).
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 8 {
            assert!(
                r.speedup() > 1.0,
                "expected parallel gain on {cores} cores, got {:.2}x",
                r.speedup()
            );
        }
    }

    #[test]
    fn render_and_json_carry_the_headline_fields() {
        let r = run(&Scale::bench());
        let s = r.render();
        assert!(s.contains("Runtime throughput"));
        assert!(s.contains("speedup"));
        assert!(s.contains("reference (f64)"));
        assert!(s.contains("exact (transfer matrix)"));
        let j = r.to_json();
        for key in [
            "rows",
            "cols",
            "samples",
            "threads",
            "reference_samples_per_sec",
            "serial_samples_per_sec",
            "parallel_samples_per_sec",
            "exact_samples_per_sec",
            "exact_transfer_build_ms",
            "speedup",
            "kernel_gain",
            "artifact_bytes",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
    }
}
