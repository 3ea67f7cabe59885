//! End-to-end test of the `experiments` command-line harness: the binary
//! must run each artifact at `--bench` scale and print a well-formed
//! table.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn fig2_at_bench_scale_prints_a_table() {
    let (stdout, _, ok) = run(&["fig2", "--bench"]);
    assert!(ok);
    assert!(stdout.contains("Fig. 2"));
    assert!(stdout.contains("sigma"));
    assert!(stdout.contains("fig2 finished"));
    // Nine σ rows between header and footer.
    let rows = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("0."))
        .count();
    assert_eq!(rows, 9);
}

#[test]
fn fig3_at_bench_scale_prints_a_table() {
    let (stdout, _, ok) = run(&["fig3", "--bench"]);
    assert!(ok);
    assert!(stdout.contains("Fig. 3"));
    assert!(stdout.contains("update-rate skew"));
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let (_, stderr, ok) = run(&["figX", "--bench"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    assert!(stderr.contains("figX"));
}

#[test]
fn multiple_experiments_in_one_invocation() {
    let (stdout, _, ok) = run(&["fig2", "fig3", "--bench"]);
    assert!(ok);
    assert!(stdout.contains("Fig. 2"));
    assert!(stdout.contains("Fig. 3"));
}

#[test]
fn ablation_prints_four_tables_and_writes_its_payload() {
    let dir = std::env::temp_dir().join(format!("vortex-cli-ablation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["ablation", "--bench", "--json"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let titles = [
        "Ablation — Eq. (7) penalty bound",
        "Ablation — row mapping",
        "Ablation — nodal solve preconditioner",
        "Ablation — self-tuned vs fixed gamma",
    ];
    for title in titles {
        assert!(stdout.contains(title), "missing table {title:?}");
    }
    assert!(stdout.contains("wrote BENCH_ablation.json"));
    let json = std::fs::read_to_string(dir.join("BENCH_ablation.json")).expect("payload written");
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"title\":").count(), titles.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_writes_a_gateable_json_payload() {
    let dir = std::env::temp_dir().join(format!("vortex-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["serve", "--bench"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Serving throughput"));
    assert!(stdout.contains("Degradation ladder"));
    assert!(stdout.contains("wrote BENCH_serve.json"));

    // The payload must carry the keys the CI gate compares, with sane
    // values, so `check_bench BENCH_serve.json bench/baseline_serve.json`
    // has something to gate.
    let json = std::fs::read_to_string(dir.join("BENCH_serve.json")).expect("payload written");
    for key in ["serial_samples_per_sec", "pooled_samples_per_sec"] {
        let v = vortex_bench::gate::extract_number(&json, key)
            .unwrap_or_else(|| panic!("{key} missing from payload"));
        assert!(v > 0.0, "{key} must be positive, got {v}");
    }
    assert!(vortex_bench::gate::extract_number(&json, "recovered").is_none());
    assert!(json.contains("\"recovered\":true"), "ladder must recover");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runtime_payload_passes_the_checked_in_throughput_gate() {
    let dir = std::env::temp_dir().join(format!("vortex-cli-runtime-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["runtime", "--quick", "--json"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Runtime throughput"));
    assert!(stdout.contains("wrote BENCH_runtime.json"));

    // The payload must carry every gated key (reference kernel, serial
    // fast path, pooled parallel, Exact read, fast-path gain) with sane
    // values…
    let json = std::fs::read_to_string(dir.join("BENCH_runtime.json")).expect("payload written");
    for key in [
        "reference_samples_per_sec",
        "serial_samples_per_sec",
        "parallel_samples_per_sec",
        "exact_samples_per_sec",
        "exact_transfer_build_ms",
        "kernel_gain",
    ] {
        let v = vortex_bench::gate::extract_number(&json, key)
            .unwrap_or_else(|| panic!("{key} missing from payload"));
        assert!(v > 0.0, "{key} must be positive, got {v}");
    }

    // …and pass the checked-in baseline the CI bench-smoke step gates
    // with, so a floor recalibration can never land broken.
    let baseline = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline.json"),
    )
    .expect("baseline readable");
    let report = vortex_bench::gate::check(&json, &baseline, 0.30).expect("gateable payload");
    assert_eq!(
        report.checks.len(),
        6,
        "baseline gates four runtime floors, the kernel gain and the Exact compile ceiling"
    );
    assert!(
        report.pass(),
        "runtime payload failed its own gate:\n{}",
        report.render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_writes_a_payload_the_reliability_gate_accepts() {
    let dir = std::env::temp_dir().join(format!("vortex-cli-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["chaos", "--bench"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Self-healing chaos"));
    assert!(stdout.contains("wrote BENCH_chaos.json"));
    // Injected pump panics are contained, expected faults: they unwind
    // without the panic hook, so nothing reaches stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "noisy chaos faults: {stderr}");

    // The payload must pass the checked-in reliability baseline the CI
    // chaos-smoke step gates with: zero lost requests (exact) and a
    // recovered-accuracy delta under the 0.5 pp ceiling.
    let json = std::fs::read_to_string(dir.join("BENCH_chaos.json")).expect("payload written");
    let baseline = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline_chaos.json"),
    )
    .expect("baseline readable");
    let report = vortex_bench::gate::check(&json, &baseline, 0.30).expect("gateable payload");
    assert!(
        report.pass(),
        "chaos payload failed its own gate:\n{}",
        report.render()
    );
    assert_eq!(
        vortex_bench::gate::extract_number(&json, "lost_requests"),
        Some(0.0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_writes_a_payload_the_bench_gate_accepts() {
    let dir = std::env::temp_dir().join(format!("vortex-cli-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fleet", "--bench"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Ensemble vs single chip"));
    assert!(stdout.contains("Goodput under overload"));
    assert!(stdout.contains("wrote BENCH_fleet.json"));

    // The payload must carry both gated keys with sane values: the
    // measured drain throughput and the ensemble-vs-best-single delta
    // (which the checked-in ceiling pins at <= 0 for sigma >= 0.3).
    let json = std::fs::read_to_string(dir.join("BENCH_fleet.json")).expect("payload written");
    let goodput = vortex_bench::gate::extract_number(&json, "fleet_goodput_samples_per_sec")
        .expect("goodput key present");
    assert!(goodput > 0.0, "goodput must be positive, got {goodput}");
    let delta = vortex_bench::gate::extract_number(&json, "ensemble_accuracy_delta_pp")
        .expect("delta key present");
    assert!(
        delta <= 0.0,
        "5-chip vote must match or beat the best single chip, got {delta} pp"
    );

    // The accuracy sweep and the virtual-time simulation are pure
    // functions of the seed, so the delta ceiling in the checked-in
    // baseline can never flake; only the throughput floor carries a
    // noise margin.
    let baseline = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline_fleet.json"),
    )
    .expect("baseline readable");
    let report = vortex_bench::gate::check(&json, &baseline, 0.30).expect("gateable payload");
    assert_eq!(report.checks.len(), 2, "baseline gates two fleet keys");
    assert!(
        report.pass(),
        "fleet payload failed its own gate:\n{}",
        report.render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lifetime_writes_a_payload_the_policy_gate_accepts() {
    // --quick, because that is exactly what the CI bench-smoke step runs
    // and gates; the payload is bit-deterministic, so what passes here
    // passes there.
    let dir = std::env::temp_dir().join(format!("vortex-cli-lifetime-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["lifetime", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Lifetime policy race"));
    assert!(stdout.contains("drift-predictive"));
    assert!(stdout.contains("wrote BENCH_lifetime.json"));

    let json = std::fs::read_to_string(dir.join("BENCH_lifetime.json")).expect("payload written");
    // The virtual-throughput key and the budget pin must be present and
    // sane; the strict-win key must be negative (predictive beats
    // periodic) before the baseline ceiling even applies.
    let served = vortex_bench::gate::extract_number(&json, "lifetime_served_per_virtual_sec")
        .expect("virtual throughput present");
    assert!(served > 0.0, "served/s must be positive, got {served}");
    assert_eq!(
        vortex_bench::gate::extract_number(&json, "lifetime_recompile_budget_delta"),
        Some(0.0),
        "periodic must spend exactly the predictive budget"
    );
    let win = vortex_bench::gate::extract_number(&json, "predictive_minus_periodic_accuracy_hours")
        .expect("strict-win key present");
    assert!(win < 0.0, "predictive must beat periodic, got {win:+}");

    let baseline = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline_lifetime.json"),
    )
    .expect("baseline readable");
    let report = vortex_bench::gate::check(&json, &baseline, 0.30).expect("gateable payload");
    assert_eq!(report.checks.len(), 4, "baseline gates four lifetime keys");
    assert!(
        report.pass(),
        "lifetime payload failed its own gate:\n{}",
        report.render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn encoding_writes_a_payload_the_equal_budget_gate_accepts() {
    // --quick, because that is exactly what the CI bench-smoke step runs
    // and gates; the sweep is pure seeded computation, so what passes
    // here passes there bit-for-bit.
    let dir = std::env::temp_dir().join(format!("vortex-cli-encoding-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["encoding", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Weight encoding"));
    assert!(stdout.contains("adaptive"));
    assert!(stdout.contains("wrote BENCH_encoding.json"));

    let json = std::fs::read_to_string(dir.join("BENCH_encoding.json")).expect("payload written");
    // The pulse pin must hold exactly (adaptive spends the fixed 4-bit
    // budget) and the accuracy delta must already be non-positive before
    // the baseline ceiling even applies.
    assert_eq!(
        vortex_bench::gate::extract_number(&json, "encoding_pulse_budget_delta"),
        Some(0.0),
        "adaptive must spend exactly the fixed-bit pulse budget"
    );
    let delta = vortex_bench::gate::extract_number(&json, "encoding_fixed_minus_adaptive_pp")
        .expect("accuracy-delta key present");
    assert!(
        delta <= 0.0,
        "adaptive must meet or beat fixed 4-bit at equal budget, got {delta:+} pp"
    );

    let baseline = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline_encoding.json"),
    )
    .expect("baseline readable");
    let report = vortex_bench::gate::check(&json, &baseline, 0.30).expect("gateable payload");
    assert_eq!(report.checks.len(), 2, "baseline gates two encoding keys");
    assert!(
        report.pass(),
        "encoding payload failed its own gate:\n{}",
        report.render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn training_writes_a_payload_the_recovery_gate_accepts() {
    // --quick, because that is exactly what the CI bench-smoke step runs
    // and gates; both the real recovery jobs (explicit fixed-size pools)
    // and the virtual-time tail simulation are bit-deterministic, so
    // what passes here passes there.
    let dir = std::env::temp_dir().join(format!("vortex-cli-training-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["training", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Crash recovery at equal seed"));
    assert!(stdout.contains("co-resident trainer"));
    assert!(stdout.contains("wrote BENCH_training.json"));
    // Injected training kills unwind without the panic hook.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "noisy training kills: {stderr}"
    );

    let json = std::fs::read_to_string(dir.join("BENCH_training.json")).expect("payload written");
    // The exactness pin must hold (bit-identical recovery means the
    // accuracy delta is exactly 0) and the chaos plan must actually
    // have bitten: no kills means the recovery path went untested.
    assert_eq!(
        vortex_bench::gate::extract_number(&json, "training_recovery_delta_pp"),
        Some(0.0),
        "recovery must be exact"
    );
    let kills = vortex_bench::gate::extract_number(&json, "training_kills").expect("kills present");
    assert!(
        kills >= 1.0,
        "the chaos plan must kill the job, got {kills}"
    );
    let inflation = vortex_bench::gate::extract_number(&json, "training_p99_inflation_x")
        .expect("inflation key present");
    assert!(
        inflation >= 1.0,
        "co-residency cannot improve the tail, got {inflation}"
    );

    let baseline = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline_training.json"),
    )
    .expect("baseline readable");
    let report = vortex_bench::gate::check(&json, &baseline, 0.30).expect("gateable payload");
    assert_eq!(report.checks.len(), 2, "baseline gates two training keys");
    assert!(
        report.pass(),
        "training payload failed its own gate:\n{}",
        report.render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_bench_gates_multiple_pairs_in_one_invocation() {
    let dir = std::env::temp_dir().join(format!("vortex-cli-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write fixture");
        path.to_string_lossy().into_owned()
    };
    let base_a = write("base_a.json", r#"{"serial_samples_per_sec":1000.0}"#);
    let cur_ok = write("cur_ok.json", r#"{"serial_samples_per_sec":950.0}"#);
    let base_b = write("base_b.json", r#"{"lost_requests":0}"#);
    let cur_b = write("cur_b.json", r#"{"lost_requests":0}"#);
    let cur_bad = write("cur_bad.json", r#"{"serial_samples_per_sec":100.0}"#);

    // Two passing pairs in one invocation: exit 0, both sections
    // rendered.
    let out = Command::new(env!("CARGO_BIN_EXE_check_bench"))
        .args([&cur_ok, &base_a, &cur_b, &base_b])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "two clean pairs must pass: {stdout}");
    assert!(stdout.contains("cur_ok.json"));
    assert!(stdout.contains("lost_requests"));
    assert!(stdout.contains("bench gate: ok"));

    // A failing pair fails the whole invocation — but the later pair is
    // still evaluated and rendered (one CI step reports the full
    // matrix).
    let out = Command::new(env!("CARGO_BIN_EXE_check_bench"))
        .args([&cur_bad, &base_a, &cur_b, &base_b])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"));
    assert!(
        stdout.contains("lost_requests"),
        "later pairs must still render after an earlier failure"
    );

    // An odd path count is a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_check_bench"))
        .args([&cur_ok, &base_a, &cur_b])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_requires_a_path() {
    let (_, stderr, ok) = run(&["fig2", "--bench", "--metrics"]);
    assert!(!ok);
    assert!(stderr.contains("--metrics requires a path"));
    assert!(stderr.contains("usage"));
}

#[test]
fn metrics_flag_writes_a_snapshot_covering_every_instrumented_layer() {
    // fig9 exercises the self-tuner and the OLD/VAT pipeline; runtime
    // exercises compiled-model batched inference and compiles its chips'
    // nodal reads. Between them every span family the obs layer
    // instruments, the mesh solver's iteration histogram and the
    // hinge-SGD kernel's step counters must show up non-zero.
    let dir = std::env::temp_dir().join(format!("vortex-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "fig9",
            "runtime",
            "--bench",
            "--json",
            "--metrics",
            "METRICS_cli.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote METRICS_cli.json"));

    let json = std::fs::read_to_string(dir.join("METRICS_cli.json")).expect("snapshot written");
    for name in [
        "executor.run_seconds",
        "pipeline.evaluate_seconds",
        "tuning.tune_seconds",
        "tuning.scan_seconds",
        "tuning.validate_seconds",
        "tuning.final_seconds",
        "runtime.batch_seconds",
        "xbar.cg_iterations",
    ] {
        let needle = format!("\"{name}\":{{\"count\":");
        let at = json
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from snapshot"));
        let count: u64 = json[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("count parses");
        assert!(count > 0, "{name} recorded no spans");
    }
    // The hinge-SGD kernel's step counters: together they give the share
    // of steps that ran the update pass.
    for name in ["gdt.steps", "gdt.update_steps"] {
        let needle = format!("\"{name}\":");
        let at = json
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from snapshot"));
        let count: u64 = json[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("counter parses");
        assert!(count > 0, "{name} counted nothing");
    }
    // Whether the wide kernels ran on their AVX2 copies: 1 or 0.
    let needle = "\"nn.avx2\":";
    let at = json.find(needle).expect("nn.avx2 missing from snapshot");
    let avx2: f64 = json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect::<String>()
        .parse()
        .expect("gauge parses");
    assert!(avx2 == 0.0 || avx2 == 1.0, "nn.avx2 = {avx2}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_names_every_experiment() {
    let (_, stderr, ok) = run(&["no-such-experiment"]);
    assert!(!ok);
    let usage = stderr
        .lines()
        .find(|l| l.starts_with("usage:"))
        .expect("usage line on stderr");
    let (_, rest) = usage.split_once('[').expect("bracketed name list");
    let (list, _) = rest.split_once(']').expect("bracketed name list");
    let names: Vec<&str> = list.split('|').collect();
    for name in [
        "fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "table1", "ext", "ablation",
        "runtime", "serve", "chaos", "fleet", "lifetime", "encoding", "training", "all",
    ] {
        assert!(names.contains(&name), "usage omits {name}: {usage}");
    }
}
