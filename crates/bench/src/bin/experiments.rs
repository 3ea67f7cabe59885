//! Command-line driver regenerating every table and figure of the paper.
//!
//! ```text
//! experiments [<name>…|all] [--quick|--bench] [--json] [--metrics <path>]
//! ```
//!
//! The experiment names are those of [`EXPERIMENTS`]; the usage message
//! lists them all. Without a scale flag the paper-scale configuration
//! runs (minutes); `--quick` shrinks the workloads to seconds, `--bench`
//! further still. With `--json`, each experiment also writes its tables
//! to `BENCH_<name>.json` in the working directory. Experiments whose
//! entry carries a richer flat-field payload (`runner!(m, json)`) always
//! write it as their `BENCH_<name>.json` (their gated numbers are the
//! point of running them). With `--metrics <path>`, the
//! `vortex_obs` registry snapshot — span timings, counters, gauges and
//! the CG iteration count of every nodal solve (`xbar.cg_iterations`),
//! collected from every hot path the run touched — is written to `<path>`
//! after all experiments finish, so each benchmark run carries its own
//! profile.

use std::time::Instant;

use vortex_bench::experiments::common::tables_to_json;
use vortex_bench::experiments::{
    ablation, chaos, encoding, extensions, fig1, fig2, fig3, fig4, fig7, fig8, fig9, fleet,
    lifetime, runtime, serve, table1, training,
};
use vortex_bench::Scale;
use vortex_core::report::Table;

/// What one experiment run prints, its tables, and the flat-field
/// payload it always writes (`None`: its tables are written, and only
/// under `--json`).
type Outcome = (String, Vec<Table>, Option<String>);

/// Runs one experiment at a scale.
type Runner = fn(&Scale) -> Outcome;

/// The runner of experiment module `$m`; with `json`, its `to_json()`
/// is the payload.
macro_rules! runner {
    ($m:ident) => {
        |s| {
            let r = $m::run(s);
            (r.render(), r.tables(), None)
        }
    };
    ($m:ident, json) => {
        |s| {
            let r = $m::run(s);
            (r.render(), r.tables(), Some(r.to_json()))
        }
    };
}

/// Every experiment, in `all` order: its command-line name and runner.
const EXPERIMENTS: [(&str, Runner); 17] = [
    ("fig1", runner!(fig1)),
    ("fig2", runner!(fig2)),
    ("fig3", runner!(fig3)),
    ("fig4", runner!(fig4)),
    ("fig7", runner!(fig7)),
    ("fig8", runner!(fig8)),
    ("fig9", runner!(fig9)),
    ("table1", runner!(table1)),
    ("ext", runner!(extensions)),
    ("ablation", runner!(ablation)),
    ("runtime", runner!(runtime, json)),
    ("serve", runner!(serve, json)),
    ("chaos", runner!(chaos, json)),
    ("fleet", runner!(fleet, json)),
    ("lifetime", runner!(lifetime, json)),
    ("encoding", runner!(encoding, json)),
    ("training", runner!(training, json)),
];

fn write_json(name: &str, payload: &str) {
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, payload) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn usage_exit() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: experiments [{}|all] [--quick|--bench] [--json] [--metrics <path>]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    // The mesh solver records no metrics itself; forward the CG iteration
    // count of every nodal solve into the registry `--metrics` exports.
    vortex_xbar::circuit::observe_solve_iterations(|iterations| {
        vortex_obs::histogram!("xbar.cg_iterations").record(iterations as f64);
    });
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Pull out `--metrics <path>` before flag scanning.
    let mut metrics_path: Option<String> = None;
    let mut args: Vec<String> = Vec::with_capacity(raw.len());
    let mut iter = raw.into_iter();
    while let Some(a) = iter.next() {
        if a == "--metrics" {
            match iter.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("--metrics requires a path argument");
                    usage_exit();
                }
            }
        } else {
            args.push(a);
        }
    }
    let scale = if args.iter().any(|a| a == "--bench") {
        Scale::bench()
    } else if args.iter().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let json = args.iter().any(|a| a == "--json");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let which: Vec<&str> = if which.is_empty() || which.contains(&"all") {
        EXPERIMENTS.iter().map(|&(name, _)| name).collect()
    } else {
        which
    };

    for name in which {
        let start = Instant::now();
        let Some(&(_, runner)) = EXPERIMENTS.iter().find(|&&(n, _)| n == name) else {
            eprintln!("unknown experiment `{name}`");
            usage_exit();
        };
        let (output, tables, payload) = runner(&scale);
        match payload {
            Some(payload) => write_json(name, &payload),
            None if json => write_json(name, &tables_to_json(&tables)),
            None => {}
        }
        println!("{output}");
        println!("[{name} finished in {:.1?}]\n", start.elapsed());
    }

    // The snapshot is taken once, after every experiment has reported, so
    // the profile covers the whole invocation.
    if let Some(path) = metrics_path {
        match std::fs::write(&path, vortex_obs::snapshot().to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write metrics snapshot {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
