//! Command-line driver regenerating every table and figure of the paper.
//!
//! ```text
//! experiments [fig2|fig3|…|table1|ext|ablation|runtime|serve|chaos|fleet|lifetime|all] [--quick|--bench]
//!             [--json] [--metrics <path>]
//! ```
//!
//! Without a scale flag the paper-scale configuration runs (minutes);
//! `--quick` shrinks the workloads to seconds, `--bench` further still.
//! With `--json`, each experiment also writes its tables to
//! `BENCH_<name>.json` in the working directory. The `runtime`, `serve`,
//! `chaos`, `fleet`, `lifetime`, `encoding` and `training` experiments
//! always write their `BENCH_<name>.json` (their gated numbers are the
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

fn write_json(name: &str, payload: &str) {
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, payload) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: experiments [fig1|fig2|fig3|fig4|fig7|fig8|fig9|table1|ext|ablation|runtime|serve|chaos|fleet|lifetime|encoding|training|all] [--quick|--bench] [--json] [--metrics <path>]"
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
        vec![
            "fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "table1", "ext", "ablation",
            "runtime", "serve", "chaos", "fleet", "lifetime", "encoding", "training",
        ]
    } else {
        which
    };

    for name in which {
        let start = Instant::now();
        let (output, tables) = match name {
            "fig1" => {
                let r = fig1::run(&scale);
                (r.render(), r.tables())
            }
            "fig2" => {
                let r = fig2::run(&scale);
                (r.render(), r.tables())
            }
            "fig3" => {
                let r = fig3::run(&scale);
                (r.render(), r.tables())
            }
            "fig4" => {
                let r = fig4::run(&scale);
                (r.render(), r.tables())
            }
            "fig7" => {
                let r = fig7::run(&scale);
                let mut s = r.render();
                s.push_str(&format!(
                    "optimal gamma: before AMP {:.2}, after AMP {:.2}\n",
                    r.best_gamma_before(),
                    r.best_gamma_after()
                ));
                (s, r.tables())
            }
            "fig8" => {
                let r = fig8::run(&scale);
                (r.render(), r.tables())
            }
            "fig9" => {
                let r = fig9::run(&scale);
                let mut s = r.render();
                s.push_str(&format!("tuned gamma: {:.2}\n", r.tuned_gamma));
                (s, r.tables())
            }
            "table1" => {
                let r = table1::run(&scale);
                (r.render(), r.tables())
            }
            "ext" => {
                let r = extensions::run(&scale);
                (r.render(), r.tables())
            }
            "ablation" => {
                let r = ablation::run(&scale);
                (r.render(), r.tables())
            }
            "runtime" => {
                let r = runtime::run(&scale);
                write_json("runtime", &r.to_json());
                (r.render(), r.tables())
            }
            "serve" => {
                let r = serve::run(&scale);
                write_json("serve", &r.to_json());
                (r.render(), r.tables())
            }
            "chaos" => {
                let r = chaos::run(&scale);
                write_json("chaos", &r.to_json());
                (r.render(), r.tables())
            }
            "fleet" => {
                let r = fleet::run(&scale);
                write_json("fleet", &r.to_json());
                (r.render(), r.tables())
            }
            "lifetime" => {
                let r = lifetime::run(&scale);
                write_json("lifetime", &r.to_json());
                (r.render(), r.tables())
            }
            "encoding" => {
                let r = encoding::run(&scale);
                write_json("encoding", &r.to_json());
                (r.render(), r.tables())
            }
            "training" => {
                let r = training::run(&scale);
                write_json("training", &r.to_json());
                (r.render(), r.tables())
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                usage_exit();
            }
        };
        // `runtime`, `serve`, `chaos`, `fleet`, `lifetime`, `encoding`
        // and `training` already wrote their richer flat-field payloads
        // above.
        if json
            && !matches!(
                name,
                "runtime" | "serve" | "chaos" | "fleet" | "lifetime" | "encoding" | "training"
            )
        {
            write_json(name, &tables_to_json(&tables));
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
