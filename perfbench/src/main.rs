//! `shelfsim-perfbench`: the simulator's end-to-end and per-layer
//! performance benchmark.
//!
//! ```text
//! perfbench --workload <engine-busy|engine-membound|paper-sweep>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics (`kips`,
//! `runs_per_s`, `setup_s`, `peak_rss_mb`); with `--trace 1` the
//! per-layer metrics of a traced run. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! README.md in this directory.

mod campaign;
mod engine;
mod golden;
mod layers;
mod measure;
mod sweep;
mod yardstick;

use measure::{Gate, Metrics};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: golden::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let engine = match args.workload.as_str() {
        "engine-busy" => Some(&engine::BUSY),
        "engine-membound" => Some(&engine::MEMBOUND),
        "paper-sweep" => None,
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` \
                 (engine-busy, engine-membound, paper-sweep)"
            );
            std::process::exit(2);
        }
    };
    let mut gate = Gate::default();
    let mut metrics: Metrics = match (engine, args.trace) {
        (Some(w), false) => engine::run(w, args.seed, args.seconds, &mut gate),
        (Some(w), true) => engine::run_traced(w, args.seed, args.seconds, &mut gate),
        (None, false) => sweep::run(args.seed, args.seconds, &mut gate),
        (None, true) => sweep::run_traced(args.seed, args.seconds, &mut gate),
    };
    if !args.trace {
        match measure::peak_rss_mb() {
            Some(mb) => metrics.put("peak_rss_mb", mb, "MB"),
            None => gate.fail("peak RSS unavailable (no /proc/self/status)".to_owned()),
        }
    }
    for reason in gate.reasons() {
        eprintln!("perfbench: FAILED {reason}");
    }
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        gate.failed == 0 && finite && gate.attempted > 0,
        gate.attempted.max(1),
        gate.failed,
        metrics.to_json()
    );
}
