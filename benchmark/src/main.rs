//! `jucq-e2e` — the end-to-end benchmark of the jucq engine.
//!
//! `jucq-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets up one workload from the seed, measures it for about
//! `--seconds`, checks every answer against a Saturation oracle, prints
//! one `workload metric value unit n` line per metric and, as the last
//! line of standard output, the result as one JSON object. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, from a replay under bench-owned spans. See README.md.

mod check;
mod dataset;
mod inproc;
mod report;
mod serve;
mod shape;
mod staged;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use jucq_core::Strategy;

use dataset::{Source, PLAN_CACHE};
use inproc::Workload;
use report::Report;
use trace::Tracer;

/// Environment variables that change how the engine runs; cleared so
/// every run measures the same configuration.
const ENGINE_KNOBS: [&str; 7] = [
    "JUCQ_THREADS",
    "JUCQ_BATCH",
    "JUCQ_VIEWS",
    "JUCQ_ORDER",
    "JUCQ_OBS",
    "JUCQ_QUERY_LOG",
    "JUCQ_SLOW_MS",
];

pub const WORKLOADS: [&str; 4] = ["lubm16_warm", "small_cold", "lubm4_matrix", "lubm4_serve_rw"];

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Replay under spans and report the per-layer metrics.
    pub traced: bool,
    /// Smoke mode: scale 1, one set-up, one pass.
    pub quick: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: jucq-e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Option<Options> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0x10b3,
        seconds: 20.0,
        traced: false,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => opts.workload = args.next()?,
            "--seed" => opts.seed = parse_seed(&args.next()?)?,
            "--seconds" => opts.seconds = args.next()?.parse().ok().filter(|s| *s >= 0.0)?,
            "--trace" => {
                opts.traced = match args.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--quick" => opts.quick = true,
            _ => return None,
        }
    }
    if opts.quick {
        opts.seconds = 0.0;
    }
    WORKLOADS.contains(&opts.workload.as_str()).then_some(opts)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("jucq-e2e measures optimized builds only: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    // Before any profile is built (profiles read these at construction)
    // and before any thread starts.
    for knob in ENGINE_KNOBS {
        std::env::remove_var(knob);
    }
    let Some(opts) = parse_args() else {
        return usage();
    };

    let lubm = |universities: usize| Source::Lubm(if opts.quick { 1 } else { universities });
    let gcov = Strategy::gcov_default;
    let warm = Some(PLAN_CACHE);
    let in_process =
        |sources, plan_cache, legs| Workload { sources, plan_cache, legs, replan_every: None };
    let workload = match opts.workload.as_str() {
        "lubm16_warm" => Some(in_process(vec![lubm(16)], warm, vec![(0, gcov())])),
        "small_cold" => Some(in_process(
            vec![lubm(1), Source::Dblp(2000)],
            None,
            vec![(0, gcov()), (1, gcov())],
        )),
        "lubm4_matrix" => Some(in_process(
            vec![lubm(4)],
            warm,
            vec![(0, Strategy::Saturation), (0, Strategy::Ucq), (0, Strategy::Scq), (0, gcov())],
        )),
        // `lubm4_serve_rw`, the one workload that is not in process.
        _ => None,
    };
    let mut report = Report::new(&opts.workload, opts.traced);
    let mut tracer = Tracer::new();
    match workload {
        Some(w) if opts.traced => inproc::run_traced(&w, &opts, &mut report, &mut tracer),
        Some(w) => inproc::run(&w, &opts, &mut report),
        None => serve::run(lubm(4), &opts, &mut report, &mut tracer),
    }
    if !opts.traced {
        report.set("peak_rss_mb", peak_rss_mb(), 1);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note("nproc", nproc.to_string());
    let engine_parallelism = dataset::profile().effective_parallelism();
    report.note("engine_parallelism", engine_parallelism.to_string());
    report.note("seed", format!("{:#x}", opts.seed));
    report.note("seconds", opts.seconds.to_string());
    report.note("commit", std::env::var("JUCQ_E2E_COMMIT").unwrap_or_else(|_| "unknown".into()));
    eprintln!("nproc {nproc} engine_parallelism {engine_parallelism} seed {:#x}", opts.seed);

    // Everything the run leaves behind goes under the crate's `out/`.
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{:x}-trace{}", opts.workload, opts.seed, u8::from(opts.traced));
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), report.document()))
        .and_then(|()| {
            if opts.traced {
                std::fs::write(out.join(format!("{stem}.spans.json")), tracer.to_json())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", out.display());
    }

    print!("{}", report.lines());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
