//! `lcws-perfbench`: one workload, four scheduler compositions at P = 2,
//! checked outputs, and one JSON result line. `perfbench/run.py` builds
//! it (plain and `--features trace`) and drives it; see
//! `perfbench/README.md` for the metrics and what each should move.
//!
//! Usage: `lcws-perfbench --workload fib|flood|pbbs|ingress --seed N
//! --seconds S [--layers]`

mod harness;
mod report;
mod stats;
// The reductions run only in `trace` builds; their tests run in every build.
#[cfg_attr(not(feature = "trace"), allow(dead_code))]
mod trace_reduce;
mod workloads;

use std::time::Duration;

use harness::{Config, Mode, COMPS, THREADS};
use report::{Report, Watchdog};
use workloads::{Fib, Flood, Ingress, Pbbs};

/// No single iteration may take longer than this; a hang past it fails
/// the run instead of stalling it.
const ITERATION_LIMIT: Duration = Duration::from_secs(20);

fn usage(msg: &str) -> ! {
    eprintln!(
        "lcws-perfbench: {msg}\nusage: lcws-perfbench --workload fib|flood|pbbs|ingress \
         --seed N --seconds S [--layers]"
    );
    std::process::exit(2);
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = Mode::EndToEnd;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --seed")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 120.0)
                        .unwrap_or_else(|| usage("--seconds must be in (0, 120]")),
                );
            }
            "--layers" => mode = Mode::Layers,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let cfg = Config {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        mode,
    };

    for c in &COMPS {
        println!("composition {} ({}): {:?}", c.name, c.variant, c.policies);
    }

    let mut out = Report::default();
    let mut lines = Vec::new();
    let watchdog = Watchdog::start(ITERATION_LIMIT);
    let cal_ms = match workload.as_str() {
        "fib" => harness::run(&cfg, || Fib::new(25), &mut out, &mut lines),
        "flood" => harness::run(&cfg, || Flood::new(1 << 14), &mut out, &mut lines),
        "pbbs" => harness::run(&cfg, || Pbbs::new(cfg.seed), &mut out, &mut lines),
        "ingress" => harness::run(
            &cfg,
            || Ingress::new(200_000, 4_000, 16_384),
            &mut out,
            &mut lines,
        ),
        other => usage(&format!("unknown workload {other}")),
    };
    drop(watchdog);
    for l in &lines {
        println!("{l}");
    }
    let features = if cfg!(feature = "trace") {
        "trace"
    } else {
        "none"
    };
    println!(
        "meta {{\"nproc\": {}, \"cpu\": \"{}\", \"features\": \"{features}\", \"seed\": {}, \
         \"threads\": {THREADS}, \"workload\": \"{workload}\", \"layers\": {}, \"cal_ms\": {cal_ms}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        cfg.seed,
        mode == Mode::Layers,
    );
    println!("{}", out.json());
}
