//! Benchmark regression gate for CI: re-runs `exp_kv` and `exp_soak` in
//! quick mode and compares throughput against the committed
//! `BENCH_kv.json` / `BENCH_soak.json` baselines. Exits non-zero when a
//! deterministic (`ops/tick`) entry drops more than the tolerance below
//! its baseline or a baseline entry disappears; wall-clock entries are
//! advisory (machine-dependent).

use bench::bench_diff::{diff, parse_report_array, render, DEFAULT_TOLERANCE};
use bench::cli::DEFAULT_SEED;
use bench::Report;

struct Args {
    kv: String,
    soak: String,
    tolerance: f64,
    strict_wall: bool,
    seed: u64,
}

const USAGE: &str = "usage: bench_diff [--kv PATH] [--soak PATH] [--tolerance FRACTION] \
     [--strict-wall] [--seed N] [--help]

Re-runs exp_kv and exp_soak with --quick and compares throughput against
the committed baselines (default BENCH_kv.json / BENCH_soak.json,
recorded with --quick --json on seed 42). Deterministic ops/tick entries
gate at the tolerance (default 0.30); wall-clock ops/s entries are
advisory unless --strict-wall.";

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        kv: "BENCH_kv.json".into(),
        soak: "BENCH_soak.json".into(),
        tolerance: DEFAULT_TOLERANCE,
        strict_wall: false,
        seed: DEFAULT_SEED,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--kv" => args.kv = value("--kv"),
            "--soak" => args.soak = value("--soak"),
            "--tolerance" => {
                let v = value("--tolerance");
                args.tolerance = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--tolerance: not a number: {v:?}")));
            }
            "--strict-wall" => args.strict_wall = true,
            "--seed" => {
                let v = value("--seed");
                args.seed = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--seed: not a u64: {v:?}")));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn load_baseline(path: &str) -> Vec<Report> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("error: cannot read baseline {path}: {err}");
        std::process::exit(2);
    });
    parse_report_array(&text).unwrap_or_else(|err| {
        eprintln!("error: baseline {path}: {err}");
        std::process::exit(2);
    })
}

fn main() {
    let args = parse_args();
    let mut baseline = load_baseline(&args.kv);
    baseline.extend(load_baseline(&args.soak));

    eprintln!("bench_diff: running quick exp_kv (seed {})...", args.seed);
    let mut fresh = vec![
        bench::exp_kv::batching_report(args.seed, true),
        bench::exp_kv::substrate_report(args.seed, true),
    ];
    eprintln!("bench_diff: running quick exp_soak (seed {})...", args.seed);
    let soak_params = bench::exp_soak::SoakParams::quick();
    let run = bench::exp_soak::run_soak(args.seed, soak_params);
    if !bench::exp_soak::passed(&run) {
        eprintln!("bench_diff: soak reported an atomicity violation or a nudge storm");
        std::process::exit(1);
    }
    fresh.push(bench::exp_soak::render(args.seed, soak_params, &run));

    let outcome = diff(&baseline, &fresh, args.tolerance, args.strict_wall);
    println!("{}", render(&outcome, args.tolerance));
    if !outcome.ok() {
        eprintln!(
            "bench_diff: FAIL ({} regressed, {} missing)",
            outcome.regressions.len(),
            outcome.missing.len()
        );
        std::process::exit(1);
    }
    eprintln!("bench_diff: ok ({} entries compared)", outcome.lines.len());
}
