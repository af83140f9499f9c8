//! The repo benchmark: four fixed-work KV workloads measured from outside
//! through public API only. See `README.md` for what is measured and why.
//!
//! ```text
//! rqs-benchmark --workload W --seed S [--seconds N] [--trace 0|1]
//! rqs-benchmark --workload W --repeat K [--seed S] [--out FILE]
//! rqs-benchmark --compare A.json B.json
//! rqs-benchmark --smoke [--workload W]
//! rqs-benchmark --self-test
//! ```

mod adapter;
mod check;
mod driver;
mod json;
mod metrics;
mod workload;

use driver::{run_lap, Lap};
use json::Json;
use metrics::{median, peak_rss_mb, quartiles, tick_percentile, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{generate, Spec, NOMINAL_SECONDS, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
    smoke: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        repeat: 0,
        out: None,
        compare: None,
        smoke: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn spec_of(args: &Args) -> Result<&'static Spec, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// The benchmark's own directory (set by `run.sh`).
fn bench_dir() -> PathBuf {
    PathBuf::from(std::env::var("RQS_BENCH_DIR").unwrap_or_else(|_| "benchmark".into()))
}

/// One run's result: what the last line of output carries.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The lap a run reports: chunk by chunk, the measured lap that ran the
/// chunk at the least cost (and, for CPU time, the one that ran it on the
/// least CPU). The machine this runs on is shared, and what disturbs it
/// comes in bursts of tens of milliseconds to seconds; every lap does the
/// same work chunk by chunk, so the cheapest instance of each chunk is the
/// one the machine disturbed least.
struct Composite {
    wall_s: f64,
    cpu_us: f64,
    /// Latency in ticks of every completed op of the chosen chunks,
    /// ascending.
    lat_ticks: Vec<f64>,
}

impl Composite {
    fn of(laps: &[Lap]) -> Self {
        let mut c = Composite {
            wall_s: 0.0,
            cpu_us: 0.0,
            lat_ticks: Vec::new(),
        };
        let chunks = laps.iter().map(|l| l.chunks.len()).max().unwrap_or(0);
        for i in 0..chunks {
            let instances = || laps.iter().filter_map(|l| l.chunks.get(i));
            let best = instances()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .expect("a lap has the chunk");
            c.wall_s += best.wall_s;
            c.cpu_us += instances().map(|c| c.cpu_us).fold(f64::MAX, f64::min);
            c.lat_ticks.extend(&best.lat_ticks);
        }
        c.lat_ticks.sort_by(f64::total_cmp);
        c
    }

    /// Completed ops.
    fn ops(&self) -> f64 {
        self.lat_ticks.len() as f64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() / self.wall_s.max(1e-9)
    }
}

/// Runs `spec` once: a warm-up lap and `measured` measured laps of `n` ops
/// each. A traced run alternates traced and untraced measured laps: the
/// traced ones give the per-layer metrics, the pair gives the overhead.
fn run(
    spec: &Spec,
    n: usize,
    seed: u64,
    trace: bool,
    measured: usize,
    epoch: Instant,
) -> RunResult {
    let inputs = generate(spec, n, seed);
    let init_s = epoch.elapsed().as_secs_f64();
    let mut problems: Vec<String> = Vec::new();
    let mut untimed = Vec::new();
    let (mut warm_up_s, mut rss_mb) = (0.0, 0.0);
    let mut plain: Vec<Lap> = Vec::new();
    let mut traced: Vec<Lap> = Vec::new();
    let mut last_trace = None;
    for lap_no in 0..=measured {
        let with_trace = trace && lap_no % 2 == 1;
        let (lap, lap_trace) = run_lap(spec, &inputs, with_trace, epoch);
        for p in &lap.problems {
            problems.push(format!("lap {lap_no}: {p}"));
        }
        eprintln!(
            "lap {lap_no}{}: {} ops in {:.3} s, {} failed, {:.3} s untimed",
            if with_trace { " (traced)" } else { "" },
            lap.n,
            lap.wall_s(),
            lap.failed,
            lap.untimed_s
        );
        untimed.push(lap.untimed_s);
        if lap_no == 0 {
            // Warm-up: checked, not measured, except for memory. On a clean
            // heap the peak is what one deployment of `n` ops needs; later
            // laps only add what the allocator did not hand back.
            warm_up_s = lap.wall_s();
            rss_mb = peak_rss_mb();
        } else if with_trace {
            traced.push(lap);
            last_trace = lap_trace;
        } else {
            plain.push(lap);
        }
    }

    let mut metrics = Vec::new();
    if trace {
        if let Some(t) = last_trace {
            let dir = bench_dir().join("out");
            let path = dir.join(format!("trace-{}.json", spec.name));
            let doc = adapter::chrome_document(&t.events, &t.spans);
            if let Err(e) = adapter::parse_chrome_trace(&doc) {
                problems.push(format!("trace does not parse: {e}"));
            }
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
                Ok(()) => eprintln!("trace written to {}", path.display()),
                Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
            }
        }
        let overhead =
            100.0 * (1.0 - Composite::of(&traced).ops_per_s() / Composite::of(&plain).ops_per_s());
        for (name, unit) in PER_LAYER {
            let value = match name {
                "obs.trace_overhead_pct" => overhead,
                _ => median(traced.iter().map(|l| l.layer[name]).collect()),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let best = Composite::of(&plain);
        let laps = untimed.len() as f64;
        for (name, unit) in END_TO_END {
            let value = match name {
                // Every lap's build, preload, drain, check and shutdown
                // (as laps x the median lap, which one disturbed lap does
                // not move), the whole warm-up lap, and what ran before
                // the first lap.
                "setup_s" => init_s + warm_up_s + laps * median(untimed.clone()),
                "ops_per_s" => best.ops_per_s(),
                "p50_us" => tick_percentile(&best.lat_ticks, 50.0) * spec.tick_us as f64,
                "p99_us" => tick_percentile(&best.lat_ticks, 99.0) * spec.tick_us as f64,
                "cpu_us_per_op" => best.cpu_us / best.ops().max(1.0),
                "rss_mb" => rss_mb,
                _ => unreachable!("end-to-end metric {name}"),
            };
            metrics.push((name, value, unit));
        }
    }
    for p in &problems {
        eprintln!("incorrect: {p}");
    }
    let laps = plain.iter().chain(&traced);
    RunResult {
        correct: problems.is_empty(),
        attempted: laps.clone().map(|l| l.n).sum(),
        failed: laps.map(|l| l.failed).sum(),
        metrics,
    }
}

fn print_result(spec: &Spec, n: usize, seed: u64, result: &RunResult) {
    println!(
        "workload {} seed {seed}: {} measured ops in laps of {n}, {} failed, correct {} ({} cpus)",
        spec.name,
        result.attempted,
        result.failed,
        result.correct,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for (name, value, unit) in &result.metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    println!("{}", result.to_json());
}

/// `--repeat K`: runs the workload K times as child processes (so that
/// peak RSS and set-up are per run), prints median, quartiles and range
/// per metric, and optionally writes the result set.
fn repeat(args: &Args, spec: &Spec) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: Vec<(u64, Json)> = Vec::new();
    for i in 0..args.repeat as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("run with seed {seed} exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().ok_or("run printed nothing")?;
        eprintln!("seed {seed}: {line}");
        runs.push((seed, json::parse(line)?));
    }
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    let first = &runs.first().ok_or("--repeat needs at least 1")?.1;
    for (name, _) in first.get("metrics").map(Json::fields).unwrap_or_default() {
        let values: Vec<f64> = runs.iter().filter_map(|(_, r)| metric(r, name)).collect();
        let med = median(values.clone());
        let (q1, q3) = if values.len() >= 2 {
            quartiles(values.clone())
        } else {
            (med, med)
        };
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        println!(
            "{name:<32} {med:>14.4} {q1:>14.4} {q3:>14.4} {min:>14.4} {max:>14.4} {:>7.2}%",
            100.0 * (q3 - q1) / med.abs().max(1e-12)
        );
    }
    let all_correct = runs
        .iter()
        .all(|(_, r)| r.get("correct").and_then(Json::as_bool) == Some(true));
    println!("runs {} correct {all_correct}", runs.len());
    if let Some(path) = &args.out {
        let lines: Vec<String> = runs
            .iter()
            .map(|(seed, r)| {
                let metrics: Vec<String> = r
                    .get("metrics")
                    .map(Json::fields)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(k, v)| Some(format!("\"{k}\": {}", v.get("value")?.as_f64()?)))
                    .collect();
                format!(
                    "    {{\"seed\": {seed}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                    r.get("correct").and_then(Json::as_bool).unwrap_or(false),
                    r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
                    r.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
                    metrics.join(", ")
                )
            })
            .collect();
        let doc = format!(
            "{{\n  \"workload\": \"{}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
            spec.name,
            lines.join(",\n")
        );
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
    }
    if all_correct {
        Ok(())
    } else {
        Err("a run was not correct".into())
    }
}

/// A metric's value in either a run's output line or a result-set entry.
fn metric(run: &Json, name: &str) -> Option<f64> {
    let m = run.get("metrics")?.get(name)?;
    m.as_f64().or_else(|| m.get("value")?.as_f64())
}

/// `--compare A B`: do two result sets of one workload agree within every
/// end-to-end metric's bound (read from `BENCHMARK.json`)?
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.get("workload") != b.get("workload") {
        return Err("the result sets are of different workloads".into());
    }
    let contract = [
        "BENCHMARK.json".into(),
        bench_dir().join("../BENCHMARK.json"),
    ]
    .iter()
    .find(|p: &&PathBuf| p.exists())
    .ok_or("BENCHMARK.json not found (run from the root of the repo)")
    .and_then(|p| load(&p.to_string_lossy()).map_err(|_| "BENCHMARK.json does not parse"))?;
    let medians = |set: &Json, name: &str| {
        median(
            set.get("runs")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .filter_map(|r| metric(r, name))
                .collect(),
        )
    };
    println!(
        "{:<16} {:>14} {:>14} {:>9} {:>7}",
        "metric", "median A", "median B", "differ", "bound"
    );
    let mut agree = true;
    for m in contract
        .get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
    {
        let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let (ma, mb) = (medians(&a, name), medians(&b, name));
        let differ = (ma - mb).abs() / ma.abs().max(1e-12);
        let ok = differ <= bound;
        agree &= ok;
        println!(
            "{name:<16} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.0}% {}",
            100.0 * differ,
            100.0 * bound,
            if ok { "" } else { "DISAGREE" }
        );
    }
    Ok(agree)
}

/// `--smoke`: every workload (or the given one) at a twentieth of its
/// size, one warm-up and one measured lap.
fn smoke(args: &Args) -> bool {
    let mut all = true;
    for spec in WORKLOADS.iter() {
        if args.workload.as_deref().is_some_and(|w| w != spec.name) {
            continue;
        }
        let n = (spec.ops / 20).max(1);
        let t = Instant::now();
        let result = run(spec, n, args.seed, false, 1, t);
        eprintln!(
            "smoke {} took {:.2} s",
            spec.name,
            t.elapsed().as_secs_f64()
        );
        print_result(spec, n, args.seed, &result);
        all &= result.correct && result.failed == 0;
    }
    all
}

/// `--self-test`: plants two faults into the evidence of a correct lap and
/// requires the check to report `correct = false` for each.
fn self_test(seed: u64) -> bool {
    use check::{check, plant, Evidence, Plant};
    let spec = workload::find("sim-hot-read").expect("sim workload");
    let inputs = generate(spec, 2_000, seed);
    let (log, readback) = driver::sim_evidence(spec, &inputs);
    let verdict = |log: &[_], readback: &[_]| {
        check(&Evidence {
            outcomes: log,
            readback,
            expected: inputs.preload.len() + inputs.ops.len(),
            last_written: &inputs.last_written,
        })
    };
    let clean = verdict(&log, &readback);
    println!("{{\"plant\": \"none\", \"correct\": {}}}", clean.correct());
    let mut teeth = clean.correct();
    for (name, p) in [
        ("fabricated-read", Plant::FabricatedRead),
        ("dropped-acked-write", Plant::DroppedAckedWrite),
    ] {
        let (mut log, mut readback) = (log.clone(), readback.clone());
        plant(p, &mut log, &mut readback);
        let v = verdict(&log, &readback);
        println!(
            "{{\"plant\": \"{name}\", \"correct\": {}, \"problem\": {:?}}}",
            v.correct(),
            v.problems.first().map(String::as_str).unwrap_or("")
        );
        teeth &= !v.correct();
    }
    teeth
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let outcome = parse_args().and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return compare(a, b);
        }
        if args.self_test {
            return Ok(self_test(args.seed));
        }
        if args.smoke {
            return Ok(smoke(&args));
        }
        let spec = spec_of(&args)?;
        if args.repeat > 0 {
            return repeat(&args, spec).map(|()| true);
        }
        let n = ((spec.ops as f64 * args.seconds / NOMINAL_SECONDS).round() as usize).max(1);
        let result = run(spec, n, args.seed, args.trace, spec.laps, epoch);
        print_result(spec, n, args.seed, &result);
        Ok(true)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rqs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
