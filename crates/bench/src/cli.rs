//! Command-line argument handling shared by every `exp_*` binary.
//!
//! Every experiment binary accepts:
//!
//! - `--seed N` — RNG seed for experiments with a stochastic component
//!   (workload generation in `exp_kv`); purely deterministic experiments
//!   accept and ignore it. Defaults to [`DEFAULT_SEED`], so a bare run
//!   reproduces the numbers recorded in `EXPERIMENTS.md`.
//! - `--json` — emit the report(s) as a JSON array (see
//!   [`Report::to_json`](crate::Report::to_json)) instead of tables, for
//!   mechanical capture of benchmark trajectories.
//! - `--quick` — shrink workload parameters for CI smoke runs.
//! - `--pipeline N` — per-lane client pipeline depth for the KV-driving
//!   experiments (depth 1 = classic one-op-per-lane waves); experiments
//!   without a KV workload accept and ignore it.
//! - `--trace PATH` — write a Chrome `trace_event` JSON export of the
//!   run's flight-recorder events to `PATH` (load it in
//!   `chrome://tracing` / Perfetto). Binaries without an instrumented
//!   run emit a valid empty trace.
//! - `--help` / `-h` — print usage and the available flags, then exit.

use crate::report::Report;
use rqs_obs::TraceEvent;

/// The seed used when `--seed` is not given (the historical fixed seed).
pub const DEFAULT_SEED: u64 = 42;

/// Parsed experiment-binary arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpArgs {
    /// Workload/RNG seed (`--seed N`, default [`DEFAULT_SEED`]).
    pub seed: u64,
    /// Emit JSON instead of tables (`--json`).
    pub json: bool,
    /// Use small smoke-run parameters (`--quick`).
    pub quick: bool,
    /// Per-lane client pipeline depth override (`--pipeline N`); `None`
    /// keeps the experiment's default.
    pub pipeline: Option<usize>,
    /// Chrome trace-event export path (`--trace PATH`), if requested.
    pub trace: Option<String>,
    /// Usage was requested (`--help` / `-h`).
    pub help: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            seed: DEFAULT_SEED,
            json: false,
            quick: false,
            pipeline: None,
            trace: None,
            help: false,
        }
    }
}

impl ExpArgs {
    /// The usage text shared by every `exp_*` binary: one line per
    /// available flag.
    pub fn usage() -> String {
        [
            "usage: exp_* [--seed N] [--json] [--quick] [--pipeline N] [--trace PATH]",
            "             [--help]",
            "",
            "options:",
            "  --seed N, --seed=N  workload/RNG seed (default 42); purely",
            "                      deterministic experiments accept and ignore it",
            "  --json              emit the report(s) as a JSON array instead of tables",
            "  --quick             shrink workload parameters for CI smoke runs",
            "  --pipeline N        per-lane client pipeline depth for KV workloads",
            "                      (1 = classic one-op-per-lane waves); experiments",
            "                      without a KV workload accept and ignore it",
            "  --trace PATH        write a Chrome trace-event JSON export of the run's",
            "                      flight-recorder events to PATH (chrome://tracing)",
            "  -h, --help          print this help and exit",
        ]
        .join("\n")
    }

    /// Parses `std::env::args()`.
    ///
    /// Prints usage and exits with status 0 on `--help`/`-h`, or with
    /// status 2 on malformed or unknown arguments.
    pub fn parse() -> Self {
        match Self::try_from_iter(std::env::args().skip(1)) {
            Ok(args) if args.help => {
                println!("{}", Self::usage());
                std::process::exit(0);
            }
            Ok(args) => args,
            Err(err) => {
                eprintln!("error: {err}");
                eprintln!("{}", Self::usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`Self::parse`]).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed or unknown
    /// argument.
    pub fn try_from_iter<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            let seed_val = if arg == "--seed" {
                Some(it.next().ok_or("--seed requires a value")?)
            } else {
                arg.strip_prefix("--seed=").map(str::to_owned)
            };
            let trace_val = if arg == "--trace" {
                Some(it.next().ok_or("--trace requires a path")?)
            } else {
                arg.strip_prefix("--trace=").map(str::to_owned)
            };
            let pipeline_val = if arg == "--pipeline" {
                Some(it.next().ok_or("--pipeline requires a value")?)
            } else {
                arg.strip_prefix("--pipeline=").map(str::to_owned)
            };
            if let Some(val) = seed_val {
                out.seed = val
                    .parse()
                    .map_err(|_| format!("--seed: not a u64: {val:?}"))?;
            } else if let Some(val) = pipeline_val {
                let depth: usize = val
                    .parse()
                    .map_err(|_| format!("--pipeline: not a usize: {val:?}"))?;
                if depth == 0 {
                    return Err("--pipeline: depth must be at least 1".to_string());
                }
                out.pipeline = Some(depth);
            } else if let Some(path) = trace_val {
                if path.is_empty() {
                    return Err("--trace requires a non-empty path".to_string());
                }
                out.trace = Some(path);
            } else if arg == "--json" {
                out.json = true;
            } else if arg == "--quick" {
                out.quick = true;
            } else if arg == "--help" || arg == "-h" {
                out.help = true;
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(out)
    }

    /// Whether a trace export was requested — binaries use this to gate
    /// flight-recorder construction so untraced runs keep the no-op
    /// tracer (and its near-zero overhead).
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Prints the reports in the selected format: a JSON array with
    /// `--json`, the usual tables otherwise.
    pub fn emit(&self, reports: &[Report]) {
        self.emit_traced(reports, &[]);
    }

    /// [`Self::emit`], plus — when `--trace PATH` was given — a Chrome
    /// trace-event export of `events` written to the path. Exits with
    /// status 2 when the file cannot be written.
    pub fn emit_traced(&self, reports: &[Report], events: &[TraceEvent]) {
        if self.json {
            let items: Vec<String> = reports.iter().map(Report::to_json).collect();
            println!("[{}]", items.join(","));
        } else {
            for report in reports {
                println!("{report}");
            }
        }
        if let Some(path) = &self.trace {
            if let Err(err) = std::fs::write(path, rqs_obs::chrome_trace(events)) {
                eprintln!("error: --trace {path}: {err}");
                std::process::exit(2);
            }
            eprintln!("trace: wrote {} events to {path}", events.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let args = ExpArgs::try_from_iter(Vec::<String>::new()).unwrap();
        assert_eq!(args, ExpArgs::default());
        assert_eq!(args.seed, DEFAULT_SEED);
    }

    #[test]
    fn seed_both_spellings() {
        let a = ExpArgs::try_from_iter(["--seed", "7"]).unwrap();
        assert_eq!(a.seed, 7);
        let b = ExpArgs::try_from_iter(["--seed=9"]).unwrap();
        assert_eq!(b.seed, 9);
    }

    #[test]
    fn flags() {
        let a = ExpArgs::try_from_iter(["--json", "--quick"]).unwrap();
        assert!(a.json);
        assert!(a.quick);
    }

    #[test]
    fn rejects_garbage() {
        assert!(ExpArgs::try_from_iter(["--seed"]).is_err());
        assert!(ExpArgs::try_from_iter(["--seed", "x"]).is_err());
        assert!(ExpArgs::try_from_iter(["--frobnicate"]).is_err());
        assert!(ExpArgs::try_from_iter(["--trace"]).is_err());
        assert!(ExpArgs::try_from_iter(["--trace="]).is_err());
        assert!(ExpArgs::try_from_iter(["--pipeline"]).is_err());
        assert!(ExpArgs::try_from_iter(["--pipeline", "x"]).is_err());
        assert!(ExpArgs::try_from_iter(["--pipeline", "0"]).is_err());
        // The shard-worker knob went with the pool it configured.
        let err = ExpArgs::try_from_iter(["--workers", "2"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn pipeline_both_spellings() {
        let a = ExpArgs::try_from_iter(["--pipeline", "4"]).unwrap();
        assert_eq!(a.pipeline, Some(4));
        let b = ExpArgs::try_from_iter(["--pipeline=8"]).unwrap();
        assert_eq!(b.pipeline, Some(8));
        assert_eq!(ExpArgs::default().pipeline, None);
    }

    #[test]
    fn trace_both_spellings() {
        let a = ExpArgs::try_from_iter(["--trace", "out.json"]).unwrap();
        assert_eq!(a.trace.as_deref(), Some("out.json"));
        assert!(a.tracing());
        let b = ExpArgs::try_from_iter(["--trace=t.json"]).unwrap();
        assert_eq!(b.trace.as_deref(), Some("t.json"));
        assert!(!ExpArgs::default().tracing());
    }

    #[test]
    fn help_is_recognized_both_spellings() {
        assert!(ExpArgs::try_from_iter(["--help"]).unwrap().help);
        assert!(ExpArgs::try_from_iter(["-h"]).unwrap().help);
        assert!(!ExpArgs::try_from_iter(["--quick"]).unwrap().help);
    }

    #[test]
    fn usage_names_every_flag() {
        let usage = ExpArgs::usage();
        for flag in [
            "--seed",
            "--json",
            "--quick",
            "--pipeline",
            "--trace",
            "--help",
        ] {
            assert!(usage.contains(flag), "usage must document {flag}");
        }
    }
}
