//! E18: streaming-validation soak — a long KV workload on the threaded
//! runtime with the streaming checkers validating every operation wave
//! by wave. Exits non-zero on an atomicity violation or a re-broadcast
//! storm (more than 100 watchdog nudges per 1000 ops over its
//! fault-free links), so CI can run `exp_soak --quick --json`
//! as a smoke step.
//! `--trace PATH` exports the (tail of the) run as Chrome trace-event
//! JSON.

use rqs_obs::{FlightRecorder, NopTracer, ObsHandle, Tracer};
use std::sync::Arc;

fn main() {
    let args = bench::cli::ExpArgs::parse();
    let rec = args.tracing().then(FlightRecorder::for_export);
    let tracer: ObsHandle = match &rec {
        Some(r) => r.clone(),
        None => Arc::new(NopTracer),
    };
    let params = bench::exp_soak::SoakParams::for_mode(args.quick).with_overrides(args.pipeline);
    let run = bench::exp_soak::run_soak_traced(args.seed, params, tracer);
    let passed = bench::exp_soak::passed(&run);
    let events = rec.map(|r| r.snapshot()).unwrap_or_default();
    args.emit_traced(&[bench::exp_soak::render(args.seed, params, &run)], &events);
    if !passed {
        std::process::exit(1);
    }
}
