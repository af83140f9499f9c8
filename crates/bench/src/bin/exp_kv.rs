//! E15: the sharded, batched multi-object KV service — batching effect
//! and sim-vs-threaded substrate comparison. `--trace PATH` exports the
//! all-correct sim run as Chrome trace-event JSON.

use rqs_obs::{FlightRecorder, NopTracer, ObsHandle, Tracer};
use std::sync::Arc;

fn main() {
    let args = bench::cli::ExpArgs::parse();
    let rec = args.tracing().then(FlightRecorder::for_export);
    let tracer: ObsHandle = match &rec {
        Some(r) => r.clone(),
        None => Arc::new(NopTracer),
    };
    let params = bench::exp_kv::KvParams::for_mode(args.quick).with_overrides(args.pipeline);
    let reports = [
        bench::exp_kv::batching_report_params(args.seed, params),
        bench::exp_kv::substrate_report_traced(args.seed, params, tracer),
    ];
    let events = rec.map(|r| r.snapshot()).unwrap_or_default();
    args.emit_traced(&reports, &events);
}
