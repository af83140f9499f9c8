//! E20: hot-path throughput sweep — client pipeline depth on the
//! threaded runtime, every cell's operations validated by the streaming
//! checkers. `--pipeline N` sweeps only that depth (beside the depth-1
//! baseline). Exits non-zero if any cell reports an atomicity violation
//! or a re-broadcast storm, so CI can run `exp_pipeline --quick --json`
//! as a smoke step.

fn main() {
    let args = bench::cli::ExpArgs::parse();
    let params =
        bench::exp_pipeline::PipelineParams::for_mode(args.quick).with_overrides(args.pipeline);
    let cells = bench::exp_pipeline::run_sweep(args.seed, params);
    let ok = bench::exp_pipeline::passed(&cells);
    args.emit(&[bench::exp_pipeline::render(args.seed, params, &cells)]);
    if !ok {
        std::process::exit(1);
    }
}
