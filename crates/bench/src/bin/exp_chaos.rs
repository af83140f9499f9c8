//! E19: crash-recovery chaos soak — KV load on the threaded runtime
//! with file-backed write-ahead stores, flaky links, and repeated
//! amnesia crash/restart cycles, every operation validated by the
//! streaming checkers. Exits non-zero on an atomicity violation, an
//! unrecovered restart, or an op-count mismatch, so CI can run
//! `exp_chaos --quick --json` as a smoke step.
fn main() {
    let args = bench::cli::ExpArgs::parse();
    let params = bench::exp_chaos::ChaosParams::for_mode(args.quick).with_overrides(args.pipeline);
    let run = bench::exp_chaos::run_chaos(args.seed, params);
    let ok = bench::exp_chaos::passed(params, &run);
    args.emit(&[bench::exp_chaos::render(args.seed, params, &run)]);
    if !ok {
        std::process::exit(1);
    }
}
