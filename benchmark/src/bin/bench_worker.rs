//! The Time Warp cluster worker the `decoder_6k_process` workload spawns:
//! `bench_worker --socket <path>`, a wrapper over
//! [`dvs_sim::timewarp::serve_worker`]. The benchmark carries its own so it
//! depends neither on `dvs-bench`'s `tw_worker` being built nor on
//! `DVS_TW_WORKER`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let [flag, socket] = args.as_slice() else {
        eprintln!("usage: bench_worker --socket <path>");
        return ExitCode::from(2);
    };
    if flag != "--socket" {
        eprintln!("usage: bench_worker --socket <path>");
        return ExitCode::from(2);
    }
    match dvs_sim::timewarp::serve_worker(std::path::Path::new(socket)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_worker: {e}");
            ExitCode::FAILURE
        }
    }
}
