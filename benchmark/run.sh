#!/usr/bin/env bash
# The benchmark's run command: build every binary of the benchmark crate from
# source (the harness and the worker the process transport spawns), then run
# the harness from the root of the checkout with the arguments given.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
target="${CARGO_TARGET_DIR:-$(dirname "$0")/target}"
cargo build --release --locked --offline --manifest-path "$manifest" --bins 1>&2
# Not `exec`: the harness counts the peak memory of the children it waited
# for, and must not inherit this shell's (cargo and rustc).
"$target/release/dvs-benchmark" "$@"
