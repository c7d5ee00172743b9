#!/usr/bin/env bash
# Builds the fetch-serve daemon and the benchmark from source, then runs
# one benchmark run. Run it from the repository root:
#
#   bash repobench/run.sh --workload cold_scan --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p fetch-serve --bin fetch-serve >&2
cargo build --release --offline -q --manifest-path repobench/Cargo.toml >&2

# The load generator and the daemon it starts share one CPU (the first
# this shell may use). A closed loop hands every op back and forth
# between them; across CPUs each handoff costs a wake-up whose price
# depends on what else the machine runs, which made run-to-run medians
# swing by about 15 %. Without taskset the run is unpinned.
pin=()
if command -v taskset >/dev/null; then
    cpu=$(taskset -cp $$ 2>/dev/null | sed -n 's/.*: *\([0-9]*\).*/\1/p')
    if [ -n "$cpu" ]; then
        pin=(taskset -c "$cpu")
    fi
fi
exec ${pin[@]+"${pin[@]}"} "$CARGO_TARGET_DIR/release/repobench" \
    --serve-bin "$CARGO_TARGET_DIR/release/fetch-serve" "$@"
