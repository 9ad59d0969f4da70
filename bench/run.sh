#!/usr/bin/env bash
# The one command of the benchmark.
#
#   bench/run.sh                         all four workloads, untraced then traced
#   bench/run.sh --workload <name>       one workload
#   bench/run.sh --seed N --repeat N     another seed; N sets in a row
#   bench/run.sh --quick                 about a tenth of the op counts (< 30 s)
#   bench/run.sh --check-noise           two full sets; fails if a gated metric
#                                        differs by more than its bound
#
# The benchmark contract's form runs one workload in one mode and ends with
# one JSON line:
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Either way it first builds the program under test and the benchmark from
# source (cargo is the freshness check: a binary older than its sources is
# rebuilt, a fresh one costs a tenth of a second), into $CARGO_TARGET_DIR or
# ./target. Everything it writes goes under that directory and bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
# Build logs go to stderr: the last line of stdout belongs to the result.
cargo build --release --offline --bin xdl >&2
cargo build --release --offline --manifest-path bench/Cargo.toml >&2

bin="$target/release"
out="bench/out"
mkdir -p "$out"

trace=""
rest=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace="$2"; shift 2 ;;
        *) rest+=("$1"); shift ;;
    esac
done

case "$trace" in
    "") exec "$bin/xdl-bench" suite --xdl "$bin/xdl" --layers "$bin/xdl-bench-layers" \
            --out "$out" "${rest[@]}" ;;
    0)  exec "$bin/xdl-bench" run --xdl "$bin/xdl" --out "$out" "${rest[@]}" ;;
    1)  exec "$bin/xdl-bench-layers" --out "$out" "${rest[@]}" ;;
    *)  echo "bench/run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac
