#!/usr/bin/env bash
# Print `harness all --quick` with the `wall_us` column stripped: every
# counter of E1–E10 (answers, facts, duplicates, rows scanned, iterations,
# retired rules), which is deterministic, and nothing that depends on the
# host's speed. `scripts/check.sh` diffs this against the committed
# `bench_results_harness_quick.txt`; after a change that is meant to move a
# counter, regenerate that file with
#
#     scripts/harness_counters.sh > bench_results_harness_quick.txt
#
# Usage: scripts/harness_counters.sh [path/to/harness]   (default:
# target/release/harness, built by `cargo build --release`).
set -euo pipefail
harness=${1:-target/release/harness}
"$harness" all --quick | awk '
    # A table starts at its header row, whose last column is wall_us, and
    # ends at the next blank line. wall_us is the last column of every
    # row, and the dashed rule under the header spans its width, so the
    # rule is dropped and the last field is cut from every other row.
    / wall_us$/ { in_table = 1 }
    /^$/ { in_table = 0 }
    in_table && /^ *-+$/ { next }
    in_table { sub(/ +[^ ]+$/, "") }
    { print }
'
