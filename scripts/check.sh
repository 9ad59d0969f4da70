#!/usr/bin/env sh
# Full local gate: release build, tests, lints, formatting.
# Offline-safe: the workspace vendors its few dev-dependencies, so no
# network or registry access is needed.
set -eu
cd "$(dirname "$0")/.."

# The gate reads the tree; it must not write it. Compared at the end, so a
# developer's own uncommitted work does not trip it.
tree_before=$(git status --porcelain)

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Static analysis gate: every example program must lint without errors
# (warnings are fine — singleton variables are idiomatic in existential
# queries), and every optimization run on them must survive translation
# validation with zero unjustified deletions.
./target/release/xdl lint examples/data/*.dl
./target/release/xdl verify-opt examples/data/*.dl > /dev/null
echo "check.sh: lint + verify-opt ok"

# The intentionally-broken fixtures must keep failing loudly (exit 1).
if ./target/release/xdl lint tests/lint/unsafe_rule.dl tests/lint/dead_code.dl \
    > /dev/null 2>&1; then
    echo "check.sh: broken lint fixtures did not fail" >&2
    exit 1
fi
echo "check.sh: broken fixtures still caught"

# A generated 100 000-fact file: linting it must stay linear in the facts
# (`timeout 10` fails a quadratic check), and the optimizer must not change
# a byte of its answers. Its one rule is a two-step join, so the
# unoptimized run stays small too. Its facts come out of order, so the
# load sorts them; a twin that states every seventh fact a second time, at
# a scattered position, must print the same answers and the same fixpoint
# counters (the sort drops the repeats), and a ground query over the loaded facts must find its fact
# (the membership test builds the dedup the sorted load skipped).
chain_dir=$(mktemp -d)
trap 'rm -rf "$chain_dir"' EXIT
chain="$chain_dir/chain.dl"
# $1 = 1 repeats fact r (r % 7 == 0) after fact i, where r = 4099 i mod 10^5.
chain_facts() {
    awk -v twin="$1" 'function fact(i, j) {
            j = (i * 7919) % 100000; printf "p(%d, %d).\n", j, j + 1 }
        BEGIN { for (i = 0; i < 100000; i++) {
            fact(i); r = (i * 4099) % 100000; if (twin && r % 7 == 0) fact(r) } }'
}
rule='a(X, Y) :- p(X, Z), p(Z, Y).'
{ echo "$rule"; chain_facts 0; echo '?- a(X, _).'; } > "$chain"
{ echo "$rule"; chain_facts 1; echo '?- a(X, _).'; } > "$chain_dir/twin.dl"
{ echo "$rule"; chain_facts 0; echo '?- p(4242, 4243).'; } > "$chain_dir/ground.dl"
timeout 10 ./target/release/xdl lint "$chain" > /dev/null
./target/release/xdl run --stats "$chain" > "$chain_dir/run.out" 2> "$chain_dir/run.stats"
./target/release/xdl run --no-optimize "$chain" > "$chain_dir/plain.out"
if ! cmp -s "$chain_dir/run.out" "$chain_dir/plain.out"; then
    echo "check.sh: the chain file's answers differ under --no-optimize" >&2
    exit 1
fi
./target/release/xdl run --stats "$chain_dir/twin.dl" > "$chain_dir/twin.out" \
    2> "$chain_dir/twin.stats"
if ! cmp -s "$chain_dir/run.out" "$chain_dir/twin.out" \
    || ! cmp -s "$chain_dir/run.stats" "$chain_dir/twin.stats"; then
    echo "check.sh: repeating facts changed the chain file's answers" >&2
    exit 1
fi
if [ "$(./target/release/xdl run "$chain_dir/ground.dl")" != true ]; then
    echo "check.sh: a ground query missed a loaded chain fact" >&2
    exit 1
fi
rm -rf "$chain_dir"
echo "check.sh: 100 000-fact chain file lints in time, answers unchanged, repeats dropped, ground fact found"

# Derivation-bound gate: the examples must stay warning-free even with
# the bound lints made binding, and the bounds table must render for
# each of them.
./target/release/xdl lint examples/data/*.dl --bounds --deny-warnings > /dev/null
# The bound fixtures are warning-only: advisory by default, fatal under
# --deny-warnings.
./target/release/xdl lint tests/lint/cartesian.dl tests/lint/unbounded.dl \
    > /dev/null
if ./target/release/xdl lint tests/lint/cartesian.dl tests/lint/unbounded.dl \
    --deny-warnings > /dev/null 2>&1; then
    echo "check.sh: bound fixtures did not fail under --deny-warnings" >&2
    exit 1
fi
echo "check.sh: derivation-bound gate ok"

# Server smoke: serve on an ephemeral port, answer one query byte-identically
# to `xdl run`, shut down cleanly.
smoke_dir=$(mktemp -d)
serve_pid=""
hold_pids=""
cleanup() {
    [ -n "$hold_pids" ] && kill $hold_pids 2>/dev/null || true
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$smoke_dir"
}
trap cleanup EXIT
printf 'a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\np(1, 2).\np(2, 3).\n' \
    > "$smoke_dir/tc.dl"
{ cat "$smoke_dir/tc.dl"; printf '?- a(X, _).\n'; } > "$smoke_dir/run.dl"

./target/release/xdl serve --port 0 > "$smoke_dir/serve.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: server did not announce its address" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    '?- a(X, _).' > "$smoke_dir/served.out"
./target/release/xdl run "$smoke_dir/run.dl" > "$smoke_dir/ran.out"
if ! cmp -s "$smoke_dir/served.out" "$smoke_dir/ran.out"; then
    echo "check.sh: served answer differs from xdl run:" >&2
    diff "$smoke_dir/served.out" "$smoke_dir/ran.out" >&2 || true
    exit 1
fi
# Telemetry smoke: scrape METRICS off the live server and sanity-check
# the Prometheus exposition (the full format parser runs in the metrics
# test suite below; this catches a server that stopped announcing).
./target/release/xdl metrics --connect "$addr" > "$smoke_dir/metrics.out"
if ! grep -q '^# TYPE xdl_requests_total counter' "$smoke_dir/metrics.out" \
    || ! grep -q '^xdl_requests_total{verb="QUERY"} 1$' "$smoke_dir/metrics.out" \
    || ! grep -q '^# TYPE xdl_request_seconds histogram' "$smoke_dir/metrics.out"; then
    echo "check.sh: METRICS scrape is not the expected Prometheus exposition:" >&2
    head -20 "$smoke_dir/metrics.out" >&2
    exit 1
fi
./target/release/xdl metrics --connect "$addr" --json > "$smoke_dir/metrics.json"
if ! grep -q '"xdl_requests_total"' "$smoke_dir/metrics.json"; then
    echo "check.sh: METRICS JSON readout missing families" >&2
    exit 1
fi
# Point reads: the first four texts share the `a[nn]` form, which stays
# resident between invocations, and alternating them keeps the form's kept
# read out of the way — so in the first pass a read builds the read index
# it needs (or finds the planned one) and in the second it probes it.
# The last three are the `nd`, `dn` and `dd` forms `a[nn]` covers: pinning
# `a[nn]` retired the `a[nd]` resident the first query built, and they read
# `a[nn]`'s frontier. Each must be byte-identical to an unoptimized `xdl
# run` on the same text.
for pass in 1 2; do
    for q in 'a(1, Y)' 'a(X, 3)' 'a(1, 3)' 'a(X, X)' 'a(1, _)' 'a(_, 3)' 'a(_, _)'; do
        { cat "$smoke_dir/tc.dl"; printf '?- %s.\n' "$q"; } > "$smoke_dir/point.dl"
        ./target/release/xdl run --no-optimize "$smoke_dir/point.dl" \
            > "$smoke_dir/ran-point.out"
        ./target/release/xdl query --connect "$addr" "?- $q." \
            > "$smoke_dir/served-point.out"
        if ! cmp -s "$smoke_dir/served-point.out" "$smoke_dir/ran-point.out"; then
            echo "check.sh: served ?- $q. (pass $pass) differs from xdl run:" >&2
            diff "$smoke_dir/served-point.out" "$smoke_dir/ran-point.out" >&2 || true
            exit 1
        fi
    done
done
# One resident serves every form of `a`, and the covered forms read it.
./target/release/xdl query --connect "$addr" --stats > "$smoke_dir/stats.out"
if ! grep -q '"resident_forms":1[,}]' "$smoke_dir/stats.out" \
    || ! grep -q '"covered_reads":[1-9]' "$smoke_dir/stats.out"; then
    echo "check.sh: the covered point reads did not share one resident:" >&2
    cat "$smoke_dir/stats.out" >&2
    exit 1
fi
# Payload bytes: a symbol that ends in `\r` (only `\n` ends a payload
# line) and a relation of 1 200 rows cross the socket verbatim, from the
# cold evaluation that pins the form and from its kept read.
{
    printf 's("ab\r").\ns("c d").\ns("\303\251").\n'
    printf 'w(X, Y) :- r(X, Y).\n'
    seq 1 1200 | awk '{ printf "r(%d, %d).\n", $1, $1 + 1 }'
} > "$smoke_dir/wide.dl"
./target/release/xdl query --connect "$addr" --load "$smoke_dir/wide.dl" > /dev/null
for q in 's(X)' 'w(X, _)'; do
    { cat "$smoke_dir/wide.dl"; printf '?- %s.\n' "$q"; } > "$smoke_dir/wide-q.dl"
    ./target/release/xdl run "$smoke_dir/wide-q.dl" > "$smoke_dir/ran-wide.out"
    for pass in 1 2; do
        ./target/release/xdl query --connect "$addr" "?- $q." > "$smoke_dir/served-wide.out"
        if ! cmp -s "$smoke_dir/served-wide.out" "$smoke_dir/ran-wide.out"; then
            echo "check.sh: served ?- $q. (pass $pass) differs from xdl run:" >&2
            cmp "$smoke_dir/served-wide.out" "$smoke_dir/ran-wide.out" >&2 || true
            exit 1
        fi
    done
done
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: server smoke ok (incl. METRICS scrape, point reads and verbatim payloads)"

# Held reads: `clean[n]`'s optimized program contains `flagged[n]`'s and
# `above[nn]`'s rule for rule, so once `clean(X)` pins it, it answers
# `above(X, c)` and `flagged(c)` itself, and `above(c, _)` through
# `above[nn]`, which covers it: one resident, and every read byte-identical
# to an unoptimized `xdl run` on the same text.
{
    printf 'above(X, Y) :- mgr(X, Y).\nabove(X, Y) :- mgr(X, Z), above(Z, Y).\n'
    printf 'flagged(X) :- above(X, Y), audit(Y).\n'
    printf 'clean(X) :- emp(X), not flagged(X).\nclean(X) :- flagged(X), cleared(X).\n'
    seq 1 20 | awk '{ printf "mgr(%d, %d).\nemp(%d).\n", int(($1 - 1) / 4), $1, $1 }'
    printf 'emp(0).\naudit(6).\naudit(17).\ncleared(1).\n'
} > "$smoke_dir/org.dl"
./target/release/xdl serve --port 0 > "$smoke_dir/serve-org.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-org.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: the held-read server did not announce its address" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --load "$smoke_dir/org.dl" > /dev/null
for q in 'clean(X)' 'above(X, 17)' 'above(1, _)' 'flagged(1)'; do
    { cat "$smoke_dir/org.dl"; printf '?- %s.\n' "$q"; } > "$smoke_dir/org-q.dl"
    ./target/release/xdl run --no-optimize "$smoke_dir/org-q.dl" > "$smoke_dir/ran-org.out"
    ./target/release/xdl query --connect "$addr" "?- $q." > "$smoke_dir/served-org.out"
    if ! cmp -s "$smoke_dir/served-org.out" "$smoke_dir/ran-org.out"; then
        echo "check.sh: served ?- $q. differs from xdl run --no-optimize:" >&2
        diff "$smoke_dir/served-org.out" "$smoke_dir/ran-org.out" >&2 || true
        exit 1
    fi
done
./target/release/xdl query --connect "$addr" --stats > "$smoke_dir/stats-org.out"
if ! grep -q '"resident_forms":1[,}]' "$smoke_dir/stats-org.out" \
    || ! grep -q '"covered_reads":[1-9]' "$smoke_dir/stats-org.out"; then
    echo "check.sh: the held reads did not share clean(X)'s resident:" >&2
    cat "$smoke_dir/stats-org.out" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: held-read smoke ok"

# Connection smokes. `hold <addr> <ready-file> <command>` keeps connections
# open from bash (`/dev/tcp`) until it is killed: it runs <command> (which
# opens them), touches <ready-file> if that succeeded, then sleeps.
hold() {
    bash -c 'host=${1%:*}; port=${1##*:}; eval "$3" && : > "$2"; exec sleep 60' \
        _ "$1" "$2" "$3" &
    hold_pids="$hold_pids $!"
    for _ in $(seq 1 50); do
        [ -f "$2" ] && return 0
        sleep 0.1
    done
    echo "check.sh: could not open the held connections" >&2
    exit 1
}

# Idle-connection smoke: eight clients that connect and never send hold
# eight connection threads, not the server; a ninth is answered at once.
./target/release/xdl serve --port 0 > "$smoke_dir/serve-idle.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-idle.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: idle-connection smoke server did not announce" >&2
    exit 1
fi
hold "$addr" "$smoke_dir/idle.ready" \
    'for fd in 3 4 5 6 7 8 9 10; do eval "exec $fd<>/dev/tcp/$host/$port"; done'
if ! timeout 5 ./target/release/xdl query --connect "$addr" --stats > /dev/null; then
    echo "check.sh: eight idle connections starved a ninth client" >&2
    exit 1
fi
kill $hold_pids
hold_pids=""
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: idle-connection smoke ok"

# fd-exhaustion smoke: once one client is served, the server's descriptor
# limit drops to its lowest free descriptor, so a second client cannot be
# accepted and stays queued. Retrying `accept` must back off, not spin a
# core: the server may use under 0.3 CPU-seconds over 2 s.
./target/release/xdl serve --port 0 > "$smoke_dir/serve-fd.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-fd.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: fd-exhaustion smoke server did not announce" >&2
    exit 1
fi
hold "$addr" "$smoke_dir/served.ready" \
    'exec 3<>"/dev/tcp/$host/$port" && echo STATS >&3 && read -r line <&3'
free_fd=0
while [ -e "/proc/$serve_pid/fd/$free_fd" ]; do free_fd=$((free_fd + 1)); done
prlimit --pid "$serve_pid" --nofile="$free_fd:$free_fd"
hold "$addr" "$smoke_dir/queued.ready" 'exec 3<>"/dev/tcp/$host/$port"'
sleep 0.5
cpu_ticks() { awk '{ print $14 + $15 }' "/proc/$serve_pid/stat"; }
ticks_before=$(cpu_ticks)
sleep 2
ticks=$(($(cpu_ticks) - ticks_before))
if ! awk -v t="$ticks" -v hz="$(getconf CLK_TCK)" 'BEGIN { exit !(t / hz < 0.3) }'; then
    echo "check.sh: out of descriptors, the server used $ticks ticks of CPU in 2 s" >&2
    exit 1
fi
kill $hold_pids "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
hold_pids=""
serve_pid=""
echo "check.sh: fd-exhaustion smoke ok ($ticks ticks in 2 s)"

# Telemetry suite: the Prometheus text-format parser, histogram
# invariants, counter monotonicity across scrapes, and the strict JSON
# checks over METRICS/STATS/TRACE.
cargo test -q -p datalog-server --test metrics > /dev/null
echo "check.sh: telemetry suite ok"

# Fault suite: the injection harness (fsync failure and a refused write
# that stays refused across a restart, torn WAL tail, panic isolation,
# deadline storm, slow client, budget, shedding, poisoned residents healed
# by queries, drain) must pass against the release-profile server crate.
cargo test -q -p datalog-server --test faults > /dev/null
echo "check.sh: fault suite ok"

# Best-effort ThreadSanitizer arm over the code that is concurrent: the
# `SharedDatabase` one writer grows while readers snapshot it (the engine's
# unit tests and its shared-store stress test; every fixpoint runs on one
# thread). -Zsanitizer is nightly-only and needs rust-src for -Zbuild-std;
# on a stable-only toolchain this is skipped with a notice rather than
# failed, so the gate stays runnable offline.
if command -v rustup > /dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q '^nightly' \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src (installed)'; then
    tsan_host=$(rustc -vV | sed -n 's/^host: //p')
    RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -Zbuild-std --target "$tsan_host" \
        -p datalog-engine --lib --test shared_stress > /dev/null
    echo "check.sh: ThreadSanitizer arm ok ($tsan_host)"
else
    echo "check.sh: ThreadSanitizer arm skipped (needs nightly toolchain + rust-src)"
fi

# Resource-limit smoke: a budget-limited run fails with a structured
# message carrying partial stats, instead of succeeding or hanging.
if ./target/release/xdl run "$smoke_dir/run.dl" --budget 1 > /dev/null 2> "$smoke_dir/limit.err"; then
    echo "check.sh: budget-limited run did not fail" >&2
    exit 1
fi
if ! grep -q 'budget' "$smoke_dir/limit.err" || ! grep -q 'partial:' "$smoke_dir/limit.err"; then
    echo "check.sh: limit error lacks structure:" >&2
    cat "$smoke_dir/limit.err" >&2
    exit 1
fi
echo "check.sh: resource-limit smoke ok"

# Option smoke: an option a subcommand does not know is a usage error —
# exit 2 with `unknown option` on stderr — never silently ignored, and a
# server given one never comes up.
for args in "serve --port 0 --threads 2" "serve --port 0 --rebuild-ms 5" \
    "serve --port 0 --fsync never" "run $smoke_dir/run.dl --budjet 1"; do
    status=0
    timeout 10 ./target/release/xdl $args \
        > "$smoke_dir/option.out" 2> "$smoke_dir/option.err" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q 'unknown option' "$smoke_dir/option.err" \
        || grep -q 'listening on' "$smoke_dir/option.out"; then
        echo "check.sh: 'xdl $args' exited $status instead of refusing the option:" >&2
        cat "$smoke_dir/option.out" "$smoke_dir/option.err" >&2
        exit 1
    fi
done
echo "check.sh: option smoke ok"

# Incremental-serving smoke: ingest after warm queries, then demand the
# resident answers are byte-identical to a server with residency disabled
# (--resident-forms 0 recomputes every query). `n` negates `a`, so every
# FACT grows its negated predicate and its resident recomputes the `n`
# stratum; the last FACT closes a cycle and empties `n`. Every query is
# asked twice, so on the 8-form server the second answer is a resident's
# kept read (`cache=answers`), and `a(X, _)` is covered by the live
# `a(X, Y)`: the kept reads, covered ones included, are compared too.
{ cat "$smoke_dir/tc.dl"; printf 'n(X) :- p(X, Y), not a(Y, X).\n'; } > "$smoke_dir/tcn.dl"
for forms in 8 0; do
    ./target/release/xdl serve --port 0 --resident-forms "$forms" \
        > "$smoke_dir/serve-inc$forms.out" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-inc$forms.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "check.sh: incremental smoke server ($forms) did not announce" >&2
        exit 1
    fi
    ask() {
        for q in "$@"; do
            for _ in 1 2; do
                ./target/release/xdl query --connect "$addr" "?- $q." \
                    >> "$smoke_dir/inc$forms.out"
            done
        done
    }
    : > "$smoke_dir/inc$forms.out"
    ./target/release/xdl query --connect "$addr" --load "$smoke_dir/tcn.dl"
    ask 'a(X, Y)' 'a(X, _)' 'n(X)'
    ./target/release/xdl query --connect "$addr" --fact 'p(3, 4).' --fact 'p(4, 5).'
    ask 'a(X, _)' 'a(X, Y)' 'n(X)'
    ./target/release/xdl query --connect "$addr" --fact 'p(5, 1).'
    ask 'n(X)' 'a(X, _)'
    if [ "$forms" -ne 0 ]; then
        ./target/release/xdl query --connect "$addr" --stats > "$smoke_dir/inc-stats.out"
        if ! grep -q '"answer_hits":[1-9]' "$smoke_dir/inc-stats.out" \
            || ! grep -q '"covered_reads":[1-9]' "$smoke_dir/inc-stats.out"; then
            echo "check.sh: the incremental smoke read no kept or covered answer:" >&2
            cat "$smoke_dir/inc-stats.out" >&2
            exit 1
        fi
    fi
    ./target/release/xdl query --connect "$addr" --shutdown
    wait "$serve_pid"
    serve_pid=""
done
if ! cmp -s "$smoke_dir/inc8.out" "$smoke_dir/inc0.out"; then
    echo "check.sh: resident frontier differs from invalidate-recompute:" >&2
    diff "$smoke_dir/inc8.out" "$smoke_dir/inc0.out" >&2 || true
    exit 1
fi
echo "check.sh: incremental serving smoke ok"

# Mode-word smoke: a protocol v4 client may lead a query with `fresh`,
# `any` or `staleness=<ms>`; the server discards the word and answers fresh.
# `xdl query` sends its positional text verbatim after `QUERY `, so the word
# travels inside it. After a FACT, each read must be byte-identical to
# `xdl run` on the same rules and facts.
./target/release/xdl serve --port 0 > "$smoke_dir/serve-modes.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-modes.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: mode-word smoke server did not announce" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    '?- a(X, _).' > /dev/null
./target/release/xdl query --connect "$addr" --fact 'p(3, 4).'
{ cat "$smoke_dir/tc.dl"; printf 'p(3, 4).\n?- a(X, _).\n'; } \
    > "$smoke_dir/run-modes.dl"
./target/release/xdl run "$smoke_dir/run-modes.dl" > "$smoke_dir/ran-modes.out"
for mode in 'staleness=50' 'any'; do
    ./target/release/xdl query --connect "$addr" "$mode ?- a(X, _)." \
        > "$smoke_dir/served-modes.out"
    if ! cmp -s "$smoke_dir/served-modes.out" "$smoke_dir/ran-modes.out"; then
        echo "check.sh: '$mode' read differs from xdl run:" >&2
        diff "$smoke_dir/served-modes.out" "$smoke_dir/ran-modes.out" >&2 || true
        exit 1
    fi
done
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: mode-word smoke ok"

# Crash-recovery smoke: ingest through a WAL-backed server, SIGKILL it
# (no shutdown, no flush), restart on the same WAL directory, and demand
# byte-identical query output.
./target/release/xdl serve --port 0 --wal "$smoke_dir/wal" \
    > "$smoke_dir/serve2.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve2.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: WAL server did not announce its address" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    --fact 'p(3, 4).' '?- a(X, _).' > "$smoke_dir/before-crash.out"
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

./target/release/xdl serve --port 0 --wal "$smoke_dir/wal" \
    > "$smoke_dir/serve3.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve3.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: restarted WAL server did not announce its address" >&2
    exit 1
fi
if ! grep -q '^recovered ' "$smoke_dir/serve3.out"; then
    echo "check.sh: restarted server reported no recovery" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" '?- a(X, _).' \
    > "$smoke_dir/after-crash.out"
if ! cmp -s "$smoke_dir/before-crash.out" "$smoke_dir/after-crash.out"; then
    echo "check.sh: answers differ across SIGKILL + recovery:" >&2
    diff "$smoke_dir/before-crash.out" "$smoke_dir/after-crash.out" >&2 || true
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: crash-recovery smoke ok"

# Wide-int smoke: a value is one 8-byte cell holding ints in [-2^61, 2^61)
# inline; both sides of both edges, both ends of i64 and symbols (one that
# reads like an int) go through LOAD, a two-step join and the WAL, and
# every read must `cmp` equal to `xdl run --no-optimize` before and after
# a SIGKILL and restart.
{
    printf 'r(X, Y) :- e(X, Z), e(Z, Y).\n'
    for v in -9223372036854775808 9223372036854775807 -2305843009213693953 \
        -2305843009213693952 2305843009213693951 2305843009213693952 0 -1 \
        '"42"' zed '"Bob"'; do
        printf 'v(%s).\n' "$v"
    done
    printf 'e(-9223372036854775808, 2305843009213693952).\n'
    printf 'e(2305843009213693952, "42").\ne("42", 0).\ne(0, -2305843009213693953).\n'
    printf 'e(-2305843009213693953, 9223372036854775807).\n'
} > "$smoke_dir/wideint.dl"
wideint_reads() {
    for q in 'v(X)' 'r(X, Y)' 'r(2305843009213693952, Y)' 'r(X, 9223372036854775807)'; do
        { cat "$smoke_dir/wideint.dl"; printf '?- %s.\n' "$q"; } > "$smoke_dir/wideint-q.dl"
        ./target/release/xdl run --no-optimize "$smoke_dir/wideint-q.dl" \
            > "$smoke_dir/ran-wideint.out"
        ./target/release/xdl query --connect "$addr" "?- $q." > "$smoke_dir/served-wideint.out"
        if ! cmp -s "$smoke_dir/served-wideint.out" "$smoke_dir/ran-wideint.out"; then
            echo "check.sh: served ?- $q. ($1) differs from xdl run --no-optimize:" >&2
            diff "$smoke_dir/served-wideint.out" "$smoke_dir/ran-wideint.out" >&2 || true
            exit 1
        fi
    done
}
for pass in before after; do
    ./target/release/xdl serve --port 0 --wal "$smoke_dir/wal-wideint" \
        > "$smoke_dir/serve-wideint.out" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-wideint.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "check.sh: wide-int smoke server ($pass) did not announce its address" >&2
        exit 1
    fi
    if [ "$pass" = before ]; then
        ./target/release/xdl query --connect "$addr" --load "$smoke_dir/wideint.dl" > /dev/null
    elif ! grep -q '"skipped":0' "$smoke_dir/serve-wideint.out"; then
        echo "check.sh: the wide-int facts did not all recover:" >&2
        cat "$smoke_dir/serve-wideint.out" >&2
        exit 1
    fi
    wideint_reads "$pass"
    kill -9 "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    serve_pid=""
done
echo "check.sh: wide-int smoke ok"

# Snapshot-recovery smoke: same SIGKILL discipline, but with compaction
# enabled (--compact-every 4) so the surviving WAL directory holds a
# snapshot.log beside the log. The restart must replay the snapshot (a
# `recovered` line with nonzero from_snapshot and nothing skipped) and
# answer byte-identically.
./target/release/xdl serve --port 0 --wal "$smoke_dir/wal-snap" \
    --compact-every 4 > "$smoke_dir/serve-snap.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-snap.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: snapshot WAL server did not announce its address" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    --fact 'p(3, 4).' --fact 'p(4, 5).' --fact 'p(5, 6).' '?- a(X, _).' \
    > "$smoke_dir/before-snap.out"
if [ "$(ls "$smoke_dir/wal-snap" | tr '\n' ' ')" != "snapshot.log wal.log " ]; then
    echo "check.sh: compaction did not leave exactly snapshot.log and wal.log:" >&2
    ls "$smoke_dir/wal-snap" >&2 || true
    exit 1
fi
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

./target/release/xdl serve --port 0 --wal "$smoke_dir/wal-snap" \
    --compact-every 4 > "$smoke_dir/serve-snap2.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-snap2.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: restarted snapshot server did not announce its address" >&2
    exit 1
fi
if ! grep -q '^recovered ' "$smoke_dir/serve-snap2.out" \
    || ! grep -Eq '"from_snapshot":[1-9]' "$smoke_dir/serve-snap2.out" \
    || ! grep -q '"skipped":0' "$smoke_dir/serve-snap2.out"; then
    echo "check.sh: restart did not recover from the snapshot:" >&2
    cat "$smoke_dir/serve-snap2.out" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" '?- a(X, _).' \
    > "$smoke_dir/after-snap.out"
if ! cmp -s "$smoke_dir/before-snap.out" "$smoke_dir/after-snap.out"; then
    echo "check.sh: answers differ across SIGKILL + snapshot recovery:" >&2
    diff "$smoke_dir/before-snap.out" "$smoke_dir/after-snap.out" >&2 || true
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: snapshot-recovery smoke ok"

# Snapshot refusal: a copy of that directory with one flipped byte in
# snapshot.log, and a copy holding an older version's snapshot.manifest,
# must each be refused — non-zero exit, the file named on stderr — and
# left byte for byte as it was. (A server that starts instead is stopped
# by `timeout`, whose status 124 counts as a failure.)
cp -r "$smoke_dir/wal-snap" "$smoke_dir/wal-flipped"
snap="$smoke_dir/wal-flipped/snapshot.log"
off=$(( $(wc -c < "$snap") / 2 ))
byte=$(od -An -tu1 -j "$off" -N1 "$snap" | tr -d ' ')
printf "$(printf '\\%03o' $(( byte ^ 255 )))" \
    | dd of="$snap" bs=1 seek="$off" conv=notrunc 2>/dev/null
if cmp -s "$smoke_dir/wal-snap/snapshot.log" "$snap"; then
    echo "check.sh: could not flip a byte of the snapshot copy" >&2
    exit 1
fi
cp -r "$smoke_dir/wal-snap" "$smoke_dir/wal-old"
printf 'xdl-snapshot-manifest v1\n' > "$smoke_dir/wal-old/snapshot.manifest"
for copy in flipped:snapshot.log old:snapshot.manifest; do
    name=${copy%%:*}
    file=${copy#*:}
    cp -r "$smoke_dir/wal-$name" "$smoke_dir/wal-$name.orig"
    status=0
    timeout 10 ./target/release/xdl serve --port 0 --wal "$smoke_dir/wal-$name" \
        > "$smoke_dir/serve-$name.out" 2> "$smoke_dir/serve-$name.err" || status=$?
    if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] \
        || ! grep -q "$file" "$smoke_dir/serve-$name.err" \
        || ! diff -r "$smoke_dir/wal-$name.orig" "$smoke_dir/wal-$name" >&2; then
        echo "check.sh: a directory with $file ($name) was not refused untouched (exit $status):" >&2
        cat "$smoke_dir/serve-$name.out" "$smoke_dir/serve-$name.err" >&2
        exit 1
    fi
done
echo "check.sh: snapshot-refusal smoke ok"

# Quoted-constant smoke: the WAL logs a fact as its rendering, so string
# constants that are no bare identifier (an upper-case initial, a space,
# UTF-8) must be quoted there to come back as themselves after a SIGKILL —
# no record skipped, and the answer byte-identical to `xdl run`.
./target/release/xdl serve --port 0 --wal "$smoke_dir/wal-quoted" \
    > "$smoke_dir/serve-quoted.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-quoted.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: quoted-constant smoke server did not announce" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --fact 'p("Alice").' --fact 'p("a b").' \
    --fact 'p("café").'
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
./target/release/xdl serve --port 0 --wal "$smoke_dir/wal-quoted" \
    > "$smoke_dir/serve-quoted2.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-quoted2.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ] || ! grep -q '"skipped":0' "$smoke_dir/serve-quoted2.out"; then
    echo "check.sh: quoted constants did not all recover:" >&2
    cat "$smoke_dir/serve-quoted2.out" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" '?- p(X).' > "$smoke_dir/served-quoted.out"
printf 'p("Alice").\np("a b").\np("café").\n?- p(X).\n' > "$smoke_dir/quoted.dl"
./target/release/xdl run "$smoke_dir/quoted.dl" > "$smoke_dir/ran-quoted.out"
if ! cmp -s "$smoke_dir/served-quoted.out" "$smoke_dir/ran-quoted.out"; then
    echo "check.sh: recovered quoted constants differ from xdl run:" >&2
    diff "$smoke_dir/served-quoted.out" "$smoke_dir/ran-quoted.out" >&2 || true
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: quoted-constant smoke ok"

# Broken-pipe smoke: a reader that takes one line of 80 000 answers and
# leaves is an ordinary end of output for `xdl run` — exit 0, nothing on
# stderr.
awk 'BEGIN { for (i = 0; i < 80000; i++) printf "p(%d).\n", i; print "?- p(X)." }' \
    > "$smoke_dir/wide.dl"
{
    status=0
    ./target/release/xdl run "$smoke_dir/wide.dl" 2> "$smoke_dir/pipe.err" || status=$?
    echo "$status" > "$smoke_dir/pipe.status"
} | head -1 > "$smoke_dir/pipe.head"
if [ "$(cat "$smoke_dir/pipe.status")" != 0 ] || [ -s "$smoke_dir/pipe.err" ] \
    || [ "$(cat "$smoke_dir/pipe.head")" != X ]; then
    echo "check.sh: xdl run | head -1 exited $(cat "$smoke_dir/pipe.status"):" >&2
    cat "$smoke_dir/pipe.err" >&2
    exit 1
fi
echo "check.sh: broken-pipe smoke ok"

# Paper reproduction: E1–E10 regenerate the claim-backed tables of
# EXPERIMENTS.md at their quick sizes (under a second on a 2-core
# sandbox). An experiment whose program fails to parse, optimize or
# evaluate panics, and the non-zero exit fails the gate. Every counter
# column (all but wall_us) must also match the committed
# bench_results_harness_quick.txt byte for byte: a change that moves one
# of the paper's counts regenerates that file on purpose (see
# scripts/harness_counters.sh) instead of drifting unnoticed.
if ! scripts/harness_counters.sh > "$smoke_dir/harness_quick.txt"; then
    echo "check.sh: harness all --quick failed" >&2
    exit 1
fi
if ! diff -u bench_results_harness_quick.txt "$smoke_dir/harness_quick.txt" >&2; then
    echo "check.sh: harness all --quick counters differ from bench_results_harness_quick.txt" >&2
    exit 1
fi
echo "check.sh: harness all --quick ok, counters unchanged"

# Random-seed fuzz arm: every differential of `fuzz --smoke` (strategies,
# resident vs cold in bulk and single-fact batches — also for a stratified
# program with negation — covered reads vs each form's own evaluation, the
# storage self-check, optimizer on and off) over programs nobody wrote by
# hand. The seed comes from the clock and is
# printed first; 1500 rounds is about 60 s on a 2-core sandbox.
fuzz_rounds=1500
fuzz_seed=$(date +%s)
echo "check.sh: random fuzz arm, $fuzz_rounds rounds from seed $fuzz_seed"
if ! ./target/release/fuzz "$fuzz_rounds" "$fuzz_seed"; then
    echo "check.sh: fuzz failed; reproduce with: ./target/release/fuzz $fuzz_rounds $fuzz_seed" >&2
    exit 1
fi

# Load benchmark: the four workloads of BENCHMARK.json at a tenth of their
# op counts, untraced then traced. It builds bench/ against the crates and
# exits non-zero when an output check fails (a served response that
# differs from the closed-form oracle, a broken layer walk).
bench/run.sh --quick > /dev/null
echo "check.sh: bench/run.sh --quick ok"

# The benchmark's own tests, against the crates as they are now: proof that
# bench/ (which no crates PR may edit) still builds and passes unedited.
cargo test -q --offline --manifest-path bench/Cargo.toml --target-dir target > /dev/null
echo "check.sh: bench self-tests ok"

if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "check.sh: the gate changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi
echo "check.sh: working tree left as found"

echo "check.sh: all green"
