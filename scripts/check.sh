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

./target/release/xdl serve --port 0 --threads 2 > "$smoke_dir/serve.out" &
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
# Point reads: the four texts share the `a[nn]` form, which stays resident
# between invocations, and alternating them keeps the one-text answer memo
# out of the way — so in the first pass a read builds the read index it
# needs (or finds the planned one) and in the second it probes it. Each
# must be byte-identical to an unoptimized `xdl run` on the same text.
for pass in 1 2; do
    for q in 'a(1, Y)' 'a(X, 3)' 'a(1, 3)' 'a(X, X)'; do
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
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: server smoke ok (incl. METRICS scrape and point reads)"

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

# Fault suite: the injection harness (fsync failure, torn WAL tail, panic
# isolation, deadline storm, slow client, budget, shedding, drain) must
# pass against the release-profile server crate — with parallel evaluation
# on (XDL_EVAL_THREADS feeds ServerConfig::default), so limits, panics and
# recovery are exercised under the threaded fixpoint too.
XDL_EVAL_THREADS=4 cargo test -q -p datalog-server --test faults > /dev/null
echo "check.sh: fault suite ok (eval_threads=4)"

# Best-effort ThreadSanitizer arm over the parallel-evaluation tests.
# -Zsanitizer is nightly-only and needs rust-src for -Zbuild-std; on a
# stable-only toolchain this is skipped with a notice rather than failed,
# so the gate stays runnable offline.
if command -v rustup > /dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q '^nightly' \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src (installed)'; then
    tsan_host=$(rustc -vV | sed -n 's/^host: //p')
    RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -Zbuild-std --target "$tsan_host" \
        -p datalog-engine --lib > /dev/null
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

# Scaling smoke: parallel evaluation must be byte-identical to serial —
# the answers and the full stats partition, not just the answer set.
./target/release/xdl run "$smoke_dir/run.dl" --stats --threads 1 \
    > "$smoke_dir/threads1.out" 2>&1
./target/release/xdl run "$smoke_dir/run.dl" --stats --threads 4 \
    > "$smoke_dir/threads4.out" 2>&1
if ! cmp -s "$smoke_dir/threads1.out" "$smoke_dir/threads4.out"; then
    echo "check.sh: --threads 4 output differs from serial:" >&2
    diff "$smoke_dir/threads1.out" "$smoke_dir/threads4.out" >&2 || true
    exit 1
fi
echo "check.sh: scaling smoke ok"

# Incremental-serving smoke: ingest after a warm query, then demand the
# resident-frontier answer is byte-identical to a server with residency
# disabled (--resident-forms 0 forces invalidate-and-recompute).
for forms in 8 0; do
    ./target/release/xdl serve --port 0 --threads 2 --resident-forms "$forms" \
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
    ./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
        '?- a(X, _).' > /dev/null
    ./target/release/xdl query --connect "$addr" --fact 'p(3, 4).' \
        --fact 'p(4, 5).' '?- a(X, _).' > "$smoke_dir/inc$forms.out"
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
./target/release/xdl serve --port 0 --threads 2 > "$smoke_dir/serve-modes.out" &
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
./target/release/xdl serve --port 0 --threads 2 --wal "$smoke_dir/wal" \
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

./target/release/xdl serve --port 0 --threads 2 --wal "$smoke_dir/wal" \
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

# Manifest-recovery smoke: same SIGKILL discipline, but with compaction
# enabled (--compact-every 4) so the surviving WAL directory holds a
# run-file manifest instead of a pure text log. The restart must load the
# run batches (a `recovered` line with nonzero run_files and no lost ones)
# and answer byte-identically.
./target/release/xdl serve --port 0 --threads 2 --wal "$smoke_dir/wal-man" \
    --compact-every 4 > "$smoke_dir/serve-man.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-man.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: manifest WAL server did not announce its address" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    --fact 'p(3, 4).' --fact 'p(4, 5).' --fact 'p(5, 6).' '?- a(X, _).' \
    > "$smoke_dir/before-man.out"
if [ ! -f "$smoke_dir/wal-man/snapshot.manifest" ]; then
    echo "check.sh: compaction left no snapshot.manifest" >&2
    ls "$smoke_dir/wal-man" >&2 || true
    exit 1
fi
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

./target/release/xdl serve --port 0 --threads 2 --wal "$smoke_dir/wal-man" \
    --compact-every 4 > "$smoke_dir/serve-man2.out" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve-man2.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: restarted manifest server did not announce its address" >&2
    exit 1
fi
if ! grep -q '^recovered ' "$smoke_dir/serve-man2.out" \
    || ! grep -Eq '"run_files":[1-9]' "$smoke_dir/serve-man2.out" \
    || ! grep -q '"lost_run_files":0' "$smoke_dir/serve-man2.out"; then
    echo "check.sh: restart did not recover from run files:" >&2
    cat "$smoke_dir/serve-man2.out" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" '?- a(X, _).' \
    > "$smoke_dir/after-man.out"
if ! cmp -s "$smoke_dir/before-man.out" "$smoke_dir/after-man.out"; then
    echo "check.sh: answers differ across SIGKILL + manifest recovery:" >&2
    diff "$smoke_dir/before-man.out" "$smoke_dir/after-man.out" >&2 || true
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: manifest-recovery smoke ok"

# Manifest refusal: a copy of that directory whose manifest carries another
# version's header must be refused — non-zero exit, the file named on
# stderr — and left byte for byte as it was. (A server that starts instead
# is stopped by `timeout`, whose status 124 counts as a failure.)
cp -r "$smoke_dir/wal-man" "$smoke_dir/wal-v2"
{ echo 'xdl-snapshot-manifest v2'; tail -n +2 "$smoke_dir/wal-man/snapshot.manifest"; } \
    > "$smoke_dir/wal-v2/snapshot.manifest"
cp -r "$smoke_dir/wal-v2" "$smoke_dir/wal-v2.orig"
status=0
timeout 10 ./target/release/xdl serve --port 0 --wal "$smoke_dir/wal-v2" \
    > "$smoke_dir/serve-v2.out" 2> "$smoke_dir/serve-v2.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] \
    || ! grep -q 'snapshot.manifest' "$smoke_dir/serve-v2.err" \
    || ! diff -r "$smoke_dir/wal-v2.orig" "$smoke_dir/wal-v2" >&2; then
    echo "check.sh: a v2 manifest was not refused untouched (exit $status):" >&2
    cat "$smoke_dir/serve-v2.out" "$smoke_dir/serve-v2.err" >&2
    exit 1
fi
echo "check.sh: manifest-refusal smoke ok"

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

# Random-seed fuzz arm: every differential of `fuzz --smoke` (strategies,
# thread counts, resident vs cold in bulk and single-fact batches, the
# storage self-check, optimizer on and off) over programs nobody wrote by hand. The
# seed comes from the clock and is printed first; 1500 rounds is about 20 s
# on a 2-core sandbox.
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
