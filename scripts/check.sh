#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order that fails fastest.
# Usage: scripts/check.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no tracked build artifacts"
if [ -n "$(git ls-files 'target/*')" ]; then
    echo "error: build artifacts are tracked under target/ — run: git rm -r --cached target/" >&2
    git ls-files 'target/*' | head -5 >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test --workspace --release --offline -q

echo "==> differential spin fuzz, long form"
# 1024 more seeded multi-core spin programs than tier-1 runs: the spin
# pool (decode cache on) must match the polling reference interpreter on
# every stat, digest and state fingerprint at every random pause.
cargo test --release --offline -q --test properties -- --ignored \
    spin_pool_matches_polling_at_every_pause_long

echo "==> cargo doc (rustdoc rot gate)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> throughput digest smoke (--jobs 2, committed digests)"
# Runs the full fixed workloads on a 2-worker pool and asserts the
# committed stats digests, then replays both with the decode cache on and
# off — catches host-parallelism regressions (sweep jobs leaking state
# into each other) and engine changes, fast path or reference
# interpreter, that silently alter simulated behaviour.
cargo run --release --offline -p bench-suite --bin throughput -q -- \
    --check --jobs 2 --out "$(mktemp -t fastbar_check_throughput.XXXXXX.json)"

echo "==> chaos recovery smoke (fixed seed, quick grid)"
# Quick fault-injection sweep at a pinned seed: every point must produce
# validated kernel output, quiescent filter tables and a bit-identical
# replay (the sweep itself runs each faulted point twice and asserts it),
# so a barrier-recovery regression fails here before it lands.
cargo run --release --offline -p bench-suite --bin chaos -q -- \
    --quick --jobs 2 --seed 0x5eedba441e4a0001 \
    --out "$(mktemp -t fastbar_check_chaos.XXXXXX.json)"

echo "==> program verifier + race detector + model checker smoke (quick kernel grid)"
# Every parallel kernel under every barrier mechanism (including the
# 64-core clustered topology points), race detector attached, assembled
# program statically verified, plus the bounded model checker over every
# mechanism's emitted routine at 2-4 cores with and without an injected
# fault: any static Error, observed race, or property counterexample
# exits non-zero. --check also replays the two committed throughput
# samples and asserts their pinned stats digests. Quick sizes; verdicts
# are size-independent.
cargo run --release --offline -p bench-suite --bin verify -q -- \
    --quick --mc --check --jobs 2 \
    --out "$(mktemp -t fastbar_check_verify.XXXXXX.json)"

echo "==> scaling sweep smoke (quick grid + degenerate-topology digests)"
# Quick clustered grid (64 cores under sw-central and sw-hier) plus the
# degenerate-topology guard: --check re-runs the two committed 16-core
# workloads on the flat machine — now expressed as a 1-cluster topology
# routed through the interconnect layer — and asserts their pinned
# digests bit-for-bit.
cargo run --release --offline -p bench-suite --bin fig_scale -q -- \
    --quick --check --jobs 2 --out "$(mktemp -t fastbar_check_scale.XXXXXX.json)"

echo "==> fastbar-serve smoke (unix socket, quick suite, cached resubmit)"
# Daemon on a throwaway Unix socket: submit the quick fig4+viterbi suite
# twice. The first pass runs live, the second must be answered entirely
# from the on-disk cache with every table row byte-identical — then the
# daemon exits cleanly on the shutdown op (wait collects its status).
SERVE_SOCK="$(mktemp -u -t fastbar_check_serve.XXXXXX.sock)"
SERVE_CACHE="$(mktemp -d -t fastbar_check_serve_cache.XXXXXX)"
cargo run --release --offline -p bench-suite --bin fastbar_serve -q -- \
    serve --unix "$SERVE_SOCK" --cache "$SERVE_CACHE" --jobs 2 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 300); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || { echo "error: fastbar-serve never bound $SERVE_SOCK" >&2; exit 1; }
first="$(cargo run --release --offline -p bench-suite --bin fastbar_serve -q -- \
    submit --unix "$SERVE_SOCK" --quick)"
second="$(cargo run --release --offline -p bench-suite --bin fastbar_serve -q -- \
    submit --unix "$SERVE_SOCK" --quick)"
echo "$first"  | grep -q "8 items, 0 served from cache" \
    || { echo "error: first submit was not fully live" >&2; echo "$first" >&2; exit 1; }
echo "$second" | grep -q "8 items, 8 served from cache" \
    || { echo "error: resubmit was not fully cached" >&2; echo "$second" >&2; exit 1; }
# Cached rows must report the exact digests of the live ones (the
# client itself verifies byte identity of each result body against the
# server's body_fnv hash; serve_e2e.rs asserts it end to end).
diff <(echo "$first" | grep -o '0x[0-9a-f]*') \
     <(echo "$second" | grep -o '0x[0-9a-f]*') \
    || { echo "error: cached submit digests differ from live submit" >&2; exit 1; }
cargo run --release --offline -p bench-suite --bin fastbar_serve -q -- \
    shutdown --unix "$SERVE_SOCK"
wait "$SERVE_PID"
trap - EXIT
rm -rf "$SERVE_CACHE"

echo "==> all checks passed"
