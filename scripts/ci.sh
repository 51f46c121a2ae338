#!/usr/bin/env bash
# Local CI gate: build, test, and lint the whole workspace.
#
# All cargo invocations run --offline: the build environment has no route
# to crates.io, and the three external deps (rand/proptest/criterion)
# resolve to std-only stand-ins vendored under compat/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# Parallel-engine determinism must hold under release-mode optimization
# too (the bit-identical-results contract the --jobs flag relies on).
cargo test -q --release --offline -p nvpim-core --test parallel
cargo test -q --release --offline -p nvpim-exec

# The compiled-kernel bit-identity suite in release mode: the +Hw fast
# path must match per-iteration step replay cell for cell under the same
# optimization level the benchmarks and the repro binary run at.
cargo test -q --release --offline -p nvpim-core --test kernels

# The replay-free analytic engine in release mode: closed-form and lazy
# answers (the ladder's two rungs) must be bit-identical to both simulator
# arms across all 18 configurations, randomized iteration counts, and the
# exact lifetime solve.
cargo test -q --release --offline -p nvpim-core --test analytic

# Both rungs at the paper's 1024×1024 dims in release mode: the lazy
# software and lazy Hw paths (every Ra-rows +Hw config among them, its one
# kernel relabeled through a fresh row table each epoch) stage wear in row
# space and render lanes only when the lane table changes; they and the
# closed forms must match step replay cell for cell with the lane table
# changing mid-run, across a follow-up query, a restart from the seed, and
# per-epoch series samples.
cargo test -q --release --offline -p nvpim-core --test paper_dims

# The artifact-store bit-identity suite in release mode: wear identical
# with the store off, cold, warm, and starved to a 1-byte budget (every
# insert immediately evicted) across all 18 configurations, and a seeded
# fuzz arm over shapes, schedules, and byte budgets.
cargo test -q --release --offline -p nvpim-core --test artifacts

# The HTTP service end to end in release mode: concurrent byte-identical
# responses, cache hits, 429 backpressure, 504 timeouts, graceful drain.
cargo test -q --release --offline -p nvpim-serve --test integration

# The multi-node fleet suite in release mode: three in-process members
# exchanging forwards, hot-entry replicas, and gossip over real sockets —
# ring ownership, the single-hop loop guard, replica failover after an
# owner shutdown, and byte-identity of fleet vs single-node answers.
cargo test -q --release --offline -p nvpim-serve --test fleet

# The end-to-end benchmark package (its own workspace under e2ebench/) at
# tiny scale: every workload in both modes, with each output digest checked
# against the recorded reference. It reads the WearMap API, so a change
# there must keep it building and its digests unchanged.
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

# Two-worker smoke of the repro harness at a scaled-down iteration count:
# exercises the full binary → parallel matrix path end to end. serve-smoke
# boots an in-process server and round-trips real HTTP requests.
cargo run --release --offline -q -p nvpim-bench --bin repro -- \
    fig14 --iters 20 --jobs 2 > /dev/null

# Traced smoke: a two-worker matrix run with every observability artifact
# enabled, then structural validation of the exports — obs-lint re-parses
# the Chrome trace-event JSON the same way Perfetto's loader does, so the
# encoder cannot drift from what the viewers accept. serve-smoke validates
# the Prometheus exposition in-process and (under --out) leaves the text
# behind as serve-metrics.prom for an independent re-lint here.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
cargo run --release --offline -q -p nvpim-bench --bin repro -- \
    fig17 --iters 40 --jobs 2 \
    --trace-out "$OBS_TMP/trace.json" \
    --series-out "$OBS_TMP/series.json" \
    --manifest "$OBS_TMP/manifest.json" > /dev/null
cargo run --release --offline -q -p nvpim-bench --bin repro -- \
    serve-smoke --out "$OBS_TMP" > /dev/null
cargo run --release --offline -q -p nvpim-obs --bin obs-lint -- \
    --chrome "$OBS_TMP/trace.json" --prom "$OBS_TMP/serve-metrics.prom"
# The smoke run samples the wear trajectory: the manifest must carry the
# same five series the --series-out artifact does.
for key in wear.max_writes wear.p99_writes wear.mean_writes wear.gini wear.remaps; do
    grep -q "\"$key\"" "$OBS_TMP/series.json" ||
        { echo "ci: series artifact is missing $key" >&2; exit 1; }
    grep -q "\"$key\"" "$OBS_TMP/manifest.json" ||
        { echo "ci: manifest series section is missing $key" >&2; exit 1; }
done
# Two rungs at paper dims: the manifest's analytic_paths object (one rung
# label per configuration) must never name the retired fallback rung.
paths="$(tr -d '\n' < "$OBS_TMP/manifest.json" | grep -o '"analytic_paths": *{[^}]*}' || true)"
[ -n "$paths" ] || { echo "ci: manifest is missing analytic_paths" >&2; exit 1; }
if grep -q '"fallback"' <<< "$paths"; then
    echo "ci: a configuration landed on the fallback rung: $paths" >&2
    exit 1
fi
echo "ci: traced smoke artifacts validated"

# Cross-configuration artifact reuse end to end: renders the fig14–16
# heatmaps plus the fig17 lifetime matrix twice in one process and fails
# unless the second pass answers from the store (artifacts.hits > 0) AND
# both passes' rendered outputs are byte-identical — memoization must be
# observable in the counters and invisible in the numbers.
cargo run --release --offline -q -p nvpim-bench --bin repro -- \
    reuse-check --iters 40 > /dev/null
echo "ci: artifact reuse check passed"

# Every example must build and run at a tiny iteration scale (the
# NVPIM_EXAMPLE_ITERS override exists precisely for this smoke stage).
cargo build --release --offline -q --examples
for example in quickstart custom_workload lifetime_explorer observed_run \
               traced_run wear_heatmap failed_cells; do
    NVPIM_EXAMPLE_ITERS=20 \
        cargo run --release --offline -q --example "$example" > /dev/null ||
        { echo "ci: example $example failed" >&2; exit 1; }
done
echo "ci: examples smoke-tested"

# Static verification: nvpim-lint runs the netlist, equivalence,
# mapping, and conservation passes over every circuit builder and
# balancing strategy; any finding exits nonzero and fails the gate. The
# check crate itself is held to pedantic clippy (scoped via its [lints]
# table — a command-line -W clippy::pedantic would leak into every
# compat/ path dependency) on top of the workspace-wide -D warnings.
cargo run --release --offline -q -p nvpim-check --bin nvpim-lint -- --quiet
cargo clippy --offline -p nvpim-check --all-targets -- -D warnings

# Equivalence stage at full paper width range: every library circuit at
# widths 1..16 is optimized through the gated pass pipeline and formally
# proven equivalent to its seed netlist; the writes-per-op table is the
# visible artifact (seed vs optimized cell writes, proof method used).
cargo run --release --offline -q -p nvpim-check --bin nvpim-lint -- \
    --equiv --opt --widths 1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16 --quiet

# Best-effort: miri the exec crate's scoped-thread pool for UB when a
# nightly toolchain with miri is installed; skip gracefully otherwise
# (the container bakes in stable only, and miri needs network for sysroot
# setup on first run).
if cargo +nightly miri --version > /dev/null 2>&1; then
    cargo +nightly miri test --offline -p nvpim-exec ||
        echo "ci: warning — miri run failed (non-blocking)"
else
    echo "ci: skipping miri (nightly toolchain with miri not installed)"
fi

# Opt-in bench smoke: NVPIM_BENCH_SMOKE=1 runs the full benchmark suite
# and diffs medians against the checked-in baselines (scripts/bench.sh
# exits nonzero on >25% regressions). Off by default — wall-clock numbers
# are only meaningful on a quiet machine.
if [ "${NVPIM_BENCH_SMOKE:-0}" = "1" ]; then
    scripts/bench.sh
else
    echo "ci: skipping bench smoke (set NVPIM_BENCH_SMOKE=1 to enable)"
fi

echo "ci: all checks passed"
