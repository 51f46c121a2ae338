#!/usr/bin/env bash
# Runs the simulation benchmarks, records them as JSON artifacts, and
# diffs the medians against the checked-in baselines.
#
# Usage: scripts/bench.sh [--update] [OUT.json] [extra cargo-bench args...]
#
# Executes the release-mode `sim_engine`, `parallel_matrix`,
# `matrix_reuse`, and `writes_per_op` benches
# (the vendored std-only criterion shim under compat/) and converts their
# report lines —
#
#   group/name    min 1.23 µs  median 1.30 µs  mean 1.31 µs  (10 samples)
#
# — into OUT.json (default BENCH_sim.json) mapping each benchmark id to
# its median ns/iter:
#
#   { "group/name": 1300.0, ... }
#
# The `serve_throughput` bench (HTTP round-trip cost cold vs cache-hit,
# plus request canonicalization) is additionally recorded the same way
# into BENCH_serve.json next to OUT.json.
#
# Before overwriting, each baseline is captured and the new medians are
# compared against it: any benchmark that slowed down by more than 25%
# is a regression. Regressions print a table and exit nonzero with the
# old baselines restored, so a bad run never rewrites the checked-in
# numbers; pass --update to accept the new numbers regardless (e.g. after
# an intentional trade-off, with the reason in the commit message).
#
# All cargo invocations run --offline: this environment has no route to
# crates.io.
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
if [ "${1:-}" = "--update" ]; then
    update=1
    shift
fi

out="${1:-BENCH_sim.json}"
shift || true

# Convert the shim's human-readable medians to ns and emit sorted JSON.
to_json() {
    awk '
    / min .* median .* mean .* samples\)$/ {
        id = $1
        for (i = 2; i <= NF; i++) {
            if ($i == "median") { value = $(i + 1); unit = $(i + 2) }
        }
        ns = value + 0
        if (unit ~ /^µs/ || unit == "us") ns *= 1e3
        else if (unit == "ms")            ns *= 1e6
        else if (unit == "s")             ns *= 1e9
        printf "%s\t%.1f\n", id, ns
    }
    ' "$1" | sort | awk '
    BEGIN { print "{" }
    {
        if (NR > 1) printf ",\n"
        printf "  \"%s\": %s", $1, $2
    }
    END { print "\n}" }
    '
}

report() {
    local file="$1" dest="$2"
    to_json "$file" > "$dest"
    local count
    count="$(grep -c '":' "$dest" || true)"
    echo "bench: wrote $count entries to $dest"
}

# "key<TAB>median" lines from one of the JSON artifacts.
flatten() {
    sed -n 's/^ *"\([^"]*\)": *\([0-9.]*\),*$/\1\t\2/p' "$1"
}

# Prints a baseline-vs-current table for one artifact and returns nonzero
# if any benchmark regressed past the threshold.
compare() {
    local old="$1" new="$2" label="$3"
    if [ ! -s "$old" ]; then
        echo "bench: no previous baseline for $label — nothing to compare"
        return 0
    fi
    echo "bench: $label vs checked-in baseline (regression threshold +25%)"
    flatten "$old" > "$tmpdir/old.tsv"
    flatten "$new" > "$tmpdir/new.tsv"
    awk -F'\t' '
    NR == FNR { baseline[$1] = $2; next }
    {
        current[$1] = $2
        if ($1 in baseline) {
            delta = (($2 - baseline[$1]) / baseline[$1]) * 100
            verdict = ""
            if (delta > 25) { verdict = "REGRESSION"; bad++ }
            else if (delta < -25) verdict = "improved"
            printf "  %-44s %14.1f %14.1f %+8.1f%% %s\n",
                   $1, baseline[$1], $2, delta, verdict
        } else {
            printf "  %-44s %14s %14.1f %9s\n", $1, "(new)", $2, ""
        }
    }
    END {
        for (id in baseline)
            if (!(id in current))
                printf "  %-44s %14.1f %14s %9s removed\n", id, baseline[id], "-", ""
        exit bad > 0
    }
    ' "$tmpdir/old.tsv" "$tmpdir/new.tsv"
}

# Idle before each benchmark so every entry starts with an equally
# recovered CPU quota — otherwise position in the run skews medians on
# throttled shared machines (see the compat/criterion cooldown docs).
export CRITERION_COOLDOWN_MS="${CRITERION_COOLDOWN_MS:-2000}"

raw="$(mktemp)"
raw_serve="$(mktemp)"
tmpdir="$(mktemp -d)"
trap 'rm -f "$raw" "$raw_serve"; rm -rf "$tmpdir"' EXIT

serve_out="$(dirname "$out")/BENCH_serve.json"
for f in "$out" "$serve_out"; do
    [ -f "$f" ] && cp "$f" "$tmpdir/$(basename "$f").baseline"
done

for bench in sim_engine parallel_matrix matrix_reuse writes_per_op; do
    cargo bench --offline -p nvpim-bench --bench "$bench" "$@" | tee -a "$raw"
done
report "$raw" "$out"

cargo bench --offline -p nvpim-bench --bench serve_throughput "$@" | tee -a "$raw_serve"
report "$raw_serve" "$serve_out"

printf '  %-44s %14s %14s %9s\n' benchmark "baseline ns" "current ns" delta
failed=0
compare "$tmpdir/$(basename "$out").baseline" "$out" "$(basename "$out")" || failed=1
compare "$tmpdir/BENCH_serve.json.baseline" "$serve_out" "BENCH_serve.json" || failed=1

if [ "$failed" = 1 ]; then
    if [ "$update" = 1 ]; then
        echo "bench: regressions past threshold accepted (--update)"
    else
        for f in "$out" "$serve_out"; do
            base="$tmpdir/$(basename "$f").baseline"
            [ -f "$base" ] && cp "$base" "$f"
        done
        echo "bench: FAILED — medians regressed >25% against the baseline;" \
             "baselines left unchanged (rerun with --update to accept)" >&2
        exit 1
    fi
fi
echo "bench: baselines up to date"
