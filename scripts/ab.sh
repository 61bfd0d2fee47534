#!/usr/bin/env bash
# Alternating-pairs A/B of benchmark workloads: a parent commit against
# the working tree.
#
#   scripts/ab.sh <parent-ref> <workload[,workload...]|all> [pairs=10] [seed=42]
#
# The protocol every perf change here is judged by (BENCHMARK.json,
# benchmark/README.md): export <parent-ref> into target/ab/parent, build
# the benchmark binary of both trees --offline — once, however many
# workloads are named (`all` is every workload in BENCHMARK.json) — then
# per workload run <pairs> pairs of
# `run --workload W --seed N --seconds 12 --trace 0`, alternating which
# side goes first, and print every run. Then, per end-to-end metric:
# both medians, both quartile pairs and the pair wins (ties count for
# neither side), and the outcome digests of both sides. The runs are
# kept in target/ab/runs/<workload>/{parent,change}.jsonl.
#
# Exits non-zero when any workload had a run fail (non-zero exit,
# `correct` false or a failed op) or its two sides' digests differ; the
# remaining workloads still run and print. Judging a claim — nine pairs
# of ten, a median gap wider than the parent's quartile distance — is
# the reader's job: the numbers to do it with are all printed.
#
# Writes only under target/; nothing under benchmark/ is touched (both
# builds get their own CARGO_TARGET_DIR).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
ref="$1" pairs="${3:-10}" seed="${4:-42}"
command -v jq >/dev/null 2>&1 || { echo "error: jq is required" >&2; exit 2; }
if [ "$2" = all ]; then
    workloads="$(jq -r '[.workloads[].name] | join(" ")' BENCHMARK.json)"
else
    workloads="${2//,/ }"
fi
[ -n "$workloads" ] || { echo "error: no workload named" >&2; exit 2; }
for workload in $workloads; do
    jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null ||
        { echo "error: BENCHMARK.json has no workload '$workload'" >&2; exit 2; }
done

ab=target/ab
rm -rf "$ab/parent" "$ab/runs"
mkdir -p "$ab/parent"
git archive "$ref" | tar -x -C "$ab/parent"
echo "# ${workloads// /, }, seed $seed: parent $(git rev-parse --short "$ref") vs the working tree" \
    "($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes'))"

build() { # <tree> <target dir>
    CARGO_TARGET_DIR="$PWD/$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$ab/parent" "$ab/build-parent"
build . "$ab/build-change"

run() { # <side> <pair>: prints the run, appends its JSON to $runs/<side>.jsonl
    local side="$1" pair="$2" tree=. log="$runs/$1-$2.txt"
    local bin="$PWD/$ab/build-$side/release/fg-benchmark" digest line
    [ "$side" = parent ] && tree="$ab/parent"
    (cd "$tree" && "$bin" run --workload "$workload" --seed "$seed" --seconds 12 --trace 0) \
        >"$log" 2>&1 || status=1
    digest="$(grep -o 'outcome digest [0-9a-f]*' "$log" | tail -n 1 | cut -d' ' -f3 || true)"
    if ! line="$(tail -n 1 "$log" | jq -c --arg d "${digest:-none}" '. + {digest: $d}' 2>/dev/null)"; then
        echo "pair $pair $side: no result, see $log" >&2
        status=1
        return
    fi
    echo "$line" >>"$runs/$side.jsonl"
    echo "$line" | jq -r --arg side "$side" --arg pair "$pair" '
        "pair \($pair) \($side): "
        + ([.metrics | to_entries[] | "\(.key) \(.value.value)"] | join("  "))
        + "  digest \(.digest)"
        + (if .correct and .failed == 0 then "" else "  FAILED (\(.failed) of \(.attempted) ops)" end)'
    echo "$line" | jq -e '.correct and .failed == 0' >/dev/null || status=1
}

summary() { # the table of $workload's runs
    jq -rn --slurpfile spec BENCHMARK.json \
        --slurpfile parent "$runs/parent.jsonl" --slurpfile change "$runs/change.jsonl" '
        def q(p): sort as $s | (($s | length) - 1) as $last | ($last * p) as $x | ($x | floor) as $i
            | $s[$i] + ($s[[$i + 1, $last] | min] - $s[$i]) * ($x - $i);
        def stats: "\(q(0.5)) [\(q(0.25)), \(q(0.75))]";
        "", "# \($parent | length) pairs; median [q1, q3]; wins are pairs the side read better in",
        ($spec[0].end_to_end[] | . as $m
            | [$parent[].metrics[$m.name].value] as $p | [$change[].metrics[$m.name].value] as $c
            | [range($p | length) | if $m.better == "higher" then $c[.] - $p[.] else $p[.] - $c[.] end]
                as $gain
            | "\($m.name) (\($m.unit), \($m.better) is better): parent \($p | stats)  change \($c | stats)"
              + "  x\($c | q(0.5) / ($p | q(0.5)) * 1000 | round / 1000)"
              + "  wins change \([$gain[] | select(. > 0)] | length)"
              + " parent \([$gain[] | select(. < 0)] | length)"),
        "digest: parent \([$parent[].digest] | unique | join(",")) change \([$change[].digest] | unique | join(","))"'
}

failed=0
for workload in $workloads; do
    runs="$ab/runs/$workload" status=0
    mkdir -p "$runs"
    [ "$workloads" = "$workload" ] || printf '\n## %s\n' "$workload"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$pair"; done
    done
    if [ "$status" -ne 0 ]; then
        echo "error: a $workload run failed" >&2
        failed=1
        continue
    fi
    summary
    if [ "$(jq -s -c 'map(.digest) | unique' "$runs/parent.jsonl")" != \
        "$(jq -s -c 'map(.digest) | unique' "$runs/change.jsonl")" ]; then
        echo "error: the $workload outcome digests differ" >&2
        failed=1
    fi
done
exit "$failed"
