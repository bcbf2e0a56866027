#!/usr/bin/env bash
# The paired-run protocol for a change that claims (or must not lose) speed,
# as one command: N alternating parent/change pairs per workload, one seed per
# pair, medians with quartiles and wins of N for every end-to-end metric.
#
# Builds `benchkit` in each checkout into that checkout's own `.bench_build`
# (`$CARGO_TARGET_DIR` is ignored: two checkouts must not share a target
# directory), then for each workload and each seed 1..N runs both binaries
# untraced from their own checkout roots — parent first on odd seeds, change
# first on even ones — and reads each run's `# <metric> … p50=` lines,
# `peak_rss_mb=`, the result line's `setup_s` and its `"correct"` flag.
# Workloads, metrics, directions, bounds and the default run length come from
# the change checkout's BENCHMARK.json. Prints one row per workload × metric:
# both medians, both inter-quartile ranges, change/parent, the pairs the change
# won, and whether the median moved by more than the parent's own IQR and by
# more than the metric's bound. Every run made lands in the TSV named on the
# last line. Exits non-zero if a build fails or any run is not
# `"correct": true`.
#
# Usage: scripts/bench-pairs.sh <parent-checkout> <change-checkout>
#            [--pairs 10] [--seconds <BENCHMARK.json run_seconds>]
#            [--workloads "wide_regions dense_clients …"]
set -uo pipefail

usage() {
    echo 'usage: scripts/bench-pairs.sh <parent-checkout> <change-checkout>' \
        '[--pairs 10] [--seconds S] [--workloads "w1 w2 …"]' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent="$(cd "$1" 2>/dev/null && pwd)" || usage
change="$(cd "$2" 2>/dev/null && pwd)" || usage
shift 2
pairs=10
seconds=""
workloads=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:-}"; shift 2 || usage ;;
        --seconds) seconds="${2:-}"; shift 2 || usage ;;
        --workloads) workloads="${2:-}"; shift 2 || usage ;;
        *) usage ;;
    esac
done
if [ "$parent" = "$change" ]; then
    echo "bench-pairs: parent and change are the same checkout" >&2
    exit 2
fi

benchmark="$change/BENCHMARK.json"
field() { python3 -c 'import json, sys; b = json.load(open(sys.argv[1])); print(eval(sys.argv[2]))' "$benchmark" "$1"; }
[ -n "$seconds" ] || seconds="$(field 'b["run_seconds"]')" || exit 2
[ -n "$workloads" ] || workloads="$(field '" ".join(w["name"] for w in b["workloads"])')" || exit 2

for side in "$parent" "$change"; do
    mkdir -p "$side/.bench_build"
    # Cargo replays the path crates' warnings on every build; show them only
    # when the build fails.
    if ! CARGO_TARGET_DIR="$side/.bench_build" cargo build --release --offline --locked --quiet \
        --manifest-path "$side/benchkit/Cargo.toml" 2>"$side/.bench_build/bench-pairs.log"; then
        cat "$side/.bench_build/bench-pairs.log" >&2
        echo "bench-pairs: $side does not build" >&2
        exit 2
    fi
done

runs="$change/.bench_build/bench-pairs.tsv"
printf 'workload\tseed\tside\torder\tmetric\tvalue\n' >"$runs"
status=0

# run_side <workload> <seed> <parent|change> <first|second>
run_side() {
    local workload="$1" seed="$2" side="$3" order="$4" root output
    root="$parent"
    [ "$side" = change ] && root="$change"
    output="$(cd "$root" && ./.bench_build/release/benchkit --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>&1)"
    if ! tail -n 1 <<<"$output" | grep -q '"correct": true.*"failed": 0'; then
        echo "$output" >&2
        echo "bench-pairs: $workload seed=$seed $side: not a correct run" >&2
        status=1
        return
    fi
    {
        sed -n 's/^# \([a-z_]*\) n=[0-9]* .* p50=\([0-9.]*\) .*/\1\t\2/p' <<<"$output"
        sed -n 's/^# inputs=.* peak_rss_mb=\([0-9.]*\).*/peak_rss_mb\t\1/p' <<<"$output"
        tail -n 1 <<<"$output" | sed -n 's/.*"setup_s": {"value": \([0-9.e-]*\).*/setup_s\t\1/p'
    } | sed "s/^/$workload\t$seed\t$side\t$order\t/" >>"$runs"
}

for workload in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) = 1 ]; then
            run_side "$workload" "$seed" parent first
            run_side "$workload" "$seed" change second
        else
            run_side "$workload" "$seed" change first
            run_side "$workload" "$seed" parent second
        fi
        echo "bench-pairs: $workload seed=$seed done" >&2
    done
done

python3 - "$benchmark" "$runs" "$seconds" <<'EOF' || status=1
import collections, json, statistics, sys

benchmark = json.load(open(sys.argv[1]))
values = collections.defaultdict(dict)  # (workload, metric) -> seed -> {side: value}
workloads = []
for line in list(open(sys.argv[2]))[1:]:
    workload, seed, side, _, metric, value = line.rstrip("\n").split("\t")
    values[workload, metric].setdefault(int(seed), {})[side] = float(value)
    if workload not in workloads:
        workloads.append(workload)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"# bench-pairs: run_seconds={sys.argv[3]}, one seed per pair, medians [p25–p75]; "
      "ratio = change/parent; 'moved' = medians differ by more than the parent's IQR")
print("workload | metric | parent | change | ratio | change wins | verdict")
print("--- | --- | --- | --- | --- | --- | ---")
for workload in workloads:
    for metric in benchmark["end_to_end"]:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        by_seed = values.get((workload, name), {})
        paired = [v for _, v in sorted(by_seed.items()) if len(v) == 2]
        if not paired:
            print(f"{workload} | {name} | no complete pair")
            continue
        parent = [v["parent"] for v in paired]
        change = [v["change"] for v in paired]
        better = lambda a, b: a > b if higher else a < b
        wins = sum(better(c, p) for p, c in zip(parent, change))
        losses = sum(better(p, c) for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        ratio = c2 / p2 if p2 else float("nan")
        worse_by = (p2 - c2) / p2 if higher and p2 else (c2 - p2) / p2 if p2 else 0.0
        moved = abs(c2 - p2) > (p3 - p1)
        if worse_by > bound:
            verdict = f"WORSE beyond bound {bound:g}"
        elif not moved:
            verdict = "within parent IQR"
        elif better(c2, p2):
            verdict = "better" + (", wins ≥ 9/10" if wins * 10 >= 9 * (wins + losses) else "")
        else:
            verdict = f"worse, within bound {bound:g}"
        largest = max(abs(p2), abs(c2))
        digits = 6 if largest < 0.01 else 4 if largest < 1 else 1 if largest >= 1000 else 2
        cell = lambda a, b, c: f"{b:.{digits}f} [{a:.{digits}f}–{c:.{digits}f}]"
        print(f"{workload} | {name} | {cell(p1, p2, p3)} | {cell(c1, c2, c3)} | {ratio:.3f} | "
              f"{wins} of {len(paired)} | {verdict}")
EOF

if [ "$status" = 0 ]; then
    echo "bench-pairs: every run \"correct\": true, \"failed\": 0; runs in $runs"
else
    echo "bench-pairs: FAILED (an incorrect run or an unreadable result); runs in $runs" >&2
fi
exit "$status"
