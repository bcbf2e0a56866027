#!/usr/bin/env bash
# The "same decisions as the parent" check of a behaviour-preserving change to
# `core` or `netsim`, as one command.
#
# Builds `benchkit` the way `offline-unit-tests.sh` does, runs the four
# workloads × seeds 1–3 untraced at `--seconds 0.1` (the digests fold a fixed
# eight intervals, however short the run) and diffs each run's
# `inputs=… decisions=…` pair against `scripts/decision-digests.txt`. A changed
# `decisions=` digest means some topic's picked or installed configuration, or
# its feasibility, moved; a changed `inputs=` digest means the generators did.
#
# Usage: scripts/decision-digests.sh [--bless]
#   --bless   rewrite scripts/decision-digests.txt from this checkout (do that
#             on the parent commit, or when a change moves decisions on purpose)
set -uo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root" || exit 2
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
golden="scripts/decision-digests.txt"

bless=0
case "${1:-}" in
    "") ;;
    --bless) bless=1 ;;
    *) echo "usage: scripts/decision-digests.sh [--bless]" >&2; exit 2 ;;
esac

# Cargo replays the path crates' warnings on every build; show them only
# when the build fails.
mkdir -p "$target"
if ! CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path benchkit/Cargo.toml 2>"$target/decision-digests.log"; then
    cat "$target/decision-digests.log" >&2
    exit 2
fi

status=0
digests=""
for workload in wide_regions dense_clients many_topics sim_heavy; do
    for seed in 1 2 3; do
        output="$("$target/release/benchkit" --workload "$workload" --seed "$seed" \
            --seconds 0.1 --trace 0 2>&1)"
        pair="$(sed -n 's/^# \(inputs=[0-9a-f]* decisions=[0-9a-f]*\).*/\1/p' <<<"$output")"
        if [ -z "$pair" ] || ! tail -n 1 <<<"$output" | grep -q '"correct": true'; then
            echo "$output" >&2
            echo "decision-digests: $workload seed=$seed: no digests or an incorrect run" >&2
            status=1
        fi
        digests+="$workload seed=$seed $pair"$'\n'
    done
done

if [ "$bless" = 1 ]; then
    [ "$status" = 0 ] && printf '%s' "$digests" >"$golden" && echo "decision-digests: blessed $golden"
    exit "$status"
fi
if ! diff -u "$golden" - <<<"${digests%$'\n'}"; then
    echo "decision-digests: digests differ from $golden (see the diff above)" >&2
    exit 1
fi
[ "$status" = 0 ] && echo "decision-digests: 12 runs match $golden"
exit "$status"
