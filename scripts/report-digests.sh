#!/usr/bin/env bash
# The "same reports as the parent" check of a behaviour-preserving change to
# `netsim`, as one command.
#
# Builds `benchkit` the way `offline-unit-tests.sh` does, compiles
# `crates/netsim/examples/report_digest.rs` with bare rustc against the rlibs
# that build left behind (cargo cannot resolve the workspace offline), runs it
# and diffs its output against `scripts/report-digests.txt`: per fixed scenario
# an FNV-1a digest of the ordered delivery log, the delivery, publication and
# loss counts and the ledger's bytes per region. A changed `log=` digest with
# equal counts means deliveries moved in time or changed order.
#
# Usage: scripts/report-digests.sh [--bless]
#   --bless   rewrite scripts/report-digests.txt from this checkout (do that on
#             the parent commit, or when a change moves reports on purpose)
set -uo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root" || exit 2
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
deps="$target/release/deps"
golden="scripts/report-digests.txt"

bless=0
case "${1:-}" in
    "") ;;
    --bless) bless=1 ;;
    *) echo "usage: scripts/report-digests.sh [--bless]" >&2; exit 2 ;;
esac

# Cargo replays the path crates' warnings on every build; show them only
# when the build fails.
mkdir -p "$target"
if ! CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path benchkit/Cargo.toml 2>"$target/report-digests.log"; then
    cat "$target/report-digests.log" >&2
    exit 2
fi

# --extern flags, newest rlib of each name.
flags=""
for name in multipub_core multipub_data multipub_netsim rand; do
    lib="$(ls -t "$deps"/lib"$name"-*.rlib 2>/dev/null | head -n 1)"
    if [ -z "$lib" ]; then
        echo "report-digests: no rlib for $name under $deps" >&2
        exit 2
    fi
    flags+="--extern $name=$lib "
done
# shellcheck disable=SC2086  # $flags is a list of words by construction
if ! rustc --edition 2021 -C opt-level=3 --cap-lints allow --crate-name report_digest \
    -L dependency="$deps" $flags crates/netsim/examples/report_digest.rs \
    -o "$target/report_digest"; then
    echo "report-digests: crates/netsim/examples/report_digest.rs does not compile" >&2
    exit 2
fi
if ! digests="$("$target/report_digest")"; then
    echo "report-digests: the example failed" >&2
    exit 1
fi

if [ "$bless" = 1 ]; then
    printf '%s\n' "$digests" >"$golden" && echo "report-digests: blessed $golden"
    exit
fi
if ! diff -u "$golden" - <<<"$digests"; then
    echo "report-digests: reports differ from $golden (see the diff above)" >&2
    exit 1
fi
echo "report-digests: $(wc -l <"$golden") scenarios match $golden"
