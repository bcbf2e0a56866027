#!/usr/bin/env bash
# Unit tests of the five crates that build in the offline container.
#
# `cargo test -p multipub-core` cannot resolve here (empty registry, no root
# Cargo.lock), but `benchkit` builds `multipub-{sync,obs,core,data,netsim}` and
# stand-in `serde`/`rand`/`rand_distr` from this checkout. This script builds
# it into `.bench_build`, then, against the rlibs that build left behind,
# compiles each crate's `src/lib.rs` with bare `rustc --test` and runs the
# harness (unit tests), and runs bare `rustdoc --test` over the same file
# (doctests). A last pass builds the dependency-free `xtask` the same way and
# runs its unit tests, its golden corpus and `xtask lint` over this tree: the
# crates lean on those lints (L4 is what checks the metric consts). Prints one
# pass/fail line per crate and pass, a total per pass, and exits non-zero when
# a harness fails to compile, any test fails or the lint has a finding.
#
# Totals as of the self-ordering delivery log (ISSUE 23): 278 unit tests (core
# 132, among them the stream = sweep equivalence tests; netsim 79, among them
# the log = heap ones), 35 doctests, xtask 84 + 9.
#
# Usage: scripts/offline-unit-tests.sh [libtest filter/flags...]
set -uo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root" || exit 2
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
deps="$target/release/deps"
out="$target/offline-unit-tests"

mkdir -p "$out"
# Cargo replays the path crates' warnings on every build; show them only
# when the build fails.
if ! CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path benchkit/Cargo.toml 2>"$out/build.log"; then
    cat "$out/build.log" >&2
    exit 2
fi

# --extern flags for the named crates, newest rlib of each.
externs() {
    local name lib
    for name in "$@"; do
        lib="$(ls -t "$deps"/lib"$name"-*.rlib 2>/dev/null | head -n 1)"
        if [ -z "$lib" ]; then
            echo "offline-unit-tests: no rlib for $name under $deps" >&2
            return 1
        fi
        printf -- '--extern %s=%s ' "$name" "$lib"
    done
}

status=0
declare -A total_passed=([unit]=0 [doc]=0 [xtask]=0) total_failed=([unit]=0 [doc]=0 [xtask]=0)

# tally <unit|doc|xtask> <crate> <libtest output>: prints the crate's line for
# that pass (and the output, unless it passed cleanly) and adds to the pass's
# totals.
tally() {
    local pass="$1" crate="$2" result="$3" label="" passed failed
    [ "$pass" = doc ] && label=" doctests:"
    passed="$(sed -n 's/^test result:.* \([0-9][0-9]*\) passed.*/\1/p' <<<"$result" | tail -n 1)"
    failed="$(sed -n 's/^test result:.* \([0-9][0-9]*\) failed.*/\1/p' <<<"$result" | tail -n 1)"
    if [ -z "$passed" ] || [ "${failed:-1}" != 0 ]; then
        echo "$result"
        status=1
    fi
    echo "offline-unit-tests: $crate:$label ${passed:-0} passed, ${failed:-?} failed"
    total_passed[$pass]=$((total_passed[$pass] + ${passed:-0}))
    total_failed[$pass]=$((total_failed[$pass] + ${failed:-0}))
}

# run_crate <dir> <extern crate>...
run_crate() {
    local crate="$1" flags self result
    shift
    flags="$(externs "$@")" || { status=1; return; }
    # shellcheck disable=SC2086  # $flags is a list of words by construction
    if ! rustc --edition 2021 --test -C opt-level=1 -C debug-assertions=on --cap-lints allow \
        --crate-name "multipub_$crate" -L dependency="$deps" $flags \
        "crates/$crate/src/lib.rs" -o "$out/$crate"; then
        echo "offline-unit-tests: $crate: does not compile"
        status=1
        return
    fi
    result="$("$out/$crate" "${test_args[@]}" 2>&1)" || status=1
    tally unit "$crate" "$result"

    # Doctests link against the crate's own rlib from the benchkit build.
    self="$(externs "multipub_$crate")" || { status=1; return; }
    # shellcheck disable=SC2086
    result="$(rustdoc --edition 2021 --test --cap-lints allow \
        --crate-name "multipub_$crate" -L dependency="$deps" $self $flags \
        "crates/$crate/src/lib.rs" --test-args "${test_args[*]}" 2>&1)" || status=1
    tally doc "$crate" "$result"
}

# run_xtask: xtask's unit tests, its golden corpus (xtask/tests/golden.rs) and
# the lint itself, which takes the current directory ($root) for the workspace
# root when cargo is not the one running it.
run_xtask() {
    local lib="$out/libxtask.rlib" result
    local rustc=(rustc --edition 2021 --cap-lints allow)
    if ! "${rustc[@]}" --crate-type lib --crate-name xtask xtask/src/lib.rs -o "$lib" \
        || ! "${rustc[@]}" --test --crate-name xtask xtask/src/lib.rs -o "$out/xtask-unit" \
        || ! "${rustc[@]}" --test --extern xtask="$lib" xtask/tests/golden.rs \
            -o "$out/xtask-golden" \
        || ! "${rustc[@]}" --extern xtask="$lib" xtask/src/main.rs -o "$out/xtask"; then
        echo "offline-unit-tests: xtask: does not compile"
        status=1
        return
    fi
    result="$("$out/xtask-unit" "${test_args[@]}" 2>&1)" || status=1
    tally xtask xtask "$result"
    result="$("$out/xtask-golden" "${test_args[@]}" 2>&1)" || status=1
    tally xtask "xtask golden" "$result"
    # Findings, unused-allow warnings and the summary line, all prefixed.
    "$out/xtask" lint 2>&1 | sed 's/^/offline-unit-tests: /' || status=1
}

test_args=("$@")
run_crate sync
run_crate obs multipub_sync
run_crate core multipub_obs serde
run_crate data multipub_core rand rand_distr serde
run_crate netsim multipub_core multipub_obs multipub_data rand serde
run_xtask

echo "offline-unit-tests: total: ${total_passed[unit]} passed, ${total_failed[unit]} failed"
echo "offline-unit-tests: doctests total: ${total_passed[doc]} passed, ${total_failed[doc]} failed"
echo "offline-unit-tests: xtask total: ${total_passed[xtask]} passed, ${total_failed[xtask]} failed"
exit "$status"
