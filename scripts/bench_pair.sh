#!/usr/bin/env bash
# Interleaved base-vs-head kernel snapshots for the perf gate.
#
#   ./scripts/bench_pair.sh <base-rev> <out-dir>
#
# Exports <base-rev> with `git archive` into <out-dir>/base-src, builds
# its `benchkernel` and this checkout's, then takes eight snapshots of
# each side in rounds that alternate which side goes first (base head,
# head base, ...), so both sides see the same machine, thread count and
# load, and a drift in the machine's speed favours neither:
#
#   <out-dir>/base-1.json  <out-dir>/head-1.json  <out-dir>/head-2.json ...
#
# Eight rounds, not fewer: with base and head at the same commit, three
# rounds failed the gate in each of three runs on a noisy 2-vCPU VM
# (EXPERIMENTS.md, "Lazy probe recording").
#
# Gate the pair with
#
#   python3 scripts/bench_compare.py <out-dir>/base-*.json -- <out-dir>/head-*.json
#
# The head side is the working tree, so an uncommitted change is
# measured against <base-rev> as it stands.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <base-rev> <out-dir>" >&2
    exit 2
fi
base_rev="$1"
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$2"
out="$(cd "$2" && pwd)"
runs=8

base_commit="$(git -C "$root" rev-parse --short "$base_rev")"
head_commit="$(git -C "$root" rev-parse --short HEAD)"
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    head_commit="$head_commit-dirty"
fi

rm -rf "$out/base-src"
mkdir -p "$out/base-src"
git -C "$root" archive "$base_rev" | tar -x -C "$out/base-src"

cargo build --release --offline -p usfq-bench --bin benchkernel \
    --manifest-path "$out/base-src/Cargo.toml" --target-dir "$out/base-target"
cargo build --release --offline -p usfq-bench --bin benchkernel \
    --manifest-path "$root/Cargo.toml"
base_bin="$out/base-target/release/benchkernel"
head_bin="${CARGO_TARGET_DIR:-$root/target}/release/benchkernel"

snapshot() { # <side> <round>
    local bin="$base_bin" commit="$base_commit"
    if [ "$1" = head ]; then
        bin="$head_bin"
        commit="$head_commit"
    fi
    echo "snapshot $2 of $runs: $1 $commit" >&2
    (cd "$out" && USFQ_COMMIT="$commit" "$bin" --out "$out/$1-$2.json")
}

for i in $(seq 1 "$runs"); do
    if [ $((i % 2)) -eq 1 ]; then
        snapshot base "$i"
        snapshot head "$i"
    else
        snapshot head "$i"
        snapshot base "$i"
    fi
done
