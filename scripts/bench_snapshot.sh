#!/usr/bin/env bash
# Snapshot the kernel benchmarks' wall-clock into the JSON file $OUT.
#
# Runs the self-timed `benchkernel` binary (std only, so a snapshot is
# takeable offline) and writes one machine-readable file recording,
# alongside each kernel's min/median/mean nanoseconds, the provenance
# needed to compare runs honestly: the git commit, the resolved
# worker-thread count, the default event-scheduler variant, and the
# default shard count (USFQ_SHARDS) in force. bench_compare.py
# hard-fails on any provenance mismatch so snapshots are only ever
# compared like-for-like; the kernel/shard/* entries pin their shard
# count in the key itself and sweep 1/2/4/8 shards regardless of the
# default.
#
#   OUT=/tmp/after.json ./scripts/bench_snapshot.sh
#
# No snapshot is committed as a baseline: the perf gate measures the
# base commit and the head on the same machine with
# scripts/bench_pair.sh and compares them with
#
#   python3 scripts/bench_compare.py OUT/base-*.json -- OUT/head-*.json
set -euo pipefail

OUT="${OUT:?set OUT to the snapshot path, e.g. OUT=/tmp/bench.json}"
case "$OUT" in
    /*) ;;
    *) OUT="$PWD/$OUT" ;;
esac
cd "$(dirname "$0")/.."

USFQ_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export USFQ_COMMIT

cargo run --release -p usfq-bench --bin benchkernel -- --out "$OUT"
