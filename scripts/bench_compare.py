#!/usr/bin/env python3
"""Compare base and head kernel snapshots: the CI perf gate.

Gates the `benchkernel` snapshots that scripts/bench_pair.sh takes of
a base commit and the head, interleaved on one machine:

    python3 scripts/bench_compare.py BASE.json... -- HEAD.json...

Each side may hold several snapshots. Per kernel a side's figure is the
least min_ns over its snapshots (the noise-robust estimator: on a
shared runner interference only ever adds time, so the fastest sample
tracks the true cost). A kernel more than FAIL_PCT slower than the
base fails the gate; one more than WARN_PCT slower prints a warning.
The median of each side's median_ns is reported alongside, purely as
context: a min that moved while the median held still is usually
runner noise, a min and median that moved together is a real shift.
The gate itself only ever fires on min_ns.

Key-set drift is asymmetric: NEW keys on the head side are fine (a
fresh kernel has no base to compare with), but keys that the base
records and the head does not fail the gate — silently dropping a
kernel is how regressions hide.

Provenance must be like-for-like: the threads, sched, and shards
settings recorded in every snapshot, on both sides, must agree, or
every per-key delta is comparing different machines' worth of work and
the gate is meaningless. A mismatch is a hard failure, not a note. (The
`kernel/shard/*` keys pin their shard count in the key itself and are
immune to the `shards` default; the top-level field gates everything
else, which runs under the default `USFQ_SHARDS`.)

Exit status: 0 on pass (warnings allowed), 1 on any hard regression
or provenance mismatch.

Thresholds are deliberately loose (shared CI runners are noisy) and
overridable via env: USFQ_BENCH_FAIL_PCT / USFQ_BENCH_WARN_PCT.

When $GITHUB_STEP_SUMMARY is set (it is, in any GitHub Actions step),
the same comparison is also appended there as a markdown table — one
row per kernel with its pass/warn/fail verdict — so the gate's outcome
is readable from the run's Summary tab without opening the log.
"""

import json
import os
import statistics
import sys


FAIL_PCT = float(os.environ.get("USFQ_BENCH_FAIL_PCT", "20"))
WARN_PCT = float(os.environ.get("USFQ_BENCH_WARN_PCT", "10"))


def load(path):
    with open(path) as f:
        snap = json.load(f)
    benches = snap.get("benchmarks")
    if not isinstance(benches, dict) or not benches:
        sys.exit(f"{path}: no benchmarks section")
    return snap, benches


def write_step_summary(rows, failures, warnings):
    """Append the comparison as a markdown table to $GITHUB_STEP_SUMMARY.

    `rows` is a list of (status, key, before, after, delta_pct,
    med_before, med_after) tuples; the numeric fields may be None for
    key-set or provenance rows. The median columns are context only —
    the verdict column reflects the min-based gate. A no-op outside
    GitHub Actions.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    icons = {"ok": "✅ pass", "warn": "⚠️ warn", "fail": "❌ fail", "new": "🆕 new"}
    lines = [
        "## Kernel benchmark gate",
        "",
        f"**{len(failures)} hard failure(s), {len(warnings)} warning(s)** "
        f"(fail > {FAIL_PCT:.0f}%, warn > {WARN_PCT:.0f}%; gated on min, "
        "medians shown for context)",
        "",
        "| Kernel | Min before (ns) | Min after (ns) | Δ min | "
        "Median before (ns) | Median after (ns) | Verdict |",
        "|---|---:|---:|---:|---:|---:|---|",
    ]
    for status, key, before, after, delta_pct, med_before, med_after in rows:
        before_s = str(before) if before is not None else "—"
        after_s = str(after) if after is not None else "—"
        delta_s = f"{delta_pct:+.1f}%" if delta_pct is not None else "—"
        med_before_s = str(med_before) if med_before is not None else "—"
        med_after_s = str(med_after) if med_after is not None else "—"
        lines.append(
            f"| `{key}` | {before_s} | {after_s} | {delta_s} "
            f"| {med_before_s} | {med_after_s} | {icons[status]} |"
        )
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def split_sides(args):
    """(base paths, head paths) from `BASE... -- HEAD...`."""
    cut = args.index("--") if "--" in args else 0
    base, head = args[:cut], args[cut + 1 :]
    if not base or not head:
        sys.exit(f"usage: {sys.argv[0]} BASE.json... -- HEAD.json...")
    return base, head


def combine(paths):
    """One side's snapshots as (snapshots, {key: (least, median median)}).

    `least` is the least min_ns over the snapshots that record the key;
    the median of their median_ns is display context only.
    """
    snaps = [load(path) for path in paths]
    keys = sorted({key for _, benches in snaps for key in benches})
    combined = {}
    for path, (_, benches) in zip(paths, snaps):
        for key, entry in benches.items():
            if not entry.get("min_ns"):
                sys.exit(f"{path}: {key} records no min_ns")
    for key in keys:
        entries = [benches[key] for _, benches in snaps if key in benches]
        least = min(e["min_ns"] for e in entries)
        medians = [e["median_ns"] for e in entries if e.get("median_ns")]
        combined[key] = (least, statistics.median(medians) if medians else None)
    return [snap for snap, _ in snaps], combined


def main():
    base_paths, head_paths = split_sides(sys.argv[1:])
    base_snaps, base = combine(base_paths)
    cur_snaps, cur = combine(head_paths)

    for label, paths, snaps in (
        ("base", base_paths, base_snaps),
        ("head", head_paths, cur_snaps),
    ):
        for path, snap in zip(paths, snaps):
            print(
                f"{label}: {path} commit={snap.get('commit', '?')} "
                f"threads={snap.get('threads', '?')} sched={snap.get('sched', '?')} "
                f"shards={snap.get('shards', 1)}"
            )
    provenance_failures = []
    for field, default in (("threads", None), ("sched", None), ("shards", 1)):
        seen = sorted(
            {str(snap.get(field, default)) for snap in base_snaps + cur_snaps}
        )
        if len(seen) > 1:
            provenance_failures.append(
                f"provenance mismatch: {field} takes values {', '.join(seen)}"
            )
    for line in provenance_failures:
        print(f"FAIL {line}")

    rows = [("fail", line, None, None, None, None, None) for line in provenance_failures]
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    for key in only_base:
        print(f"FAIL missing from head (base-only): {key}")
        rows.append(("fail", f"{key} (missing from head)", None, None, None, None, None))
    for key in only_cur:
        print(f"  ok new benchmark (not in base): {key}")
        rows.append(("new", key, None, None, None, None, None))

    failures = provenance_failures + [f"missing: {key}" for key in only_base]
    warnings = []
    for key in sorted(set(base) & set(cur)):
        (before, med_before), (after, med_after) = base[key], cur[key]
        delta_pct = 100.0 * (after - before) / before
        med_s = ""
        if med_before and med_after is not None:
            med_delta = 100.0 * (med_after - med_before) / med_before
            med_s = f" [median {med_before:.0f} -> {med_after:.0f} ({med_delta:+.1f}%)]"
        line = f"{key}: {before} -> {after} ns ({delta_pct:+.1f}%)"
        if delta_pct > FAIL_PCT:
            failures.append(line)
            status = "fail"
            print(f"FAIL {line}{med_s}")
        elif delta_pct > WARN_PCT:
            warnings.append(line)
            status = "warn"
            print(f"WARN {line}{med_s}")
        else:
            status = "ok"
            print(f"  ok {line}{med_s}")
        rows.append((status, key, before, after, delta_pct, med_before, med_after))

    print(
        f"\n{len(failures)} hard failure(s) (regression over {FAIL_PCT:.0f}%, "
        f"missing base key, or provenance mismatch), "
        f"{len(warnings)} warning(s) over {WARN_PCT:.0f}%"
    )
    write_step_summary(rows, failures, warnings)
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
