#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and warn on regressions.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.25]
           [--fallback-baseline bench/baseline/BENCH_baseline.json]
           [--require PREFIX]... [--ratio NUM=DEN]...
       compare_bench.py --self-test

Prints one line per benchmark whose real_time regressed by more than the
threshold relative to the baseline, plus a summary. Always exits 0: this is
a warning signal for CI logs, not a gate — micro-bench noise on shared
runners must never block a merge. Benchmarks present in only one file are
reported informationally.

--ratio NUM=DEN compares the within-run ratio real_time(NUM) /
real_time(DEN) in the current file with the same ratio in the baseline
(e.g. WAL append cost per report over decode+absorb cost per report).
Both entries of a ratio come from one run on one machine, so the ratio
travels across hosts where absolute times do not; it warns, like the rest
of the tool, when the ratio grew by more than the threshold.

When the baseline file is missing or unreadable (the previous CI run's
artifact expired, or this is the first run on a fresh repository) and
--fallback-baseline is given, the committed baseline is used instead — with
a loud note, so readers know the reference machine differs — rather than
silently skipping the comparison and emitting an empty trajectory.
"""

import argparse
import json
import sys


def load_times(path):
    """name -> (real_time, time_unit) for every benchmark entry."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for entry in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if entry.get("run_type") == "aggregate":
            continue
        times[entry["name"]] = (float(entry["real_time"]),
                                entry.get("time_unit", "ns"))
    return times


def parse_ratio(text):
    """'NUM=DEN' -> (NUM, DEN)."""
    num, sep, den = text.partition("=")
    if not sep or not num or not den:
        raise argparse.ArgumentTypeError(
            f"--ratio wants NUM=DEN, got '{text}'")
    return num, den


def ratio_lines(baseline, current, ratios, threshold):
    """Report lines for each (NUM, DEN) within-run ratio."""
    lines = []
    for num, den in ratios:
        label = f"{num}/{den}"
        values = []
        for side, times in (("baseline", baseline), ("current", current)):
            n, d = times.get(num), times.get(den)
            if n is None or d is None or d[0] <= 0:
                lines.append(f"ratio {label}: not in the {side} results; "
                             "skipped")
                break
            values.append(n[0] / d[0])
        if len(values) != 2:
            continue
        base_r, cur_r = values
        if base_r <= 0:
            continue
        change = cur_r / base_r
        if change > 1.0 + threshold:
            lines.append(f"::warning title=bench ratio regression::{label}: "
                         f"{base_r:.3f} -> {cur_r:.3f} ({change:.2f}x)")
        elif change < 1.0 - threshold:
            lines.append(f"improved ratio: {label}: {base_r:.3f} -> "
                         f"{cur_r:.3f} ({change:.2f}x)")
        else:
            lines.append(f"ratio {label}: {base_r:.3f} -> {cur_r:.3f} "
                         f"({change:.2f}x)")
    return lines


def self_test():
    """Checks --ratio parsing and verdicts on in-memory results."""
    base = {"A": (10.0, "ns"), "B": (5.0, "ns"), "C": (0.0, "ns")}
    # A doubles, B stays: A/B regresses 2x. B/A improves 2x.
    cur = {"A": (20.0, "ns"), "B": (5.0, "ns")}
    out = ratio_lines(base, cur, [("A", "B"), ("B", "A")], 0.25)
    assert out[0].startswith("::warning") and "2.000 -> 4.000" in out[0], out
    assert out[1].startswith("improved ratio: B/A"), out
    # A host twice as fast on both entries moves no ratio.
    fast = {"A": (5.0, "ns"), "B": (2.5, "ns")}
    out = ratio_lines(base, fast, [("A", "B")], 0.25)
    assert out == ["ratio A/B: 2.000 -> 2.000 (1.00x)"], out
    # Missing entries and zero denominators are skipped, not errors.
    out = ratio_lines(base, cur, [("A", "Z"), ("A", "C")], 0.25)
    assert out == ["ratio A/Z: not in the baseline results; skipped",
                   "ratio A/C: not in the baseline results; skipped"], out
    assert parse_ratio("WAL_append=WIRE_ABSORB_sw-ems") == (
        "WAL_append", "WIRE_ABSORB_sw-ems")
    assert parse_ratio("NET_ingest/50=X") == ("NET_ingest/50", "X")
    for bad in ("A", "=B", "A="):
        try:
            parse_ratio(bad)
        except argparse.ArgumentTypeError:
            continue
        raise AssertionError(f"accepted '{bad}'")
    print("compare_bench: self-test ok")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown that counts as a regression")
    parser.add_argument("--fallback-baseline", default=None,
                        help="committed baseline used (with a note) when "
                             "the artifact baseline is missing")
    parser.add_argument("--require", action="append", default=[],
                        metavar="PREFIX",
                        help="warn if the current results contain no entry "
                             "with this name prefix (repeatable) — catches "
                             "a bench binary silently dropping out of the "
                             "artifact chain")
    parser.add_argument("--ratio", action="append", default=[],
                        type=parse_ratio, metavar="NUM=DEN",
                        help="also compare the within-run ratio "
                             "real_time(NUM)/real_time(DEN) against the "
                             "baseline's (repeatable)")
    args = parser.parse_args()

    used_fallback = False
    try:
        baseline = load_times(args.baseline)
    except (OSError, ValueError) as err:
        if args.fallback_baseline is None:
            print(f"compare_bench: cannot read baseline ({err}); skipping")
            return 0
        try:
            baseline = load_times(args.fallback_baseline)
        except (OSError, ValueError) as fallback_err:
            print("compare_bench: no previous artifact "
                  f"({err}) and the committed baseline is unreadable "
                  f"({fallback_err}); skipping")
            return 0
        used_fallback = True
        print("compare_bench: no previous artifact, using committed "
              f"baseline {args.fallback_baseline} — timings come from the "
              "committed reference run, so treat ratios as indicative, "
              "not exact")

    try:
        current = load_times(args.current)
    except (OSError, ValueError) as err:
        print(f"compare_bench: cannot read current results ({err}); skipping")
        return 0

    for prefix in args.require:
        if not any(name.startswith(prefix) for name in current):
            print(f"::warning title=bench coverage::no current entry "
                  f"matches required prefix '{prefix}' — a bench series "
                  f"dropped out of the artifact chain")

    regressions = []
    improvements = []
    for name, (base_t, unit) in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None or base_t <= 0:
            continue
        cur_t = cur[0]
        ratio = cur_t / base_t
        if ratio > 1.0 + args.threshold:
            regressions.append((name, base_t, cur_t, unit, ratio))
        elif ratio < 1.0 - args.threshold:
            improvements.append((name, base_t, cur_t, unit, ratio))

    only_new = sorted(set(current) - set(baseline))
    only_old = sorted(set(baseline) - set(current))

    for name, base_t, cur_t, unit, ratio in regressions:
        print(f"::warning title=bench regression::{name}: "
              f"{base_t:.0f} {unit} -> {cur_t:.0f} {unit} ({ratio:.2f}x)")
    for name, base_t, cur_t, unit, ratio in improvements:
        print(f"improved: {name}: {base_t:.0f} {unit} -> {cur_t:.0f} {unit} "
              f"({ratio:.2f}x)")
    if only_new:
        print(f"new benchmarks (no baseline): {', '.join(only_new)}")
    if only_old and not used_fallback:
        # The committed fallback baseline spans every bench binary, so when
        # comparing one binary's output against it, "missing" entries are
        # expected and not worth reporting.
        print(f"removed benchmarks: {', '.join(only_old)}")

    for line in ratio_lines(baseline, current, args.ratio, args.threshold):
        print(line)

    print(f"compare_bench: {len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s), "
          f"{len(baseline)} baseline / {len(current)} current entries "
          f"(threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
