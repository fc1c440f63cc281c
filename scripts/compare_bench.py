#!/usr/bin/env python3
"""Compare BENCH_*.json perf results against a baseline run.

Usage:
    compare_bench.py <baseline-dir> <current-dir> [--threshold 0.20]
                     [--fail-threshold 0.35] [--fail-on-regression]
                     [--noise-file scripts/bench_noise.json]

Both directories hold BENCH_<bench>.json files in the schema documented in
README "Perf tracking" — either directly or in nested subdirectories
(CI's bench-smoke job runs every bench several times into run1/run2/...
subdirectories; all files under a side are collected recursively and
duplicate metrics are aggregated by MEDIAN, which is what makes a hard
gate viable on noisy shared runners).

Metrics are matched by (bench, metric name, sorted labels) and compared
when the current run's unit has a known direction: rates (queries/sec,
vertices/sec, balls/sec) and ratios (e.g. the serving cache's hit_rate),
where lower = slower = regression, and latencies (us, ms), where HIGHER is
the regression — this is how the serving daemon's p50/p99/p999 tail
latencies are gated. A metric whose unit differs between the two runs is
listed as "unit changed" and not compared: its old value may not even
point the same way. Two bands:

  * a move-for-the-worse beyond --threshold (default 20%) prints a
    REGRESSION warning;
  * beyond --fail-threshold (when given; CI uses 35%) it is a hard
    failure — the script exits 1.

A --noise-file adds a PER-METRIC allowance on top of both thresholds: the
JSON maps "<bench>.<metric>" (or "<metric>" for all benches, or "*" as a
global default) to an extra relative band, e.g.

    {"loadgen.p999_us": 0.25, "p99_us": 0.10, "*": 0.0}

so a metric known to be noisy at full scale (tail latencies on shared
runners) only warns beyond threshold+allowance and only fails beyond
fail-threshold+allowance. This is what lets the nightly leg run as a hard
gate instead of warn-only. Most-specific key wins.

New or vanished metrics are listed informationally. --fail-on-regression
additionally turns warn-band regressions into a nonzero exit.
"""

import argparse
import json
import pathlib
import statistics
import sys

# Higher is better: a drop is a regression.
RATE_UNITS = {"queries/sec", "vertices/sec", "balls/sec", "ratio"}
# Lower is better (latencies): a rise is a regression.
LATENCY_UNITS = {"us", "ms"}


def load_metrics(directory):
    """Maps (bench, metric, labels-tuple) -> (median value, unit).

    Scans `directory` recursively, so a side may be a single run or a
    directory of repetition subdirectories; repeated observations of the
    same metric key are reduced to their median.
    """
    observed = {}
    for path in sorted(pathlib.Path(directory).rglob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping unreadable {path}: {err}")
            continue
        bench = doc.get("bench", path.stem)
        for metric in doc.get("metrics", []):
            try:
                name = metric["name"]
                value = float(metric["value"])
            except (KeyError, TypeError, ValueError):
                continue
            labels = tuple(sorted((metric.get("labels") or {}).items()))
            key = (bench, name, labels)
            values, _ = observed.setdefault(key, ([], metric.get("unit", "")))
            values.append(value)
    return {key: (statistics.median(values), unit)
            for key, (values, unit) in observed.items()}


def label_str(labels):
    return ",".join(f"{k}={v}" for k, v in labels) or "-"


def load_noise(path):
    """Loads the per-metric allowance map; {} when no file is given."""
    if path is None:
        return {}
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"warning: ignoring unreadable noise file {path}: {err}")
        return {}
    noise = {}
    for key, value in doc.items():
        if key.startswith("_"):
            continue  # comment keys
        try:
            noise[key] = float(value)
        except (TypeError, ValueError):
            print(f"warning: noise file {path}: non-numeric allowance "
                  f"for {key!r}; ignored")
    return noise


def allowance_for(noise, bench, name):
    """Most-specific allowance: bench.metric > metric > '*' > 0."""
    for key in (f"{bench}.{name}", name, "*"):
        if key in noise:
            return noise[key]
    return 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative drop that prints a warning")
    parser.add_argument("--fail-threshold", type=float, default=None,
                        help="relative drop that fails the run (exit 1)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 on warn-band regressions too")
    parser.add_argument("--noise-file", default=None,
                        help="JSON map of per-metric extra allowance "
                             "(bench.metric, metric, or '*')")
    args = parser.parse_args()
    noise = load_noise(args.noise_file)

    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)
    if not base:
        print(f"no baseline metrics under {args.baseline}; nothing to compare")
        return 0
    if not cur:
        print(f"no current metrics under {args.current}; nothing to compare")
        return 0

    regressions = []
    failures = []
    unit_changed = []
    improvements = 0
    compared = 0
    print(f"{'bench':24} {'metric':20} {'labels':40} "
          f"{'baseline':>12} {'current':>12} {'delta':>8}")
    for key in sorted(base):
        if key not in cur:
            continue
        (old, old_unit) = base[key]
        (new, unit) = cur[key]
        if unit != old_unit:
            unit_changed.append((key, old_unit, unit))
            continue
        if old <= 0:
            continue
        if unit in RATE_UNITS:
            direction = 1.0  # a drop is a regression
        elif unit in LATENCY_UNITS:
            direction = -1.0  # a rise is a regression
        else:
            continue
        compared += 1
        delta = (new - old) / old
        # Positive `worse` always means "moved in the bad direction".
        worse = -direction * delta
        slack = allowance_for(noise, key[0], key[1])
        flag = ""
        if (args.fail_threshold is not None
                and worse > args.fail_threshold + slack):
            flag = "  << FAIL"
            failures.append((key, old, new, delta))
        elif worse > args.threshold + slack:
            flag = "  << REGRESSION"
            regressions.append((key, old, new, delta))
        elif worse < -args.threshold:
            improvements += 1
            flag = "  (improved)"
        bench, name, labels = key
        print(f"{bench:24} {name:20} {label_str(labels):40} "
              f"{old:12.1f} {new:12.1f} {delta:+7.1%}{flag}")

    missing = sorted(k for k in base if k not in cur)
    added = sorted(k for k in cur if k not in base)
    if missing:
        print(f"\n{len(missing)} baseline metric(s) absent from the current "
              "run (renamed or removed):")
        for bench, name, labels in missing[:10]:
            print(f"  - {bench} {name} [{label_str(labels)}]")
    if added:
        print(f"\n{len(added)} new metric(s) with no baseline yet.")
    if unit_changed:
        print(f"\n{len(unit_changed)} metric(s) with a unit changed "
              "(not compared):")
        for (bench, name, labels), old_unit, unit in unit_changed:
            print(f"  - {bench} {name} [{label_str(labels)}]: "
                  f"{old_unit!r} -> {unit!r}")

    print(f"\ncompared {compared} directional metric(s) (medians): "
          f"{len(failures)} hard failure(s), "
          f"{len(regressions)} warn-band regression(s) beyond "
          f"{args.threshold:.0%}, {improvements} improvement(s)")
    if regressions:
        print("\nPERF REGRESSION WARNING — worse than the previous run:")
        for (bench, name, labels), old, new, delta in regressions:
            print(f"  {bench} {name} [{label_str(labels)}]: "
                  f"{old:.1f} -> {new:.1f} ({delta:+.1%})")
    if failures:
        print(f"\nPERF GATE FAILURE — median moved beyond "
              f"{args.fail_threshold:.0%}:")
        for (bench, name, labels), old, new, delta in failures:
            print(f"  {bench} {name} [{label_str(labels)}]: "
                  f"{old:.1f} -> {new:.1f} ({delta:+.1%})")
        return 1
    if regressions and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
