#!/usr/bin/env python3
"""scripts/compare_bench.py gates a metric by its unit in the current run.

Usage: compare_bench_units.py <compare_bench.py>

Writes a baseline and a current BENCH_*.json side into a temp directory
for two cases and runs the comparator with --fail-threshold 0.35:

  * a metric whose unit changed (`ratio` 6.0 -> `x` 0.5) is listed as
    "unit changed" and not compared, so the run exits 0;
  * a same-unit `queries/sec` metric that halves fails the run (exit 1).

Exits 1 if either outcome differs.
"""
import json
import pathlib
import subprocess
import sys
import tempfile


def write_side(root, side, name, unit, value):
    directory = pathlib.Path(root) / side
    directory.mkdir()
    doc = {"bench": "probe",
           "metrics": [{"name": name, "unit": unit, "value": value}]}
    (directory / "BENCH_probe.json").write_text(json.dumps(doc))
    return str(directory)


def compare(script, old, new):
    """Runs the comparator on one (name, unit, value) pair per side."""
    with tempfile.TemporaryDirectory() as root:
        base = write_side(root, "base", *old)
        cur = write_side(root, "cur", *new)
        proc = subprocess.run(
            [sys.executable, script, base, cur, "--fail-threshold", "0.35"],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout


def main():
    script = sys.argv[1]
    failed = False

    code, out = compare(script, ("rebuild_speedup", "ratio", 6.0),
                        ("rebuild_speedup", "x", 0.5))
    if code != 0 or "unit changed" not in out:
        print(f"FAILED: a unit change gave exit {code}, want 0 and a "
              f"'unit changed' line:\n{out}")
        failed = True

    code, out = compare(script, ("qps", "queries/sec", 1000.0),
                        ("qps", "queries/sec", 500.0))
    if code != 1:
        print(f"FAILED: a 50% queries/sec drop gave exit {code}, want 1:\n"
              f"{out}")
        failed = True

    if failed:
        sys.exit(1)
    print("unit change not compared; same-unit 50% drop fails the gate")


if __name__ == "__main__":
    main()
