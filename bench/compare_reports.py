#!/usr/bin/env python3
"""Compare two run reports (or bench documents) and fail on regressions.

Usage: compare_reports.py BASELINE.json CURRENT.json
           [--max-wall-regress F] [--max-mem-regress F] [--min-wall-ms M]

The postmortem/regression half of the observability tooling: CI checks a
fresh report against a checked-in baseline and exits 1 when wall time or
peak memory regressed beyond the threshold factors. Two document shapes
are auto-detected from their content (both inputs must be the same
shape):

  * bench documents ("benchmark": "bench_gpo_intern"): rows are matched
    by model; the compared walls are seed_wall_ms (the explicit oracle)
    and gpo_wall_ms (the gpo engine), the compared memory is
    peak_rss_bytes.
  * run reports (bench/report_schema.json): engines[] entries are
    matched by (engine, model) and compared on seconds; jobs[] entries
    are matched by model and compared on seconds; memory is
    memory.peak_rss_bytes.

A wall measurement counts as a regression iff
    current > baseline * (1 + max_wall_regress)  AND  current >= min_wall_ms
— the absolute floor keeps microsecond-scale timings (pure scheduler
noise) from tripping the ratio test. Memory has no floor; RSS is stable.
Rows present on only one side are reported but never fail the
comparison: baselines age as the model set grows, and a missing row is a
coverage question for the schema validator, not a perf regression.

Thresholds default generously (wall 3.0 = 4x, mem 0.5 = 1.5x) because CI
runners vary wildly; tighten with the flags for controlled hardware.
Exit status: 0 = no regressions, 1 = regression or bad input, 2 = usage.
"""
import json
import sys
from pathlib import Path


def is_bench(doc):
    return isinstance(doc, dict) and "benchmark" in doc and "models" in doc


def bench_rows(doc):
    """{model: {measure_name: value}} for a bench document."""
    rows = {}
    for row in doc.get("models", []):
        model = row.get("model", "?")
        measures = {}
        for key in ("seed_wall_ms", "gpo_wall_ms"):
            v = row.get(key)
            if isinstance(v, (int, float)) and v > 0:
                measures[key] = float(v)
        rss = row.get("peak_rss_bytes")
        if isinstance(rss, int) and rss > 0:
            measures["peak_rss_bytes"] = float(rss)
        rows[model] = measures
    return rows


def report_rows(doc):
    """{label: {measure_name: value}} for a run report.

    Engine runs are keyed "engine:model" (the same engine can run many
    models in one report), jobs by "job:model"; wall values are converted
    to ms so one --min-wall-ms floor covers both shapes.
    """
    rows = {}
    for er in doc.get("engines", []):
        if er.get("aborted") or er.get("cancelled"):
            continue  # an aborted run's wall is the limit, not a measurement
        label = f'{er.get("engine", "?")}:{er.get("model", "?")}'
        secs = er.get("seconds")
        if isinstance(secs, (int, float)) and secs > 0:
            rows[label] = {"wall_ms": secs * 1000.0}
    for job in doc.get("jobs", []):
        label = f'job:{job.get("model", "?")}'
        secs = job.get("seconds")
        if isinstance(secs, (int, float)) and secs > 0:
            rows[label] = {"wall_ms": secs * 1000.0}
    rss = doc.get("memory", {}).get("peak_rss_bytes")
    if isinstance(rss, int) and rss > 0:
        rows["process"] = {"peak_rss_bytes": float(rss)}
    return rows


def compare(base_rows, cur_rows, max_wall, max_mem, min_wall_ms):
    """Returns (regressions, notes): lists of printable strings."""
    regressions, notes = [], []
    for label in sorted(set(base_rows) | set(cur_rows)):
        if label not in cur_rows:
            notes.append(f"{label}: only in baseline (skipped)")
            continue
        if label not in base_rows:
            notes.append(f"{label}: only in current (skipped)")
            continue
        base, cur = base_rows[label], cur_rows[label]
        for measure in sorted(set(base) | set(cur)):
            if measure not in base or measure not in cur:
                continue
            b, c = base[measure], cur[measure]
            is_mem = measure == "peak_rss_bytes"
            threshold = max_mem if is_mem else max_wall
            limit = b * (1.0 + threshold)
            line = (f"{label} {measure}: baseline {b:.3f} -> current "
                    f"{c:.3f} ({c / b:.2f}x, limit {1.0 + threshold:.2f}x)")
            if c > limit and (is_mem or c >= min_wall_ms):
                regressions.append(line)
            else:
                notes.append(line + " ok")
    return regressions, notes


def main(argv):
    args = []
    max_wall, max_mem, min_wall_ms = 3.0, 0.5, 100.0
    it = iter(argv[1:])
    try:
        for a in it:
            if a == "--max-wall-regress":
                max_wall = float(next(it))
            elif a == "--max-mem-regress":
                max_mem = float(next(it))
            elif a == "--min-wall-ms":
                min_wall_ms = float(next(it))
            elif a.startswith("--"):
                raise ValueError(f"unknown flag {a}")
            else:
                args.append(a)
    except (StopIteration, ValueError) as e:
        print(f"error: {e}\n\n{__doc__.strip()}", file=sys.stderr)
        return 2
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        base = json.loads(Path(args[0]).read_text())
        cur = json.loads(Path(args[1]).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if is_bench(base) != is_bench(cur):
        print("error: baseline and current are different document shapes "
              "(bench vs run report)", file=sys.stderr)
        return 1
    extract = bench_rows if is_bench(base) else report_rows
    base_rows, cur_rows = extract(base), extract(cur)
    if not base_rows or not cur_rows:
        print("error: nothing to compare (no timed rows found)",
              file=sys.stderr)
        return 1
    regressions, notes = compare(base_rows, cur_rows, max_wall, max_mem,
                                 min_wall_ms)
    for n in notes:
        print(f"  {n}")
    if regressions:
        for r in regressions:
            print(f"REGRESSION {r}", file=sys.stderr)
        print(f"{len(regressions)} regression(s) vs {args[0]}",
              file=sys.stderr)
        return 1
    print(f"{args[1]}: no regressions vs {args[0]} "
          f"({len(base_rows)} rows, wall limit {1.0 + max_wall:.2f}x, "
          f"mem limit {1.0 + max_mem:.2f}x, floor {min_wall_ms:g} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
