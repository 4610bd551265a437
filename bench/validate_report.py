#!/usr/bin/env python3
"""Validate a run report against bench/report_schema.json.

Usage: validate_report.py REPORT.json [SCHEMA.json]
       validate_report.py --bench BENCH_gpo.json
       validate_report.py --events EVENTS.jsonl

Implements the same JSON-Schema subset as the C++ validator
(src/obs/json.hpp: obs::json::validate): type, required, properties,
items, enum, minimum, additionalProperties, and $ref into #/definitions.
No third-party jsonschema dependency, so CI can run it on a bare runner.
Exit status 0 iff the document validates; errors go to stderr.

--bench validates the bench_gpo_intern output instead (schema_version 5,
field presence/types, every verdicts_match true) and enforces the
checked-in memory gate: the nsdp:6 row's families_bytes (the gpo
engine's ZDD store) must stay under NSDP6_ZDD_BYTES_MAX. The gate is the
regression tripwire for the ZDD family store — measured ~2.6 MB before
the computed table was sized lazily, asserted at 3x headroom, while the
explicit oracle needs ~23 MB on the same model.

--events validates a JSONL event log (`julie --events`, `julie batch
--events`, manifest `events=`): every line parses as a JSON object with
a non-negative integer ts_us that never decreases in file order (the
EventLog stamps under the push mutex, so file order IS timestamp
order), a known event name, an integer job id on job-lifecycle records,
and a name on span records.
"""
import json
import sys
from pathlib import Path

# Memory gate for the ZDD family store (bytes); see module docstring.
NSDP6_ZDD_BYTES_MAX = 8_000_000

# bench_gpo_intern row fields -> required python types (bool checked before
# int: isinstance(True, int) holds in python).
BENCH_ROW_FIELDS = {
    "model": str,
    "states": int,
    "seed_wall_ms": (int, float),
    "gpo_wall_ms": (int, float),
    "speedup": (int, float),
    # Per-phase split of the gpo run: candidate-MCS enumeration vs
    # family-op wall.
    "mcs_enum_ms": (int, float),
    "family_ops_ms": (int, float),
    "op_cache_hit_rate": (int, float),
    "families_bytes": int,
    "zdd_nodes": int,
    "peak_rss_bytes": int,
    "gpo_only": bool,
    "reduce_ms": (int, float),
    "reduced_places": int,
    "reduced_transitions": int,
    "reduced_wall_ms": (int, float),
    "reduced_speedup": (int, float),
    "verdicts_match": bool,
}


def validate_bench(doc):
    """Returns a list of error strings for a bench_gpo_intern document."""
    errors = []
    if doc.get("schema_version") != 5:
        errors.append(f"schema_version {doc.get('schema_version')!r} != 5")
    if doc.get("benchmark") != "bench_gpo_intern":
        errors.append(f"benchmark {doc.get('benchmark')!r}")
    models = doc.get("models")
    if not isinstance(models, list) or not models:
        return errors + ["models: expected non-empty array"]
    for i, row in enumerate(models):
        where = f"models[{i}] ({row.get('model', '?')})"
        for key, ty in BENCH_ROW_FIELDS.items():
            if key not in row:
                errors.append(f"{where}: missing '{key}'")
            elif isinstance(row[key], bool) and ty is not bool:
                errors.append(f"{where}: '{key}' is bool, want {ty}")
            elif not isinstance(row[key], ty):
                errors.append(f"{where}: '{key}' is "
                              f"{type(row[key]).__name__}, want {ty}")
        if not row.get("verdicts_match", False):
            errors.append(f"{where}: verdicts_match is false")
        if row.get("gpo_only") and row.get("seed_wall_ms"):
            errors.append(f"{where}: gpo_only row has oracle timings")
        if row.get("model") == "nsdp:6" and isinstance(
                row.get("families_bytes"), int):
            if row["families_bytes"] > NSDP6_ZDD_BYTES_MAX:
                errors.append(
                    f"{where}: families_bytes "
                    f"{row['families_bytes']} exceeds the memory gate "
                    f"NSDP6_ZDD_BYTES_MAX={NSDP6_ZDD_BYTES_MAX}")
    return errors


def main_bench(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    errors = validate_bench(doc)
    if errors:
        for e in errors:
            print(f"BENCH VIOLATION {e}", file=sys.stderr)
        return 1
    gated = [r for r in doc["models"] if r["model"] == "nsdp:6"]
    gate = (f", nsdp:6 zdd bytes {gated[0]['families_bytes']}"
            f" <= {NSDP6_ZDD_BYTES_MAX}" if gated else "")
    print(f"{path}: valid (schema_version 5, {len(doc['models'])} models, "
          f"all verdicts match{gate})")
    return 0


# Event names the scheduler / tracer sink / EventLog itself can emit.
JOB_EVENTS = {"submitted", "started", "racer-start", "first-answer",
              "cancelled", "finished"}
SPAN_EVENTS = {"span-open", "span-close"}
KNOWN_EVENTS = JOB_EVENTS | SPAN_EVENTS | {"dropped"}


def validate_events(lines):
    """Returns a list of error strings for a JSONL event log."""
    errors = []
    last_ts = -1
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            errors.append(f"line {i}: empty line")
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {i}: not JSON ({e})")
            continue
        if not isinstance(rec, dict):
            errors.append(f"line {i}: expected an object")
            continue
        ts = rec.get("ts_us")
        if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
            errors.append(f"line {i}: ts_us {ts!r} is not a non-negative int")
        elif ts < last_ts:
            errors.append(f"line {i}: ts_us {ts} < previous {last_ts} "
                          f"(log must be monotonic in file order)")
        else:
            last_ts = ts
        ev = rec.get("event")
        if ev not in KNOWN_EVENTS:
            errors.append(f"line {i}: unknown event {ev!r}")
            continue
        if ev in JOB_EVENTS:
            job = rec.get("job")
            if not isinstance(job, int) or isinstance(job, bool) or job < 0:
                errors.append(f"line {i}: {ev}: 'job' {job!r} is not a "
                              f"non-negative int")
        if ev in SPAN_EVENTS and not isinstance(rec.get("name"), str):
            errors.append(f"line {i}: {ev}: missing string 'name'")
    return errors


def main_events(path):
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not lines:
        print(f"error: {path} is empty", file=sys.stderr)
        return 1
    errors = validate_events(lines)
    if errors:
        for e in errors:
            print(f"EVENT-LOG VIOLATION {e}", file=sys.stderr)
        return 1
    print(f"{path}: valid ({len(lines)} events, timestamps monotonic)")
    return 0


def type_ok(schema_type, doc):
    if schema_type == "object":
        return isinstance(doc, dict)
    if schema_type == "array":
        return isinstance(doc, list)
    if schema_type == "string":
        return isinstance(doc, str)
    if schema_type == "boolean":
        return isinstance(doc, bool)
    if schema_type == "integer":
        # Accept 7.0 the way the C++ validator does: an integral double is
        # an integer for schema purposes (json has one number type).
        return (isinstance(doc, int) and not isinstance(doc, bool)) or (
            isinstance(doc, float) and doc == int(doc)
        )
    if schema_type == "number":
        return isinstance(doc, (int, float)) and not isinstance(doc, bool)
    if schema_type == "null":
        return doc is None
    return False


def validate(schema, doc, root, path="$"):
    """Returns a list of error strings (empty iff valid)."""
    if "$ref" in schema:
        ref = schema["$ref"]
        prefix = "#/definitions/"
        if not ref.startswith(prefix):
            return [f"{path}: unsupported $ref '{ref}'"]
        name = ref[len(prefix):]
        target = root.get("definitions", {}).get(name)
        if target is None:
            return [f"{path}: unresolved $ref '{ref}'"]
        return validate(target, doc, root, path)

    errors = []
    if "type" in schema and not type_ok(schema["type"], doc):
        return [f"{path}: expected type {schema['type']}, "
                f"got {type(doc).__name__}"]
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: value {doc!r} not in enum {schema['enum']}")
    if "minimum" in schema and isinstance(doc, (int, float)) \
            and not isinstance(doc, bool) and doc < schema["minimum"]:
        errors.append(f"{path}: {doc} < minimum {schema['minimum']}")
    if isinstance(doc, dict):
        for key in schema.get("required", []):
            if key not in doc:
                errors.append(f"{path}: missing required property '{key}'")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in doc:
                errors += validate(sub, doc[key], root, f"{path}.{key}")
        if schema.get("additionalProperties") is False:
            for key in doc:
                if key not in props:
                    errors.append(f"{path}: unexpected property '{key}'")
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            errors += validate(schema["items"], item, root, f"{path}[{i}]")
    return errors


def main(argv):
    if len(argv) == 3 and argv[1] == "--bench":
        return main_bench(argv[2])
    if len(argv) == 3 and argv[1] == "--events":
        return main_events(argv[2])
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    report_path = Path(argv[1])
    schema_path = (
        Path(argv[2]) if len(argv) == 3
        else Path(__file__).resolve().parent / "report_schema.json"
    )
    try:
        schema = json.loads(schema_path.read_text())
        doc = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    errors = validate(schema, doc, schema)
    if errors:
        for e in errors:
            print(f"SCHEMA VIOLATION {e}", file=sys.stderr)
        return 1
    n = len(doc.get("engines", []))
    jobs = doc.get("jobs", [])
    suffix = f", {len(jobs)} jobs" if jobs else ""
    print(f"{report_path}: valid (schema_version "
          f"{doc.get('schema_version')}, {n} engine runs{suffix})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
