#!/usr/bin/env python3
"""Prometheus exposition guard.

Validates the text body served by `cfdprop serve --metrics-port P` at
GET /metrics (equivalently, the string from Serve.Server.prometheus)
against the text exposition format, line by line:

  * every non-comment line is `name{labels} value` or `name value`;
  * metric names match [a-zA-Z_:][a-zA-Z0-9_:]* and carry the cfdprop_
    prefix; label names match [a-zA-Z_][a-zA-Z0-9_]*, label values are
    double-quoted with \\" \\\\ \\n escapes only;
  * values parse as floats (+Inf allowed in histogram `le` labels);
  * every sample's family is declared by a preceding `# TYPE` line, and
    no family is declared twice;
  * per histogram family: `le` bucket counts are non-decreasing with
    increasing bound, a `+Inf` bucket exists, and `_count` equals the
    `+Inf` bucket's count for the same label set;
  * per summary family: `_count` and `_sum` both present.

On top of syntax, the serve telemetry families the scrape exists for
must be present (REQUIRED_FAMILIES below) — a valid-but-empty body
means the serve instrumentation silently stopped rendering.  That
includes the histogram of the propcover.cover span: opening a session
computes a cover, so its absence means spans stopped reaching the
exposition.

Usage: check_metrics.py METRICS_TXT
Exit status: 0 = valid, 1 = malformed or missing families.
"""

import re
import sys

REQUIRED_FAMILIES = (
    ("cfdprop_serve_requests_total", "counter"),
    ("cfdprop_serve_req_us", "histogram"),
    ("cfdprop_serve_op_req_us", "histogram"),
    ("cfdprop_propcover_cover", "histogram"),
    ("cfdprop_serve_sessions", "gauge"),
    ("cfdprop_serve_session_epoch", "gauge"),
    ("cfdprop_serve_memo_entries", "gauge"),
    ("cfdprop_serve_trace_dropped", "gauge"),
)

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})?\s+(\S+)$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"')
ALLOWED_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def family_of(name):
    """Strip the component suffixes Prometheus attaches to a family."""
    for suffix in ("_bucket", "_count", "_sum", "_total"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_value(raw):
    if raw in ("+Inf", "-Inf", "NaN"):
        return float(raw.replace("Inf", "inf").replace("NaN", "nan"))
    return float(raw)


def parse_labels(raw, errors, lineno):
    labels = {}
    rest = raw
    while rest:
        m = LABEL_RE.match(rest)
        if not m:
            errors.append(f"  line {lineno}: bad label syntax near {rest!r}")
            return labels
        labels[m.group(1)] = m.group(2)
        rest = rest[m.end() :]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            errors.append(f"  line {lineno}: junk after label: {rest!r}")
            return labels
    return labels


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    path = sys.argv[1]
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        print(f"METRICS GUARD FAILED: cannot read {path}: {exc}", file=sys.stderr)
        return 1

    errors = []
    declared = {}  # family -> type
    samples = []  # (family, name, labels, value, lineno)

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    errors.append(f"  line {lineno}: malformed TYPE line")
                    continue
                family, ftype = parts[2], parts[3]
                if not NAME_RE.match(family):
                    errors.append(f"  line {lineno}: bad family name {family!r}")
                if ftype not in ALLOWED_TYPES:
                    errors.append(f"  line {lineno}: bad type {ftype!r}")
                if family in declared:
                    errors.append(
                        f"  line {lineno}: family {family} declared twice"
                    )
                declared[family] = ftype
            continue  # HELP and free comments pass through
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"  line {lineno}: unparseable sample: {line!r}")
            continue
        name, rawlabels, rawvalue = m.groups()
        labels = parse_labels(rawlabels or "", errors, lineno)
        for lname in labels:
            if not LABEL_NAME_RE.match(lname):
                errors.append(f"  line {lineno}: bad label name {lname!r}")
        try:
            value = parse_value(rawvalue)
        except ValueError:
            errors.append(f"  line {lineno}: bad value {rawvalue!r}")
            continue
        family = family_of(name)
        if family not in declared and name not in declared:
            errors.append(
                f"  line {lineno}: sample {name} has no preceding # TYPE"
            )
            continue
        samples.append((declared.get(family) and family or name,
                        name, labels, value, lineno))
        if not name.startswith("cfdprop_"):
            errors.append(f"  line {lineno}: {name} lacks the cfdprop_ prefix")

    # Histogram discipline: per (family, non-le labels) the bucket
    # counts are cumulative and a +Inf bucket matches _count.
    buckets = {}  # (family, labelkey) -> [(le, count)]
    counts = {}  # (family, labelkey) -> count
    for family, name, labels, value, lineno in samples:
        ftype = declared.get(family)
        labelkey = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        if ftype == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                errors.append(f"  line {lineno}: {name} bucket without le")
                continue
            buckets.setdefault((family, labelkey), []).append(
                (parse_value(labels["le"]), value)
            )
        elif ftype == "histogram" and name.endswith("_count"):
            counts[(family, labelkey)] = value
        elif ftype == "summary" and name.endswith("_count"):
            counts[(family, labelkey)] = value
    for key, series in buckets.items():
        family, labelkey = key
        ordered = sorted(series)
        for (lo_le, lo_c), (hi_le, hi_c) in zip(ordered, ordered[1:]):
            if hi_c < lo_c:
                errors.append(
                    f"  {family}{dict(labelkey)}: bucket counts decrease "
                    f"(le={lo_le}:{lo_c} -> le={hi_le}:{hi_c})"
                )
        if not ordered or ordered[-1][0] != float("inf"):
            errors.append(f"  {family}{dict(labelkey)}: no +Inf bucket")
        elif key in counts and counts[key] != ordered[-1][1]:
            errors.append(
                f"  {family}{dict(labelkey)}: _count {counts[key]} != "
                f"+Inf bucket {ordered[-1][1]}"
            )
        elif key not in counts:
            errors.append(f"  {family}{dict(labelkey)}: histogram without _count")
    for family, ftype in declared.items():
        if ftype == "summary":
            names = {n for f, n, *_ in samples if f == family}
            if f"{family}_count" not in names or f"{family}_sum" not in names:
                errors.append(f"  {family}: summary missing _count or _sum")

    present = {f for f, *_ in samples} | set(declared)
    for family, ftype in REQUIRED_FAMILIES:
        if family not in declared:
            errors.append(f"  required family {family} absent")
        elif declared[family] != ftype:
            errors.append(
                f"  required family {family}: expected {ftype}, "
                f"declared {declared[family]}"
            )
        elif not any(f == family for f, *_ in samples):
            errors.append(f"  required family {family} declared but empty")

    if errors:
        print(f"METRICS GUARD FAILED: {path}", file=sys.stderr)
        print("\n".join(errors), file=sys.stderr)
        return 1

    print(
        f"metrics guard OK: {len(samples)} sample(s), "
        f"{len(declared)} famil(ies), "
        f"{sum(1 for f, _ in REQUIRED_FAMILIES if f in present)} required present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
