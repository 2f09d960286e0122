"""Serialization helpers: strict JSON, RFC-4180 CSV, config hashing.

Non-finite floats travel as "inf", "-inf" and "nan", so JSON artifacts stay
strict RFC 8259 plain text.
"""

import csv
import hashlib
import json
import math


def jsonable(x):
    """Recursively turn tuples into lists and non-finite floats into strings."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float):
        x = float(x)  # a numpy float64 writes as the plain float
        return x if math.isfinite(x) else str(x)
    return x


def write_json(path, obj):
    with open(path, "w", newline="") as f:
        json.dump(jsonable(obj), f, indent=2, sort_keys=False, allow_nan=False)
        f.write("\n")


def write_csv(path, rows):
    """RFC-4180 CSV (CRLF line endings, quoting as needed); the columns are
    the first row's keys."""
    rows = list(rows)
    fieldnames = list(rows[0].keys()) if rows else []
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fieldnames, quoting=csv.QUOTE_MINIMAL)
        w.writeheader()
        for r in rows:
            w.writerow({k: _cell(r.get(k)) for k in fieldnames})


def _cell(v):
    return "none" if v is None else jsonable(v)


def config_hash(config):
    """sha256 of the canonical JSON form; echoed in summaries for reproducibility."""
    canon = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
