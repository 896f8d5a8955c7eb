"""Outside-in correctness checks on what one CLI call left behind.

The program is judged only by its exit code, its stdout and the CSVs it
wrote: every CSV is parsed, its data-row count compared with the
generated config, every value checked to be finite, and its SHA-256
taken so a later repeat (or another commit) can be compared byte for
byte.  Two honesty counters are read from the rows as counts, not
failures.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

TEXT_COLUMNS = {"pert_kind", "attack_kind", "scheme"}


def read_csv(path):
    """(header, rows) of a report CSV, skipping its `#` comment lines."""
    with open(path, newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    table = list(csv.reader(lines))
    if not table:
        raise ValueError("no header line")
    return table[0], table[1:]


def _non_finite(header, rows):
    """Problems with cells that are not finite numbers in numeric columns."""
    bad = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            bad.append(f"row {i} has {len(row)} fields, header has {len(header)}")
            continue
        for col, cell in zip(header, row):
            if col in TEXT_COLUMNS:
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                bad.append(f"row {i} {col}={cell!r} is not a finite number")
    return bad


def _column(header, rows, name):
    if name not in header:
        return None
    j = header.index(name)
    return [float(r[j]) for r in rows]


def check_call(call, exit_code, stdout_text):
    """Return (problems, digests, counters) for one finished call."""
    problems, digests = [], {}
    counters = {"lower_bound_violations": 0, "diverged_rows": 0}
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if call.runner == "validate":
        lines = [ln for ln in stdout_text.splitlines() if ln.strip()]
        if not lines:
            problems.append("validate printed no checks")
        problems += [f"validate: {ln}" for ln in lines if not ln.startswith("PASS ")]
        return problems, digests, counters
    out_dir = call.config["output_dir"]
    tables = {}
    for name, expected in call.csv_rows.items():
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
            header, rows = read_csv(path)
        except (OSError, ValueError) as e:
            problems.append(f"{name}: {e}")
            continue
        tables[name] = (header, rows)
        if expected is not None and len(rows) != expected:
            problems.append(f"{name}: {len(rows)} rows, expected {expected}")
        problems += [f"{name}: {p}" for p in _non_finite(header, rows)]
    if not problems and "fairness_classes.csv" in tables:
        problems += _check_fairness_classes(tables)
    if problems:
        return problems, digests, counters
    for header, rows in tables.values():
        lower, exact = _column(header, rows, "i2f_lower_bound"), _column(header, rows, "i2f_exact")
        if lower is not None and exact is not None:
            counters["lower_bound_violations"] += sum(lb > ex for lb, ex in zip(lower, exact))
        l2 = _column(header, rows, "attack_l2")
        if l2 is not None:
            counters["diverged_rows"] += sum(v > math.sqrt(call.d_x) for v in l2)
    return problems, digests, counters


def _check_fairness_classes(tables):
    """One class row per distinct sample label, with counts adding up."""
    s_header, s_rows = tables["fairness_samples.csv"]
    c_header, c_rows = tables["fairness_classes.csv"]
    labels = {r[s_header.index("label")] for r in s_rows}
    problems = []
    if len(c_rows) != len(labels):
        problems.append(f"fairness_classes.csv: {len(c_rows)} rows for {len(labels)} labels")
    total = sum(int(r[c_header.index("count")]) for r in c_rows)
    if total != len(s_rows):
        problems.append(f"fairness_classes.csv: counts sum to {total}, not {len(s_rows)}")
    return problems
