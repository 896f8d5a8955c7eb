#!/usr/bin/env python3
"""Compare two output trees file by file, such as two checkouts' runs of
scripts/run_all_experiments.sh OUT_ROOT.

    python3 scripts/diff_outputs.py OLD NEW

For each file under either tree it prints "byte-identical", or for a CSV
the largest relative (and absolute) change in each column that moved,
or for any other file the number of lines that differ.  Relative change
is |new - old| / |old| over the numeric cells of a column (inf where old
is 0 and new is not).  Exits 0 when every file is in both trees and
byte-identical, else 1.
"""

import csv
import math
import os
import sys


def files_under(root):
    out = set()
    for dirpath, _, names in os.walk(root):
        out.update(os.path.relpath(os.path.join(dirpath, n), root) for n in names)
    return out


def read_csv(path):
    """(header, rows) of a report CSV; '#' comment lines are skipped."""
    with open(path, newline="") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    return (rows[0], rows[1:]) if rows else ([], [])


def as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def column_changes(old_rows, new_rows, n_cols):
    """Per column: (max relative change, max absolute change, cells that
    differ, cells whose text differs and is not numeric)."""
    stats = [[0.0, 0.0, 0, 0] for _ in range(n_cols)]
    for old_row, new_row in zip(old_rows, new_rows):
        for j, (a, b) in enumerate(zip(old_row, new_row)):
            if a == b:
                continue
            s = stats[j]
            s[2] += 1
            x, y = as_float(a), as_float(b)
            if x is None or y is None or (math.isnan(x) and math.isnan(y)):
                s[3] += x is None or y is None
                continue
            diff = abs(y - x)
            if math.isnan(diff):  # one side NaN
                diff = math.inf
            s[0] = max(s[0], diff / abs(x) if x != 0 else (0.0 if diff == 0 else math.inf))
            s[1] = max(s[1], diff)
    return stats


def compare_csv(old_path, new_path):
    old_header, old_rows = read_csv(old_path)
    new_header, new_rows = read_csv(new_path)
    if old_header != new_header or len(old_rows) != len(new_rows):
        return [f"  shape differs: {len(old_header)} x {len(old_rows)} columns x rows "
                f"-> {len(new_header)} x {len(new_rows)}"]
    lines = []
    for name, (rel, ab, cells, text) in zip(old_header,
                                            column_changes(old_rows, new_rows, len(old_header))):
        if cells == 0:
            continue
        line = (f"  {name}: max relative {rel:.2e}, max absolute {ab:.2e}, "
                f"in {cells} of {len(old_rows)} rows")
        if text:
            line += f" ({text} non-numeric)"
        lines.append(line)
    return lines or ["  only the comment lines differ"]


def compare_text(old_path, new_path):
    with open(old_path, "rb") as f:
        old = f.read().splitlines()
    with open(new_path, "rb") as f:
        new = f.read().splitlines()
    changed = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    return [f"  {changed} of {max(len(old), len(new))} lines differ"]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_root, new_root = argv[1], argv[2]
    for root in (old_root, new_root):
        if not os.path.isdir(root):
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    old_files, new_files = files_under(old_root), files_under(new_root)
    identical = True
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            print(f"{rel}: only in {old_root if rel in old_files else new_root}")
            identical = False
            continue
        old_path, new_path = os.path.join(old_root, rel), os.path.join(new_root, rel)
        with open(old_path, "rb") as f_old, open(new_path, "rb") as f_new:
            if f_old.read() == f_new.read():
                print(f"{rel}: byte-identical")
                continue
        identical = False
        print(f"{rel}:")
        compare = compare_csv if rel.endswith(".csv") else compare_text
        for line in compare(old_path, new_path):
            print(line)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
