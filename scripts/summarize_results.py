#!/usr/bin/env python3
"""Condense the CSVs written by run_all_experiments.sh into a few
headline numbers (correlations and orderings that the experiments are
about).  Read-only; safe to run on partial results.  A correlation on
fewer than 3 rows, or a spread over fewer than 2 classes, says nothing,
so it prints as "n/a (N rows)".

    python scripts/summarize_results.py [OUT_ROOT]
"""

import csv
import os
import sys
from collections import defaultdict

import numpy as np


def read(path):
    with open(path) as f:
        rows = [r for r in csv.DictReader(l for l in f if not l.startswith("#"))]
    return rows


def main(argv):
    out = argv[1] if len(argv) > 1 else "out"
    audit = os.path.join(out, "audit_lenet", "audit.csv")
    if os.path.exists(audit):
        rows = read(audit)
        lb = np.array([float(r["i2f_lower_bound"]) for r in rows])
        l2 = np.array([float(r["attack_l2"]) for r in rows])
        r = f"{np.corrcoef(lb, l2)[0, 1]:.3f}" if len(rows) >= 3 else f"n/a ({len(rows)} rows)"
        print(f"audit: {len(rows)} rows, corr(lower bound, attack L2) = {r}")

    eigen = os.path.join(out, "eigen_defense", "eigen_defense.csv")
    if os.path.exists(eigen):
        per = defaultdict(list)
        for r in read(eigen):
            per[r["sample"]].append((float(r["sigma"]), float(r["attack_mse"])))
        mono = sum(1 for v in per.values()
                   if [m for _, m in sorted(v, reverse=True)] == sorted(m for _, m in v))
        print(f"eigen-defense: {mono}/{len(per)} samples with MSE inverse to sigma")

    init = os.path.join(out, "init_compare", "init_compare.csv")
    if os.path.exists(init):
        per = defaultdict(list)
        for r in read(init):
            per[r["scheme"]].append(float(r["attack_mse"]))
        means = {k: np.mean(v) for k, v in per.items()}
        order = sorted(means, key=means.get)
        print("init-compare mean MSE ascending:",
              ", ".join(f"{k}={means[k]:.3f}" for k in order))

    fair = os.path.join(out, "fairness", "fairness_classes.csv")
    if os.path.exists(fair):
        means = [float(r["mean_mse"]) for r in read(fair)]
        spread = (f"{min(means):.3f} .. {max(means):.3f} (ratio {max(means) / min(means):.2f})"
                  if len(means) >= 2 else f"n/a ({len(means)} rows)")
        print(f"fairness: class-mean MSE spread {spread}")


if __name__ == "__main__":
    main(sys.argv)
