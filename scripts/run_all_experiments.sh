#!/bin/sh
# Full desk-scale experiment suite; writes CSVs (and PGM dumps) under out/.
# About 5 minutes on a 2-core x86_64 host.  Individual runs below can be
# invoked on their own; every one accepts --seed/--out/--limit overrides.
set -e
cd "$(dirname "$0")/.."

gradleak validate

gradleak audit         --config scripts/configs/audit_linear.json
gradleak audit         --config scripts/configs/audit_lenet.json
gradleak audit         --config scripts/configs/training_dynamics_mlp.json --out out/training_dynamics
gradleak eigen-defense --config scripts/configs/eigen_defense_lenet.json
gradleak init-compare  --config scripts/configs/init_compare_lenet.json
gradleak fairness      --config scripts/configs/fairness_lenet.json
gradleak efficiency    --config scripts/configs/efficiency_lenet.json
gradleak spectrum      --config scripts/configs/audit_lenet.json --out out/spectrum --limit 3
