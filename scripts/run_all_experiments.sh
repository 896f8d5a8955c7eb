#!/bin/sh
# Full desk-scale experiment suite; writes CSVs (and PGM dumps) under out/.
# About 5 minutes on a 2-core x86_64 host.  Individual runs below can be
# invoked on their own; every one accepts --seed/--out/--limit overrides.
#
#   scripts/run_all_experiments.sh [OUT_ROOT [LIMIT]]
#
# OUT_ROOT writes run <name> to OUT_ROOT/<name> (validate's report to
# OUT_ROOT/validate.txt) instead of the configs' output_dir, and LIMIT
# passes --limit LIMIT to every run.  The runs use this checkout's src/,
# so two checkouts run into two OUT_ROOTs compare with
# `python3 scripts/diff_outputs.py OUT_A OUT_B`.
set -e
cd "$(dirname "$0")/.."
OUT_ROOT=$1
LIMIT=$2

gradleak() {
    PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m gradleak "$@"
}

run() {  # run NAME SUBCOMMAND ARGS...
    name=$1
    shift
    gradleak "$@" ${OUT_ROOT:+--out "$OUT_ROOT/$name"} ${LIMIT:+--limit "$LIMIT"}
}

if [ -n "$OUT_ROOT" ]; then
    mkdir -p "$OUT_ROOT"
    gradleak validate > "$OUT_ROOT/validate.txt"
else
    gradleak validate
fi

run audit_linear      audit         --config scripts/configs/audit_linear.json
run audit_lenet       audit         --config scripts/configs/audit_lenet.json
run training_dynamics audit         --config scripts/configs/training_dynamics_mlp.json
run eigen_defense     eigen-defense --config scripts/configs/eigen_defense_lenet.json
run init_compare      init-compare  --config scripts/configs/init_compare_lenet.json
run fairness          fairness      --config scripts/configs/fairness_lenet.json
run efficiency        efficiency    --config scripts/configs/efficiency_lenet.json
run spectrum          spectrum      --config scripts/configs/spectrum_lenet.json
