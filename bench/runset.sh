#!/usr/bin/env bash
# Records a run set: every workload once per listed seed with --trace 0, and
# once with --trace 1 on the first seed, appended as JSON lines to OUT.
#
#   bash bench/runset.sh bench/results/run-a-seed42.jsonl 42 42 42 42 42
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Repeating a seed gives the run-to-run spread -compare needs to tell a
# change from noise; ten different seeds give the spread the acceptance
# driver checks.
set -euo pipefail
here=$(dirname "${BASH_SOURCE[0]}")
out=$1
shift
seconds=10 # run_seconds of BENCHMARK.json: run sets of other lengths are not comparable
for w in qbe_paper ingest_mixed search_scan search_hot cluster_scan; do
  for seed in "$@"; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
  done
  bash "$here/run.sh" --workload "$w" --seed "$1" --seconds "$seconds" --trace 1 --out "$out" | tail -n 1
done
