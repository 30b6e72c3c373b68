#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
