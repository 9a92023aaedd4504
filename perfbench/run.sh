#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
# See perfbench/README.md for the workloads and metrics.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perfbench: needs a full source checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
