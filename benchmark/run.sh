#!/usr/bin/env bash
# Build the benchmark from source and run it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload verify --seed 1 --seconds 20 --trace 0
#
# Arguments go to benchmark/main.exe (see benchmark/README.md). The build
# stays inside the checkout: _build, no shared dune cache, and the
# compiler's temporary files under _build/tmp.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "benchmark: no dune-project here; run from the root of a full checkout" >&2
  exit 2
fi
export TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
