#!/bin/sh
# Build ricd and the benchmark from this checkout, then run one
# workload:  sh perfbench/run.sh --workload feed --seed 1 --seconds 25 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: the ric sources (dune-project, lib/, bin/) are not here" >&2
  exit 2
fi
dune build --root . --cache=disabled ./bin/ric.exe ./perfbench/ricbench.exe 1>&2
exec ./_build/default/perfbench/ricbench.exe "$@"
