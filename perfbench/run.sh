#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run one
# workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of stdout is the JSON result; build output goes to
# stderr. Everything is built and written inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: the library sources (dune-project, lib/) are not next to perfbench/" >&2
  exit 2
fi
# release profile: no -opaque, so cross-module inlining matches an
# installed build; the shared dune cache would write outside the checkout
DUNE_CACHE=disabled dune build --root . --profile release \
  --build-dir .bench_build ./perfbench/perfbench.exe >&2
exec ./.bench_build/default/perfbench/perfbench.exe "$@"
