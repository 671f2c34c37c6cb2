#!/bin/sh
# Builds the benchmark from source in this checkout (release profile,
# into ./_build, without dune's shared cache) and runs it with the given
# arguments, e.g.
#
#   sh perfbench/run.sh --workload archive --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. See perfbench/README.md.
set -e
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --profile release --cache=disabled ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
