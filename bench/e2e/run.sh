#!/usr/bin/env bash
# Builds bench/e2e/main.exe from source and runs it with the given
# arguments.  Run from the repository root:
#
#   bash bench/e2e/run.sh --workload pairs --seed 1 --seconds 10 --trace 0
#
# The dune cache is disabled so the build reads and writes only inside
# the checkout (_build/).  Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
exec dune exec --root . --no-print-directory --display quiet --cache disabled bench/e2e/main.exe -- "$@"
