#!/usr/bin/env bash
# The ledger's one command: builds the `pb_ledger` package (offline, in
# release mode) and hands every argument to it. See ledger/README.md.
#
#   ledger/run.sh [--seed N] [--smoke] [--record]   every workload, timed then traced
#   ledger/run.sh repeat [--workload W]             the same build twice, within bounds
#   ledger/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one process
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo's own chatter goes to stderr: the last stdout line is the result.
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
