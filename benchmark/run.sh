#!/usr/bin/env bash
# The benchmark's one command: builds it in release mode, then runs it.
#
#   benchmark/run.sh [workload|all] [--seed N] [--runs R] [--out FILE]   every metric, by name
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1       one half, one JSON line
#   benchmark/run.sh compare <a.json> <b.json>
#
# Exits non-zero when an operation's verdict differs from the known
# answer (1), the traced layers do not reconcile (3), or the build fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The program's plain entry points take options from KAROUSOS_*; the
# benchmark measures the defaults.
for name in $(compgen -e); do
  case "$name" in KAROUSOS_*) unset "$name" ;; esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/karousos-benchmark" "$@"
