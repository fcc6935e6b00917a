#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload burst-tcp --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache go to $CARGO_TARGET_DIR, or to
# .bench_build when that is unset, so nothing is written outside the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
