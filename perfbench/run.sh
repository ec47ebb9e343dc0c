#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload exact-titin --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if ! (cd "$here" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
