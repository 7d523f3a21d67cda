#!/usr/bin/env bash
# Builds the benchmark and the acceld daemon from the checkout it is run
# in, then runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload parboil-overhead --seed 1 --seconds 20 --trace 0
#
# Build products and run artefacts go under .bench_build (or
# $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/acceld" ./cmd/acceld
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -acceld "$out/acceld" -out "$out" "$@"
