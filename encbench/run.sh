#!/usr/bin/env bash
# Builds the encnvm benchmark from this checkout and runs it, from the
# repository root:
#
#   bash encbench/run.sh --workload campaign --seed 42 --seconds 30 --trace 0
#
# The binary, the Go build cache, the go command's own config and
# telemetry files, and the traced run's spans go under .bench_build/ in
# the checkout. The build fails, and the script exits non-zero without a
# result, when the checkout lacks encnvm's sources.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/encbench" .) >&2
cd "$root"
exec "$out/encbench" --root "$root" --spans "$out/spans.jsonl" "$@"
