#!/usr/bin/env bash
# Builds stacd and the coalition benchmark from the sources of this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash stacbench/run.sh --workload tour-history --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binaries and
# the per-run policy file.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stacd" || ! -f "$root/stacbench/go.mod" ]]; then
	echo "stacbench: run from the root of a stac checkout (go.mod, cmd/stacd and stacbench/ are needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home" "$build/run"
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root" && go build -o "$build/bin/stacd" ./cmd/stacd) >&2
(cd "$root/stacbench" && go build -o "$build/bin/stacbench" .) >&2

exec "$build/bin/stacbench" -stacd "$build/bin/stacd" -work "$build/run" "$@"
