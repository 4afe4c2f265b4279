#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one workload.
#
#   bash perfbench/run.sh --workload fuzz --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR, else .bench_build):
# the Go build and module caches, the binary, and the trace dumps.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/traces"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
# What `go telemetry off` writes: no counters, no uploader child process.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

# The benchmark links the library through a replace of "../", so a tree
# holding only the benchmark fails here, before any result is printed.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from the repository root" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2

# Commit stamp: the git revision where there is one, plus a digest of the Go
# sources, which identifies a checkout without git metadata.
digest=$(cd "$root" && find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	\( -name '*.go' -o -name 'go.mod' \) -type f -print | LC_ALL=C sort |
	xargs sha256sum | sha256sum | cut -c1-16)
commit="src:$digest"
if [ -d "$root/.git" ] && rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit="git:$rev $commit"
fi

exec env PERFBENCH_COMMIT="$commit" "$build/perfbench" -out "$build/traces" "$@"
