#!/bin/bash
# Builds the benchmark into .bench_build/ (inside the checkout this is run
# from) and runs it with the arguments given. Everything the toolchain
# writes — build cache included — stays under .bench_build/, so a run reads
# and writes only inside its checkout.
set -eu
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
