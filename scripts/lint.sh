#!/usr/bin/env bash
# One-shot lint entrypoint: builds and runs the full static gate that CI
# enforces, in CI's order.
#
#   scripts/lint.sh              # gate the whole tree
#   scripts/lint.sh ./internal/plan/   # gate specific packages
#
# Steps:
#   1. go vet ./...         — standard vet suite (copylocks, atomic,
#                             printf, ...; nilness is an x/tools-only
#                             analyzer and would need network to fetch).
#   2. gofmt -l             — formatting gate.
#   3. sqalpel-vet          — the project analyzers (internal/lint):
#                             mapiterdet, lockmarshal, sqlsemroute,
#                             tracenilalloc, walack. Exit 2 on findings,
#                             1 when a pattern names no package.
#   4. govulncheck          — informational only, skipped when the binary
#                             is not installed (it needs network anyway).
set -u
cd "$(dirname "$0")/.."

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
  targets=("./...")
fi

fail=0

echo "== go vet"
go vet "${targets[@]}" || fail=1

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
  echo "$badfmt"
  echo "gofmt: files above need formatting"
  fail=1
fi

echo "== sqalpel-vet"
mkdir -p bin
go build -o bin/sqalpel-vet ./cmd/sqalpel-vet || exit 1
./bin/sqalpel-vet "${targets[@]}" || fail=1

echo "== govulncheck (informational)"
if command -v govulncheck >/dev/null 2>&1; then
  govulncheck "${targets[@]}" || echo "govulncheck reported findings (non-blocking)"
else
  echo "govulncheck not installed; skipping"
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
