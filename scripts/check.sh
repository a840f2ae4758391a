#!/bin/sh
# Expanded tier-1 gate: vet + build + race-enabled tests + the benchmark
# module's vet and tests + fuzz smoke.
#
# The race run includes the engine-vs-oracle suite
# (internal/analysis/oracle_test.go: a naive one-record-at-a-time
# reference engine against the serial and sharded engines at Bloom bits
# 0, 1 and 10 and batch sizes 1, 16 and 256, decision for decision on the
# serial engine, including across mid-batch promotions, plus one
# submitting goroutine per peer), the goldens that pin the
# paper's figures and the examples' output to the batch loop
# (internal/experiment/testdata, examples/*/testdata), the v5, v9
# and IPFIX encoders' wire bytes (internal/netflow/testdata), the NNS
# v1 model golden and the KOR search's bit-level reference
# (internal/nns: TestGoldenModelFile, TestSearchMatchesReference), the
# cluster-mode e2e suite (cmd/infilterd/cluster_daemon_test.go — two-node snapshot
# convergence against a single-node union daemon, peer-down isolation,
# and the 3-node in-process kill-one test inside a goroutine-leak gate)
# and every goroutine-leak test, so a pass means the sharded pipeline
# is race-clean under concurrent load, batching changes no verdict,
# replication converges without leaking workers, and no background
# worker outlives its Close. benchmark/ is a module of its own that
# compiles against internal/eia, analysis, scan and flowtools, and root
# `go build ./...` cannot see it, so it is vetted and tested here: an API
# deletion that breaks the benchmark fails this gate, not the next
# benchmark run. The fuzz smoke discovers every
# native fuzz target in the module and runs each briefly against fresh
# random inputs on top of the checked-in seed corpus, so new targets are
# picked up without editing this script. Last, it prints the non-test
# Go line count outside benchmark/ — the ROADMAP's "non-test LOC going
# down" figure — and the number of flags `infilterd -h` lists (the
# ROADMAP's one-config-surface figure), so every gate log carries both.
#
# Usage: scripts/check.sh [fuzztime]   (default fuzz smoke: 5s per target)
set -eu
cd "$(dirname "$0")/.."
FUZZTIME="${1:-5s}"

echo "==> go vet ./..."
go vet ./...

# CI pins staticcheck in its lint job; locally it gates only when the
# binary is already on PATH, because the dev container has no network.
if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./..."
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (CI lint job runs it)"
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> benchmark module: go vet + go test"
go -C benchmark vet ./...
go -C benchmark test ./...

echo "==> fuzz smoke (${FUZZTIME} per target)"
# `go test -list` prints each package's matching targets followed by its
# "ok <import-path> ..." line; pair them up into "pkg target" rows.
TARGETS=$(go test -list '^Fuzz' ./... | awk '
	/^Fuzz/   { names[n++] = $1; next }
	$1 == "ok" { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }')
if [ -z "$TARGETS" ]; then
	echo "error: fuzz smoke found no fuzz targets" >&2
	exit 1
fi
echo "$TARGETS" | while read -r pkg target; do
	echo "--> $pkg $target"
	go test -run=NoSuchTest -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg" || exit 1
done

echo "==> all checks passed"
echo "==> non-test Go lines outside benchmark/: $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
# -h exits non-zero by design; the flag lines are the two-space-indented ones.
echo "==> infilterd flags: $(go run ./cmd/infilterd -h 2>&1 | grep -c '^  -' || true)"
