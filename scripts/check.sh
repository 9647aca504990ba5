#!/bin/sh
# Pre-merge gate: vet, build, full tests, the race detector over the
# internal packages, a forced-parallel race pass over the experiment
# worker pool, and a one-iteration compile-and-run smoke over every
# benchmark. Mirrors `make check` for environments without make.
set -eux
cd "$(dirname "$0")/.."
# Formatting gate: every Go file in the tree (root module and
# perfbench) must be gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
go build ./...
go test ./...
go test -race ./internal/...
GOMAXPROCS=2 go test -race ./internal/experiment
GOMAXPROCS=2 go test -race ./internal/net
GOMAXPROCS=2 go test -race ./internal/fault
# Race pass over the sharded event-domain engine: the epoch barrier
# handshake and cross-domain mailbox flushes are the only goroutine
# synchronization in the simulator; drive them hard under the detector.
GOMAXPROCS=4 go test -race -count=1 -run 'TestEngine' ./internal/sim
GOMAXPROCS=4 go test -race -count=1 -run 'TestClusterShard|TestClusterRunOpts' .
go test -run '^$' -bench . -benchtime=1x ./...
# Perf gate, part 1: the fused packet-lifecycle smoke must run, and the
# steady-state loop must stay at zero heap allocations per packet —
# TestAllocsPerPacket measures the steady window directly and fails the
# gate on any per-packet allocation (see alloc_test.go). The same gate
# covers the million-flow engine (TestChurnAllocsPerRequest: 128k
# resident flows churning at zero allocs per request) and the pooled
# fabric benchmarks (link transit and switch forwarding at 0 allocs/op),
# and idle time (TestAllocsPerPacketIdleGaps: bursts 10 ms apart with
# the cores parked in between, parking and waking included).
# TestIdleWorkCount is the deterministic work-count gate: events per
# packet on that bursty host are exact on any machine, so the bound is
# hard.
go test -run '^$' -bench 'BenchmarkPacketLifecycle' -benchtime=1x -benchmem .
go test -run 'TestAllocsPerPacket|TestAllocsPerPacketIdleGaps|TestIdleWorkCount|TestNullPoolByteIdentical|TestChurnAllocsPerRequest' -count=1 .
go test -run '^$' -bench 'BenchmarkLinkTransit|BenchmarkSwitchForward' -benchtime=1x -benchmem ./internal/net
# Observability smoke: run a short traced scenario and validate that
# the Chrome trace and the metrics JSON both parse.
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/idiosim -scenario scenarios/mixed_nfs.json \
    -trace "$obsdir/trace.json" -trace-sample 16 \
    -json "$obsdir/results.json" > /dev/null
go run ./cmd/obscheck "$obsdir/trace.json" "$obsdir/results.json"
# Serial-vs-parallel byte identity of every registered experiment is
# TestRegistryParallelDeterminism in ./cmd/idiosim (run by go test
# above): each quick experiment at -j 1 and -j 2, stdout and CSVs.
# Sharded byte identity of every topology scenario (stdout and
# -stats at -shards 4 against the single-domain golden files) is
# TestGolden in the root package (run by go test above).
# Chaos smoke: the chaos scenario's drained run must hold the pool-leak
# gate: a leak surfaces as the "pkt pool: outstanding=" line, absent
# when healthy.
go run ./cmd/idiosim -scenario scenarios/chaos_recovery.json > "$obsdir/chaos_scenario.txt"
if grep -q "pkt pool: outstanding=" "$obsdir/chaos_scenario.txt"; then
    echo "chaos scenario leaked packets" >&2
    exit 1
fi
# Pool-leak gate after the chaos smokes: the lossy-fabric regression
# test asserts PktPool.Outstanding == 0 with every resilience path hit.
go test -run 'TestLossyFabricNoPoolLeak|TestClusterAllocsPerRequest' -count=1 .
# Perf gate, part 2: compare quick lifecycle runs — the packet loop and
# the million-flow churn loop — against the committed baseline;
# benchjson prints a WARNING for every >10% ns/pkt (or ns/req)
# regression. Advisory, not failing — wall-clock numbers on shared
# machines are too noisy for a hard gate, but the warning lands in the
# check output where a reviewer will see it.
if [ -f BENCH_sim.json ]; then
    go test -run '^$' -bench 'BenchmarkPacketLifecycle|BenchmarkMillionFlowSteadyState' -benchmem -benchtime=3x . > "$obsdir/lifecycle.txt"
    go run ./cmd/benchjson -baseline BENCH_sim.json -o "$obsdir/lifecycle.json" "$obsdir/lifecycle.txt"
fi
