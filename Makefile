GO ?= go

.PHONY: check vet build test race bench-smoke bench figures

# check is the full pre-merge gate. It runs scripts/check.sh, the one
# list of vet/build/test/race passes, benchmark smokes, zero-alloc
# gates and end-to-end byte-identity smokes, so the two cannot drift.
check:
	./scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...
	GOMAXPROCS=2 $(GO) test -race ./internal/experiment
	GOMAXPROCS=2 $(GO) test -race ./internal/net

# bench-smoke compiles and runs every benchmark for a single iteration
# so a broken benchmark fails CI without paying full measurement time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench records a measured baseline (3 repetitions, alloc stats) into
# BENCH_sim.json via scripts/bench.sh.
bench:
	./scripts/bench.sh

# figures regenerates every experiment table (reduced-size, CI-friendly).
figures:
	$(GO) run ./cmd/idiosim -exp all -quick
