# oblivhm — reproduction of "Oblivious Algorithms for Multicores and
# Network of Processors" (IPDPS 2010).  Stdlib-only; Go >= 1.22.

GO ?= go

.PHONY: all test bench bench-smoke bench-check tables examples vet oblivcheck trace-check lint cover race race-parallel failure-sweep fuzz soak profile profile-rounds sweep sweep-smoke clean

all: vet test

test:
	$(GO) test ./...

# gofmt -l exits 0 even when it lists files, so check its output explicitly
# instead of relying on the && short-circuit.
vet:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# Build the repo's vettool and run the oblivcheck suite (obliviousness,
# determinism, hint hygiene, data-obliviousness, speculation safety) over
# every package.  See DESIGN.md §9.
oblivcheck:
	$(GO) build -o bin/oblivcheck ./cmd/oblivcheck
	$(GO) vet -vettool=$(CURDIR)/bin/oblivcheck ./...

# Trace-equality gate, the dynamic half of the data-obliviousness
# enforcement (DESIGN.md §9): every kernel in an //oblivcheck:dataoblivious
# package must produce an identical memory-access trace on two different
# random inputs of the same shape, the value-dependent kernels (sort,
# listrank) must not, and an injected secret-dependent branch must be
# caught.  Run under the race detector.
trace-check:
	$(GO) test -race -run 'TestTrace' -count=1 ./internal/harness ./internal/hm

# One-shot static-check entry point: formatting + go vet + oblivcheck, plus
# staticcheck when it is installed (CI pins and installs it; local trees
# without the binary still get the full in-repo suite).
lint: vet oblivcheck
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping (CI runs it)"; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over the E-series benches, serial then under the
# parallel-rounds backend: a cheap crash/divergence gate
# (OBLIVHM_PARALLEL_ROUNDS makes benchMO verify the parallel metrics against
# an untimed serial reference), not a timing run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'E[0-9]' -benchtime 1x .
	OBLIVHM_PARALLEL_ROUNDS=4 $(GO) test -run '^$$' -bench 'E[0-9]' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'RoundLoop' -benchtime 1x .

# The benchmark module (bench/, its own go.mod) builds against the simulator
# one directory up; its tests prove it still builds and runs against the
# current API, including the deprecated core.WithParallel forward and the
# par2/pr2par2 option-set names it still uses.
bench-check:
	cd bench && $(GO) test ./...

# Regenerate the paper's Table I / Table II / ablation measurements
# (EXPERIMENTS.md records a captured run).
tables:
	$(GO) run ./cmd/tables

tables-quick:
	$(GO) run ./cmd/tables -quick

# Run a declared experiment grid through the sweep engine and evaluate its
# hypotheses (exit 1 on any failing verdict).  Override SPEC for other
# grids, e.g. SPEC=specs/chaos_stability.json.
SPEC ?= specs/sb_vs_flat.json
sweep:
	$(GO) run ./cmd/sweep -spec $(SPEC) -hypothesis

# CI gate: a tiny spec end to end with -hypothesis, then the same grid at
# workers=1 vs workers=4 — the JSONL streams must be byte-identical (the
# determinism contract extended to the sweep layer).
sweep-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/sweep -spec specs/smoke.json -hypothesis -quiet -workers 4 -out bin/smoke_w4.jsonl
	$(GO) run ./cmd/sweep -spec specs/smoke.json -hypothesis -quiet -workers 1 -out bin/smoke_w1.jsonl
	cmp bin/smoke_w1.jsonl bin/smoke_w4.jsonl

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/apsp
	$(GO) run ./examples/signal
	$(GO) run ./examples/netgraph
	$(GO) run ./examples/solver

cover:
	$(GO) test -cover ./internal/...

# Race-check the engine, the golden-metrics layer and the sweep runner
# (the packages with real concurrency: strand goroutines, the native
# executor, and the sweep worker pool incl. the rebased cmd/tables).
race:
	$(GO) test -race ./internal/core/... ./internal/harness/... ./internal/sweep ./cmd/tables

# Race-check the parallel-rounds backend end to end (DESIGN.md §11):
# concurrent fan-in recording in the machine, engine-level schedule
# equivalence against the serial and reference engines, and the harness
# golden matrix + chaos sweep, all with real speculator threads underneath.
race-parallel:
	$(GO) test -race -run 'ParallelRounds|ParallelFanEpoch' ./internal/hm ./internal/core ./internal/harness

# Failure-injection gate: the seeded kill/straggler/cache-fault suite and
# the 16-seed failure sweep over the golden matrix under the race detector,
# then the checked-in survivability spec end to end through the hypothesis
# harness (exit 1 unless SB provably survives one core loss within 2x).
failure-sweep:
	$(GO) test -race -run 'Failure|Watchdog|Recovery|Fault|Survivab' ./internal/core ./internal/harness ./internal/hm ./internal/sweep
	$(GO) run ./cmd/sweep -spec specs/survivability.json -hypothesis -quiet

# Chaos soak: randomized algo × machine × n sweep under seeded fault
# injection with runtime invariants and the race detector, plus interleaved
# chaos-off determinism probes and failure-plan outcome probes (disable the
# latter with `go run ./cmd/soak -failures=false`).  SOAKTIME=10m for
# longer runs.
SOAKTIME ?= 60s
soak:
	$(GO) run -race ./cmd/soak -duration=$(SOAKTIME) -failures

# Short native fuzz runs: the SPMS sorter and the prefix scan against
# their sequential specifications, and the sweep-spec parser against its
# typed-error contract.  FUZZTIME=1m fuzz for longer runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzSPMSSort -fuzztime=$(FUZZTIME) ./internal/spms
	$(GO) test -fuzz=FuzzScan -fuzztime=$(FUZZTIME) ./internal/scan
	$(GO) test -fuzz=FuzzSweepSpec -fuzztime=$(FUZZTIME) ./internal/sweep

# Flame-graph starting point for perf work: profile a representative
# simulated run.  Override PROFILE_ARGS for other workloads, e.g.
# PROFILE_ARGS="-algo mm -machine mc3 -n 16384 -parallel-rounds 4 -repeat 5".
PROFILE_ARGS ?= -algo sort -machine hm4 -n 8192 -repeat 10
profile:
	$(GO) run ./cmd/hmsim $(PROFILE_ARGS) -cpuprofile cpu.out -memprofile mem.out
	@echo "inspect with: $(GO) tool pprof -top cpu.out   (or -http=:8080)"

# Re-measure the scheduler residue (DESIGN.md §11, BENCH_PR*.json): serial
# cpuprofiles of the five workloads the bench records track, then the
# cumulative share of core.(*engine).loop from each — the fraction of the
# run that stays serial under the parallel-rounds backend.
profile-rounds:
	@mkdir -p bin
	$(GO) build -o bin/hmsim ./cmd/hmsim
	bin/hmsim -algo scan -machine hm4 -n 16384 -repeat 20 -cpuprofile bin/rounds_scan.out
	bin/hmsim -algo mm   -machine mc3 -n 4096  -repeat 20 -cpuprofile bin/rounds_mm.out
	bin/hmsim -algo fft  -machine hm4 -n 4096  -repeat 20 -cpuprofile bin/rounds_fft.out
	bin/hmsim -algo sort -machine hm4 -n 8192  -repeat 20 -cpuprofile bin/rounds_sort.out
	bin/hmsim -algo lr   -machine mc3 -n 1024  -repeat 20 -cpuprofile bin/rounds_lr.out
	@for f in scan mm fft sort lr; do \
		echo "== $$f: cum%% of core.(*engine).loop =="; \
		$(GO) tool pprof -top -nodefraction=0 bin/hmsim bin/rounds_$$f.out 2>/dev/null \
			| grep -E '\(\*engine\)\.loop$$' || echo "  (not sampled)"; \
	done

clean:
	rm -f test_output.txt bench_output.txt cpu.out mem.out
	rm -rf bin
