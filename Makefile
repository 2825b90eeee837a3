# oblivhm — reproduction of "Oblivious Algorithms for Multicores and
# Network of Processors" (IPDPS 2010).  Stdlib-only; Go >= 1.23.

GO ?= go

.PHONY: all test bench bench-smoke bench-check tables examples vet oblivcheck trace-check inline-check lint cover race failure-sweep fuzz soak profile sweep sweep-smoke cli-check clean

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
# determinism, hint hygiene, data-obliviousness) over every package.  See
# DESIGN.md §9.
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

# Inlining gate of the access path (DESIGN.md §6).  In internal/hm every
# access becomes a record (record), through the fast path, Machine.TryLoad
# or TryStore, which must inline, or the full path, Load or Store; apply,
# the one consumer of records, walks each through Cache.lookup and
# Cache.touch and every write hit through Machine.write, which must
# inline into it.  In internal/core the budget decrement
# (strand.charge) and the element accessors must inline into their callers,
# and Ctx.LoadU and StoreU must inline the fast path, so that a simulated
# access from algorithm code is one call; and a lockstep turn (runCore)
# reaches the strand's coroutine with no engine call, through deque.front,
# the batched-grant decision (engine.grant), strand.resume and
# failInj.account, which must inline.  Fail, naming the function,
# when the compiler no longer reports one of INLINE_FUNCS as inlinable, or
# no longer inlines the callee of a caller:callee pair of INLINE_CALLS at
# its calls inside the caller in internal/core/ctx.go.
INLINE_FUNCS = '(*Cache).lookup' '(*Cache).touch' 'record' '(*Machine).write' \
	'(*Machine).TryLoad' '(*Machine).TryStore' \
	'(*strand).charge' 'Mat.At' 'Mat.Set' 'F64.At' 'F64.Set' 'I64.At' 'I64.Set' 'U64.At' 'U64.Set' \
	'(*deque).front' '(*engine).grant' '(*strand).resume' '(*failInj).account'
INLINE_CALLS = LoadU:TryLoad StoreU:TryStore
inline-check:
	@out="$$($(GO) build -gcflags=-m ./internal/hm ./internal/core 2>&1)" || { echo "$$out" >&2; exit 1; }; \
	names="$$(printf '%s\n' "$$out" | sed -n 's/^[^ ]*: can inline //p')"; \
	status=0; for f in $(INLINE_FUNCS); do \
		printf '%s\n' "$$names" | grep -qxF -- "$$f" || \
			{ echo "inline-check: $$f is not inlinable any more" >&2; status=1; }; \
	done; \
	for pair in $(INLINE_CALLS); do \
		caller=$${pair%%:*}; callee=$${pair#*:}; \
		lines="$$(awk -v f="$$caller" -v g="$$callee" \
			'/^func /{inside = index($$0, ") " f "(") > 0} inside && index($$0, "." g "(") {print FNR}' \
			internal/core/ctx.go)"; \
		[ -n "$$lines" ] || { echo "inline-check: (*Ctx).$$caller does not call (*Machine).$$callee" >&2; status=1; }; \
		for l in $$lines; do \
			printf '%s\n' "$$out" | grep -q "^internal/core/ctx.go:$$l:[0-9]*: inlining call to hm\.(\*Machine)\.$$callee\$$" || \
				{ echo "inline-check: (*Ctx).$$caller does not inline (*Machine).$$callee any more" >&2; status=1; }; \
		done; \
	done; exit $$status

# One-shot static-check entry point: formatting + go vet + oblivcheck, plus
# staticcheck when it is installed (CI pins and installs it; local trees
# without the binary still get the full in-repo suite).
lint: vet oblivcheck
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping (CI runs it)"; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over the E-series, round-loop, per-access, coroutine
# round-trip and hm cache-walk benches: a cheap crash gate, not a timing run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'E[0-9]' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'RoundLoop|CtxAccess' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'PullRoundTrip' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'Machine' -benchtime 1x ./internal/hm

# The benchmark module (bench/, its own go.mod) builds against the simulator
# one directory up; its tests prove it still builds and runs against the
# current API, including the deprecated no-op core.WithParallel and
# core.WithParallelRounds options it still uses.
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

# Bad-input gate of the three CLIs: each input below must exit non-zero
# without a Go stack trace.  A panic exits 2, as a usage error does, so the
# gate fails on any output line that starts with "panic:" or "goroutine "
# as well as on exit 0.
CLI_BAD = 'hmsim -n 0' 'hmsim -quantum 0' 'hmsim -algo bogus' 'hmsim -machine nope' \
	'hmsim -algo mm -n 512' 'hmsim -algo fft -n 1000' 'hmsim -algo gep -n 484' \
	'nosim -B 0' 'nosim -p 3 -n 1024' 'nosim -algo bogus' 'nosim -algo mt -n 0' \
	'nosim -algo ngep -n 1030 -p 4 -B 2' \
	'sweep' 'sweep -spec /dev/null' 'sweep -spec specs/no-such-spec.json' \
	'sweep -spec specs/smoke.json -format csv'
cli-check:
	@mkdir -p bin
	$(GO) build -o bin/ ./cmd/hmsim ./cmd/nosim ./cmd/sweep
	@status=0; for args in $(CLI_BAD); do \
		if out="$$(bin/$$args 2>&1)"; then \
			echo "cli-check: $$args exited 0" >&2; status=1; \
		elif printf '%s\n' "$$out" | grep -qE '^(panic:|goroutine )'; then \
			echo "cli-check: $$args printed a stack trace:" >&2; echo "$$out" >&2; status=1; \
		fi; \
	done; exit $$status

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/apsp
	$(GO) run ./examples/signal
	$(GO) run ./examples/netgraph
	$(GO) run ./examples/solver

cover:
	$(GO) test -cover ./internal/...

# Race-check the engine, the hm cache walk, the golden-metrics layer and
# the sweep runner: the packages with real concurrency, which are the
# native executor, the hm walker goroutine that applies a run's cache walk
# beside the engine (internal/hm/walker.go), and the sweep worker pool incl.
# the rebased cmd/tables.  The native executor's own tests (a fork's
# join, its panic re-raise and its goroutine tokens) run ten times more,
# since a race there shows only in some interleavings.
race:
	$(GO) test -race ./internal/core/... ./internal/hm ./internal/harness/... ./internal/sweep ./cmd/tables
	$(GO) test -race -count=10 -run '^TestNative' ./internal/core

# Failure-injection gate: the seeded kill/straggler/cache-fault suite and
# the 16-seed failure sweep over the golden matrix under the race detector,
# then the checked-in survivability spec end to end through the hypothesis
# harness (exit 1 unless SB provably survives one core loss within 2x).
failure-sweep:
	$(GO) test -race -run 'Failure|Watchdog|Recovery|Fault|Survivab' ./internal/core ./internal/harness ./internal/hm ./internal/sweep
	$(GO) run ./cmd/sweep -spec specs/survivability.json -hypothesis -quiet

# Chaos soak: FuzzRunConfig under the race detector for SOAKTIME — random
# algo × machine × n × option-set points with seeded chaos (invariants on)
# and seeded failure plans, each run twice and required to repeat exactly.
# SOAKTIME=10m for longer runs.
SOAKTIME ?= 60s
soak:
	$(GO) test -race -run '^$$' -fuzz '^FuzzRunConfig$$' -fuzztime $(SOAKTIME) ./internal/harness

# Short native fuzz runs: the SPMS sorter and the prefix scan against
# their sequential specifications, the sweep-spec parser against its
# typed-error contract, simulated runs against the robustness contract
# (no failure without a failure plan, reruns repeat exactly), and the hm
# cache walk against a naive model of the same machine.
# FUZZTIME=1m fuzz for longer runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz='^FuzzMachine$$' -fuzztime=$(FUZZTIME) ./internal/hm
	$(GO) test -fuzz=FuzzSPMSSort -fuzztime=$(FUZZTIME) ./internal/spms
	$(GO) test -fuzz=FuzzScan -fuzztime=$(FUZZTIME) ./internal/scan
	$(GO) test -fuzz=FuzzSweepSpec -fuzztime=$(FUZZTIME) ./internal/sweep
	$(GO) test -fuzz=FuzzRunConfig -fuzztime=$(FUZZTIME) ./internal/harness

# Flame-graph starting point for perf work: profile a representative
# simulated run.  Override PROFILE_ARGS for other workloads, e.g.
# PROFILE_ARGS="-algo mm -machine mc3 -n 16384 -repeat 5".
PROFILE_ARGS ?= -algo sort -machine hm4 -n 8192 -repeat 10
profile:
	$(GO) run ./cmd/hmsim $(PROFILE_ARGS) -cpuprofile cpu.out -memprofile mem.out
	@echo "inspect with: $(GO) tool pprof -top cpu.out   (or -http=:8080)"

clean:
	rm -f test_output.txt bench_output.txt cpu.out mem.out
	rm -rf bin
