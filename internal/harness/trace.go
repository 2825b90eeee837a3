package harness

import (
	"fmt"

	"oblivhm/internal/core"
	"oblivhm/internal/hm"
)

// This file is the dynamic half of the data-obliviousness enforcement
// (DESIGN.md §9): the static `dataoblivious` analyzer proves the absence of
// secret-dependent branches and indexing in annotated packages, and the
// trace-equality harness checks the property it implies at runtime — the
// memory access trace of a data-oblivious kernel is a function of the input
// *shape* only, never the input *values*.  TraceMO runs one (algo, machine,
// n) workload with an explicit data seed under hm trace capture; TraceEqual
// runs it twice on different seeds (identical shape, different values) and
// compares the chained digests.  `make trace-check` gates both directions:
// the annotated kernels must be trace-equal, the value-dependent ones
// (sort, listrank) must not be reported equal by accident.

// TraceResult is one captured run.
type TraceResult struct {
	Algo    string
	Machine string
	N       int
	Seed    int64
	Digest  hm.TraceDigest
}

func (r TraceResult) String() string {
	return fmt.Sprintf("%-8s machine=%-4s n=%-8d seed=%-4d accesses=%-10d trace=%016x",
		r.Algo, r.Machine, r.N, r.Seed, r.Digest.Accesses, r.Digest.Hash)
}

// TraceMO runs the named workload cold on the named machine with inputs
// drawn from the given data seed, capturing the access stream.  Trace
// capture is serial-order only, so no engine options are accepted: the run
// uses the default serial backend.
func TraceMO(algo, machine string, n int, seed int64) (TraceResult, error) {
	cfg, err := Machine(machine)
	if err != nil {
		return TraceResult{}, err
	}
	m, err := hm.NewMachine(cfg)
	if err != nil {
		return TraceResult{}, err
	}
	s := core.NewSim(m)
	m.StartTrace()
	_, _, err = runWorkload(s, algo, n, seed)
	d := m.EndTrace()
	if err != nil {
		return TraceResult{}, err
	}
	return TraceResult{Algo: algo, Machine: machine, N: n, Seed: seed, Digest: d}, nil
}

// TraceEqual runs algo twice on different random data of identical shape
// and reports whether the two access-stream digests match, returning both
// captures for reporting.  Equal digests on a value-dependent kernel would
// be a (vanishingly unlikely) hash collision or a harness bug; unequal
// digests on an //oblivcheck:dataoblivious kernel are a data-obliviousness
// violation the static analyzer missed.
func TraceEqual(algo, machine string, n int, seedA, seedB int64) (equal bool, a, b TraceResult, err error) {
	if seedA == seedB {
		return false, a, b, fmt.Errorf("trace-equality needs two distinct data seeds, got %d twice", seedA)
	}
	a, err = TraceMO(algo, machine, n, seedA)
	if err != nil {
		return false, a, b, err
	}
	b, err = TraceMO(algo, machine, n, seedB)
	if err != nil {
		return false, a, b, err
	}
	return a.Digest == b.Digest, a, b, nil
}

// TraceOblivious lists the workloads whose packages carry the
// //oblivcheck:dataoblivious annotation: these must pass TraceEqual on any
// seed pair.  Kept next to the annotation set by the trace-check test.
func TraceOblivious() []string {
	return []string{"mt", "mt-naive", "scan", "fft", "fft-iter", "mm", "mm-tiled", "gep", "gep-ref"}
}

// TraceValueDependent lists the workloads whose access trace legitimately
// depends on input values — the negative fixtures of the trace gate.
func TraceValueDependent() []string {
	return []string{"sort", "lr", "lr-wyllie"}
}
