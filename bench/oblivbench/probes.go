package main

import (
	"math/rand"
	"time"

	"oblivhm/internal/core"
	"oblivhm/internal/harness"
	"oblivhm/internal/hm"
)

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 3

// probes measures single layers by calling them directly: the hm cache
// walk on a sequential and a random access stream, and the engine's round
// loop on tick-only fork-join work (the pattern of the RoundLoop
// microbenchmarks), which leaves memory and caches idle.
func probes(m map[string]sample, sz sizes, seed int64) error {
	words := 4 * sz.probeWords
	seq, err := probeHM("hm4", words, words, func(mach *hm.Machine) {
		for a := hm.Addr(0); a < hm.Addr(words); a++ {
			mach.Load(0, a)
		}
	})
	if err != nil {
		return err
	}
	m["hm.probe.seq_ns"] = seq

	// Loads and stores alternate, round-robin over the cores, so that the
	// stores invalidate copies other cores hold.
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]hm.Addr, sz.probeWords)
	for k := range addrs {
		addrs[k] = hm.Addr(rng.Intn(sz.probeWords))
	}
	rnd, err := probeHM("mc3", sz.probeWords, len(addrs), func(mach *hm.Machine) {
		cores := mach.Cores()
		for k, a := range addrs {
			if k%2 == 0 {
				mach.Load(k%cores, a)
			} else {
				mach.Store(k%cores, a, uint64(k))
			}
		}
	})
	if err != nil {
		return err
	}
	m["hm.probe.rand_ns"] = rnd

	var perStep, perTask []float64
	for r := 0; r < probeReps; r++ {
		sec, steps, err := probeRounds(64, 2048)
		if err != nil {
			return err
		}
		perStep = append(perStep, sec/float64(steps)*1e9)
		sec, _, err = probeRounds(1024, 16)
		if err != nil {
			return err
		}
		perTask = append(perTask, sec/1024*1e6)
	}
	m["core.probe.ns_per_vstep"] = medianOf(perStep)
	m["core.probe.us_per_task"] = medianOf(perTask)
	return nil
}

// probeHM returns the nanoseconds per access of stream, which issues
// accesses loads and stores to a fresh machine with words allocated.
func probeHM(machine string, words, accesses int, stream func(*hm.Machine)) (sample, error) {
	cfg, err := harness.Machine(machine)
	if err != nil {
		return sample{}, err
	}
	mach, err := hm.NewMachine(cfg)
	if err != nil {
		return sample{}, err
	}
	mach.Alloc(int64(words))
	var ns []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		stream(mach)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(accesses))
	}
	return medianOf(ns), nil
}

// probeRounds runs tasks tick-only tasks of ticks ticks each on hm4 and
// returns the host seconds and virtual steps.
func probeRounds(tasks, ticks int) (float64, int64, error) {
	s, err := newSession("hm4", serial, nil)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	st, err := s.TryRun(1<<16, func(c *core.Ctx) {
		c.SpawnCGCSB(1<<10, tasks, func(cc *core.Ctx, _ int) {
			for k := 0; k < ticks; k++ {
				cc.Tick(4)
			}
		})
	})
	return time.Since(t0).Seconds(), st.Steps, err
}
