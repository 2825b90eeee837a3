// Command hmsim runs a multicore-oblivious algorithm on a simulated HM
// machine and prints the per-level cache-miss table against the paper's
// Table II prediction.
//
// Usage:
//
//	hmsim -algo fft -n 4096 -machine hm4
//	hmsim -algo gep -n 4096 -machine mc3 -flat   (E13 scheduler ablation)
//	hmsim -algo sort -n 4096 -parallel-rounds 4  (parallel round execution)
//	hmsim -algo mm -n 4096 -repeat 10 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"oblivhm/internal/core"
	"oblivhm/internal/harness"
)

func main() {
	algo := flag.String("algo", "mt", "algorithm: "+strings.Join(harness.MOAlgos(), "|"))
	n := flag.Int("n", 4096, "input size (elements; matrices use side=sqrt(n))")
	machine := flag.String("machine", "hm4", "machine preset: seq|mc3|hm4|hm5")
	flat := flag.Bool("flat", false, "ablation: flat scheduler ignoring shared-cache levels")
	steal := flag.Bool("steal", false, "extension: idle cores steal unstarted strands")
	trace := flag.Bool("trace", false, "print a scheduler trace summary and core timeline")
	quantum := flag.Int64("quantum", 32, "virtual-time quantum (ops per core per round)")
	parRounds := flag.Int("parallel-rounds", 0, "parallel round-execution workers (0 = serial, -1 = GOMAXPROCS); metrics are byte-identical either way")
	repeat := flag.Int("repeat", 1, "run the workload this many times (profiling/timing)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	if *n < 1 {
		usageError("-n %d: input size must be at least 1", *n)
	}
	if *quantum < 1 {
		usageError("-quantum %d: quantum must be at least 1", *quantum)
	}

	var opts []core.Opt
	opts = append(opts, core.WithQuantum(*quantum))
	if *flat {
		opts = append(opts, core.WithFlatScheduler())
	}
	if *steal {
		opts = append(opts, core.WithStealing())
	}
	if *parRounds != 0 {
		w := *parRounds
		if w < 0 {
			w = runtime.GOMAXPROCS(0)
		}
		opts = append(opts, core.WithParallelRounds(w))
	}
	tr := &core.Trace{}
	if *trace {
		opts = append(opts, core.WithTrace(tr))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *repeat < 1 {
		*repeat = 1
	}
	var res harness.MOResult
	var err error
	start := time.Now()
	for i := 0; i < *repeat; i++ {
		res, err = harness.RunMO(*algo, *machine, *n, opts...)
		if err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start)

	fmt.Print(res)
	if *repeat > 1 {
		fmt.Printf("wall-clock: %v total, %v/run over %d runs\n",
			elapsed.Round(time.Millisecond), (elapsed / time.Duration(*repeat)).Round(time.Microsecond), *repeat)
	}
	if *trace {
		cfg, _ := harness.Machine(*machine)
		fmt.Println()
		fmt.Print(tr.Summary())
		fmt.Print(tr.Timeline(cfg.Cores(), 72))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// usageError reports a bad flag value the way the flag package reports a
// malformed flag: message, usage, exit status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmsim:", err)
	os.Exit(1)
}
