// Command sweep is the controlled-experiment engine: it expands a JSON
// spec into a grid of (algorithm, machine, size, seed, options) configs,
// fans the runs out across worker goroutines, and streams one JSONL row per
// run in grid order, byte-identical for every worker count, because each
// run is an independent deterministic simulation whose row waits in its
// grid cell's slot until every earlier row is written.  The progress line
// on stderr counts written rows.
//
// Usage:
//
//	sweep -spec specs/sb_vs_flat.json [-out results.jsonl] [-workers N]
//	      [-resume] [-hypothesis] [-quiet]
//
// With -resume, rows whose config hash is already present in -out are
// skipped and the file is appended to, so a killed sweep picks up where it
// stopped.  With -hypothesis, the spec's declared predictions are evaluated
// over the full row set (resumed rows included) after the sweep finishes;
// any failing hypothesis makes the process exit 1, so a sweep run is a
// CI-gateable experiment.
//
// Grids can put failure-injection option sets (failstop1, straggler2x,
// faulty) on the options axis; rows then carry degraded-mode columns
// (deadCores, migrated, reexec, reexecFrac) and a "survivability"
// hypothesis can bound the degraded/healthy metric ratio — see
// specs/survivability.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"oblivhm/internal/sweep"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "path to the sweep spec (JSON, required)")
		outPath    = flag.String("out", "", "output file (default stdout)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent runs (output is identical for any value)")
		resume     = flag.Bool("resume", false, "skip configs already present in -out and append")
		hypothesis = flag.Bool("hypothesis", false, "evaluate the spec's hypotheses after the sweep; exit 1 on any failure")
		quiet      = flag.Bool("quiet", false, "suppress progress reporting on stderr")
	)
	flag.Parse()
	if err := run(*specPath, *outPath, *workers, *resume, *hypothesis, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(specPath, outPath string, workers int, resume, hypothesis, quiet bool) error {
	if specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	spec, err := sweep.Parse(data)
	if err != nil {
		return err
	}
	grid := sweep.Expand(spec)

	// Resume: recover the completed set (and its rows, for hypothesis
	// evaluation) from the existing output file.
	var done map[string]bool
	var prior []sweep.Row
	if resume {
		if outPath == "" {
			return fmt.Errorf("-resume needs -out")
		}
		if f, err := os.Open(outPath); err == nil {
			done, prior, err = sweep.ReadDone(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("reading %s for resume: %w", outPath, err)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
	}

	var out io.Writer = os.Stdout
	if outPath != "" {
		flags := os.O_CREATE | os.O_WRONLY
		if resume {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(outPath, flags, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := sweep.NewJSONLWriter(out)

	if !quiet {
		fmt.Fprintf(os.Stderr, "sweep %s: %d configs (%d done), workers=%d\n",
			name(spec.Name, specPath), len(grid), len(done), workers)
	}
	start := time.Now()
	var rows []sweep.Row
	opts := sweep.RunnerOpts{Workers: workers, Done: done}
	if !quiet {
		opts.Progress = func(finished, total int) {
			el := time.Since(start).Seconds()
			rate := float64(finished) / el
			fmt.Fprintf(os.Stderr, "\r%d/%d runs (%.1f runs/s, %.0fs elapsed)", finished, total, rate, el)
			if finished == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	err = sweep.Run(spec, opts, func(r sweep.Row) error {
		rows = append(rows, r)
		return w.Write(r)
	})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}

	failures := 0
	if hypothesis {
		all := append(prior, rows...)
		verdicts := sweep.Evaluate(spec, all)
		if len(verdicts) == 0 {
			fmt.Fprintln(os.Stderr, "sweep: -hypothesis set but the spec declares no hypotheses")
		}
		for _, v := range verdicts {
			fmt.Println(v)
			if !v.Pass {
				failures++
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d hypothesis(es) failed", failures)
	}
	return nil
}

func name(specName, path string) string {
	if specName != "" {
		return specName
	}
	return path
}
