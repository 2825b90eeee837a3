package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"oblivhm/internal/core"
)

const mb = 1 << 20

// minRounds is the fewest serial+pr2 rounds an untraced run measures, however
// short --seconds is.
const minRounds = 3

// minSetup is the least set-up time one setup sample measures.
const minSetup = 0.01 // seconds

// bencher runs one workload's ops and tallies them.
type bencher struct {
	w                 *workload
	seed              int64
	attempted, failed int
	incomplete        bool // some metric went unmeasured
	cal               *calibrator
	cals              []float64 // every calibration's seconds
}

func newBencher(w *workload, seed int64) *bencher {
	return &bencher{w: w, seed: seed, cal: newCalibrator()}
}

// timed is one op with its outcome and timings.  Setup and run seconds are
// scaled to the reference host speed (calibrate.go).
type timed struct {
	op     op
	out    outcome
	setup  float64 // seconds per setup
	run    float64 // seconds
	verify float64 // seconds
	alloc  float64 // bytes allocated by one setup and the run
	ok     bool
}

// fail records a failed op.
func (b *bencher) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "oblivbench: %s: %s\n", b.w.name, fmt.Sprintf(format, args...))
}

// broken records a failure of the benchmark itself rather than of an op,
// such as a metric it could not measure.
func (b *bencher) broken(format string, args ...any) {
	b.incomplete = true
	fmt.Fprintf(os.Stderr, "oblivbench: %s: %s\n", b.w.name, fmt.Sprintf(format, args...))
}

// untimedLabels marks set-up, verification and calibration in CPU profiles,
// so that the traced run attributes only the timed runs to the layers.
var untimedLabels = pprof.Labels("oblivbench", "untimed")

func untimed(f func()) { pprof.Do(context.Background(), untimedLabels, func(context.Context) { f() }) }

// calibrate times a calibration after a collection, so that no garbage
// collector runs alongside it.
func (b *bencher) calibrate() float64 {
	var s float64
	untimed(func() {
		runtime.GC()
		s = b.cal.seconds()
	})
	b.cals = append(b.cals, s)
	return s
}

// do sets up, runs and checks op i under backend be, between two
// calibrations.  Op i draws its inputs from seed+i.  The collection in the
// first calibration gives every op the same heap to start from.
func (b *bencher) do(i int, be backend, tr *core.Trace) timed {
	b.attempted++
	seed := b.seed + int64(i)
	before := b.calibrate()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var t timed
	var err error
	t0 := time.Now()
	untimed(func() { t.op, err = b.w.setup(seed, be, tr) })
	t1 := time.Now()
	if err == nil {
		t.out, err = t.op.run()
	}
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	if err == nil {
		untimed(func() { err = t.op.check() })
	}
	t3 := time.Now()
	if err != nil {
		b.fail("op %d (%s): %v", i, be, err)
		return timed{}
	}
	t.setup, t.run, t.verify = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	t.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	if t.setup < minSetup {
		// A short set-up reads mostly timer and page-fault noise, so it
		// repeats until the repetitions add up to minSetup.
		n, total := 1, t.setup
		s0 := time.Now()
		untimed(func() {
			for err == nil && total < minSetup {
				_, err = b.w.setup(seed, be, tr)
				n++
				total = t.setup + time.Since(s0).Seconds()
			}
		})
		if err != nil {
			b.fail("op %d (%s): %v", i, be, err)
			return timed{}
		}
		t.setup = total / float64(n)
	}
	scale := refCalibration / ((before + b.calibrate()) / 2)
	t.setup *= scale
	t.run *= scale
	t.ok = true
	return t
}

// sameAs records a failure unless t reproduced the reference observables.
func (b *bencher) sameAs(t timed, ref any, what string) {
	if t.ok && !reflect.DeepEqual(t.out.sig, ref) {
		b.fail("%s diverged from the serial op on the same input", what)
	}
}

// measure is the untraced run: one warm-up op, then rounds of one serial and
// one pr2 op on the same input until seconds have passed.  The order of the
// two flips every round, so drift in host speed falls on both alike.
func (b *bencher) measure(seconds float64) map[string]sample {
	warmSig := b.do(0, serial, nil).out.sig

	var setup, runS, pr2S, rate, alloc []float64
	var last timed // the latest serial op, reachable for the live-heap reading
	start := time.Now()
	for r := 1; ; r++ {
		order := []backend{serial, pr2}
		if r%2 == 0 {
			order = []backend{pr2, serial}
		}
		var ser, par timed
		for _, be := range order {
			t := b.do(r, be, nil)
			if !t.ok {
				continue
			}
			setup = append(setup, t.setup)
			if be == serial {
				ser = t
				runS = append(runS, t.run)
				rate = append(rate, float64(t.out.work)/t.run/1e6)
				alloc = append(alloc, t.alloc/mb)
			} else {
				par = t
				pr2S = append(pr2S, t.run)
			}
		}
		if ser.ok {
			b.sameAs(par, ser.out.sig, fmt.Sprintf("pr2 op %d", r))
			if b.w.grid && warmSig != nil {
				b.sameAs(ser, warmSig, fmt.Sprintf("pass %d", r))
			}
			last = ser
		}
		if r >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
	}

	// The heap reading leaves out the calibration buffer, and the second
	// collection empties the sync.Pool victim caches the first one filled.
	b.cal = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(last.op)
	return map[string]sample{
		"sim_maccess_per_s": medianOf(rate),
		"run_s_p50":         medianOf(runS),
		"pr2_run_s_p50":     medianOf(pr2S),
		"setup_s":           medianOf(setup),
		"live_heap_mb":      one(float64(ms.HeapAlloc) / mb),
		"alloc_mb_per_op":   medianOf(alloc),
	}
}

// profiled is what one CPU-profiled phase of the traced run measured.
type profiled struct {
	layerNS map[string]float64 // CPU nanoseconds per layer, summed over the phase
	runs    []float64          // run seconds of each op
	work    int64              // simulated accesses over all ops
	gcs     uint32             // collections the runtime started by itself
}

// perOp returns layer's CPU seconds per op.
func (p profiled) perOp(layer string) float64 {
	if len(p.runs) == 0 {
		return 0
	}
	return p.layerNS[layer] / 1e9 / float64(len(p.runs))
}

// profile runs ops under backend be with the CPU profiler on, for at least
// seconds and two ops.  Serial ops take inputs 1, 2, ... and record their
// observables in ref; other backends cycle over the inputs ref holds and
// must reproduce them.
func (b *bencher) profile(be backend, seconds float64, ref map[int]any, verify *[]float64) profiled {
	var p profiled
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		b.broken("cpu profile: %v", err)
		return p
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for k := 0; ; k++ {
		i := k + 1
		if be != serial {
			i = 1 + k%len(ref)
		}
		t := b.do(i, be, nil)
		if t.ok {
			p.runs = append(p.runs, t.run)
			p.work += t.out.work
			*verify = append(*verify, t.verify)
			if sig, seen := ref[i]; seen {
				b.sameAs(t, sig, fmt.Sprintf("%s op %d", be, i))
			} else {
				ref[i] = t.out.sig
			}
		}
		if k >= 1 && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	p.gcs = (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	ns, err := layerTimes(buf.Bytes())
	if err != nil {
		b.broken("cpu profile: %v", err)
	}
	p.layerNS = ns
	return p
}

// traced is the traced run: CPU profiles of serial and pr2 ops attributed to
// layers, one scheduler-traced op, one op per replay backend, the layer
// probes, and the simulated counts of input 1.  None of its numbers feed the
// end-to-end metrics.
func (b *bencher) traced(seconds float64, sz sizes) map[string]sample {
	m := map[string]sample{}
	var verify []float64

	t0 := time.Now()
	verify = append(verify, b.do(0, serial, nil).verify)
	m["span.warmup_s"] = one(time.Since(t0).Seconds())

	// Untraced serial ops on inputs 1..3: the baseline of trace.overhead.
	ref := map[int]any{}
	var base []float64
	var first outcome // input 1's, whose simulated counts the run reports
	for i := 1; i <= 3; i++ {
		t := b.do(i, serial, nil)
		if !t.ok {
			continue
		}
		base = append(base, t.run)
		verify = append(verify, t.verify)
		ref[i] = t.out.sig
		if i == 1 {
			first = t.out
		}
	}
	if len(ref) == 0 {
		return m
	}

	ser := b.profile(serial, seconds/2, ref, &verify)
	par := b.profile(pr2, seconds/2, ref, &verify)
	var total float64
	for _, l := range layers {
		total += ser.layerNS[l]
	}
	for _, l := range layers {
		m[l+".self_s"] = sample{ser.perOp(l), len(ser.runs)}
		share := 0.0
		if total > 0 {
			share = ser.layerNS[l] / total
		}
		m[l+".share"] = sample{share, len(ser.runs)}
		m["pr2."+l+".self_s"] = sample{par.perOp(l), len(par.runs)}
	}
	if ser.work > 0 {
		m["hm.ns_per_access"] = sample{(ser.layerNS["hm.walk"] + ser.layerNS["hm.par"]) / float64(ser.work), len(ser.runs)}
		m["core.ctx.ns_per_access"] = sample{ser.layerNS["core.ctx"] / float64(ser.work), len(ser.runs)}
	}
	m["runtime.gc_per_op"] = sample{float64(ser.gcs) / float64(max(len(ser.runs), 1)), len(ser.runs)}
	m["trace.overhead"] = sample{median(ser.runs) / median(base), len(ser.runs)}

	counts := first.counts
	if counts == nil {
		counts = map[string]float64{}
	}
	m["hm.l1_hit_ratio"] = one(first.l1HitRat)

	tr := &core.Trace{}
	if t := b.do(1, serial, tr); t.ok {
		b.sameAs(t, ref[1], "scheduler-traced op 1")
		addTraceCounts(counts, tr)
		if n := counts["core.strands_done"]; n > 0 {
			m["core.engine.us_per_strand"] = one(ser.perOp("core.engine") / n * 1e6)
		}
	}

	for _, bk := range []struct {
		be   backend
		name string
	}{{par2, "hm.par.par2_run_s"}, {pr2par2, "hm.par.pr2par2_run_s"}} {
		if t := b.do(1, bk.be, nil); t.ok {
			b.sameAs(t, ref[1], fmt.Sprintf("%s op 1", bk.be))
			m[bk.name] = one(t.run)
		}
	}
	if b.w.grid {
		if t := b.do(1, w1, nil); t.ok {
			b.sameAs(t, ref[1], "w1 pass")
			m["sweep.w1_run_s"] = one(t.run)
			m["sweep.speedup_w2"] = sample{t.run / median(base), len(base)}
		}
	}

	for _, c := range countMetrics {
		m[c] = one(counts[c])
	}
	m["span.verify_s"] = medianOf(verify)
	if err := probes(m, sz, b.seed); err != nil {
		b.broken("probe: %v", err)
	}
	return m
}

// addTraceCounts adds the scheduler-decision counts of tr to counts.
func addTraceCounts(counts map[string]float64, tr *core.Trace) {
	names := map[core.EventKind]string{
		core.EvAnchor: "core.anchors",
		core.EvChunk:  "core.chunks",
		core.EvNested: "core.nested",
		core.EvQueue:  "core.queued",
		core.EvDone:   "core.strands_done",
	}
	for _, e := range tr.Events {
		if n, ok := names[e.Kind]; ok {
			counts[n]++
		}
	}
}
