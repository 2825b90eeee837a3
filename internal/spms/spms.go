// Package spms implements a multicore-oblivious sorting algorithm with the
// structure of Sample Partition Merge Sort (SPMS, Cole–Ramachandran), which
// paper §III-C schedules with the CGC and CGC⇒SB hints: a problem of size n
// is decomposed by O(1) balanced-parallel (BP) computations — sample
// gathering, partition counting, prefix sums, scattering — into ~√n
// independent subproblems of size O(√n), solved by two waves of recursive
// calls (sort the √n subarrays, then sort the sample-delimited buckets).
//
// Records are (key, value) word pairs ordered lexicographically.  Pivot
// bands are three-way: records strictly between two deduplicated pivots
// form a "strict" band that is sorted recursively, records equal to a pivot
// form an "equal" band that needs no further work.  This makes termination
// unconditional under arbitrary duplicate distributions (a strict band can
// contain at most ~n/c + √n records for sampling rate c).
//
// Deviation from the real SPMS (documented in DESIGN.md): buckets formed
// from sorted runs are re-sorted rather than multi-way merged; the
// recursion structure, the CGC/BP glue, and the Θ((n/B)·log_C n) cache
// behaviour that §III-C relies on are the same.
package spms

import (
	"math"

	"oblivhm/internal/core"
	"oblivhm/internal/scan"
	"oblivhm/internal/transpose"
)

// SpaceBound is the declared space bound of Sort on n records, in words:
// the input, the scatter buffer, counts and samples are all linear.
func SpaceBound(n int) int64 { return 16 * int64(n) }

// baseSize is the cutoff below which a subproblem is sorted serially.
const baseSize = 32

// maxSamplesPerRun caps the regular-sampling rate.
const maxSamplesPerRun = 16

// less orders records lexicographically by (Key, Val).
func less(a, b core.Pair) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.Val < b.Val)
}

// Sort sorts v in place by (Key, Val).
func Sort(c *core.Ctx, v core.Pairs) {
	n := v.N
	if n <= baseSize {
		insertion(c, v)
		return
	}
	l := isqrt(n)                         // subarray length ~ √n
	s := (n + l - 1) / l                  // number of subarrays
	cr := clamp(l/4, 1, maxSamplesPerRun) // samples per subarray

	// Phase 1 [CGC⇒SB]: sort the s runs of length <= l recursively.
	c.SpawnCGCSB(SpaceBound(l), s, func(cc *core.Ctx, i int) {
		lo, hi := i*l, (i+1)*l
		if hi > n {
			hi = n
		}
		Sort(cc, v.Slice(lo, hi))
	})

	// Phase 2 [CGC]: regular sampling — cr evenly spaced records per run.
	samples := c.NewPairs(s * cr)
	c.PFor(s*cr, 2, func(cc *core.Ctx, lo, hi int) {
		for t := lo; t < hi; t++ {
			i, j := t/cr, t%cr
			rlo, rhi := i*l, (i+1)*l
			if rhi > n {
				rhi = n
			}
			rlen := rhi - rlo
			pos := (j + 1) * rlen / (cr + 1)
			if pos >= rlen {
				pos = rlen - 1
			}
			samples.Set(cc, t, v.At(cc, rlo+pos))
		}
	})
	Sort(c, samples) // recursive: s*cr <= n/4 records

	// Choose every cr-th sample as a pivot and deduplicate.
	var pivots []core.Pair
	for t := cr - 1; t < s*cr; t += cr {
		p := samples.At(c, t)
		if len(pivots) == 0 || less(pivots[len(pivots)-1], p) {
			pivots = append(pivots, p)
		}
	}
	nb := 2*len(pivots) + 1 // strict, equal, strict, equal, ..., strict

	// Phase 2 [CGC]: per-run band counts in run-major layout
	// cntR[i*nb + b] = #records of run i in band b.  Each run's counter
	// index advances monotonically (runs are sorted), so the counting scan
	// is sequential — the band-major view needed for the global offsets is
	// produced by a cache-oblivious transpose.
	cntR := c.NewU64(s * nb)
	scan.FillU64(c, cntR, 0)
	c.PFor(s, l, func(cc *core.Ctx, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			rlo, rhi := i*l, (i+1)*l
			if rhi > n {
				rhi = n
			}
			b := 0
			for t := rlo; t < rhi; t++ {
				p := v.At(cc, t)
				b = advanceBand(pivots, p, b)
				cntR.Set(cc, i*nb+b, cntR.At(cc, i*nb+b)+1)
			}
		}
	})
	cntB := c.NewU64(nb * s)
	transpose.RectWords(c, cntR, cntB, s, nb)

	// Prefix sums over the band-major counts give scatter offsets;
	// band b starts at off[b*s].
	scan.ExclusiveU64(c, cntB, core.U64{}, scan.AddU, 0)
	bandStart := make([]int, nb+1)
	for b := 0; b < nb; b++ {
		bandStart[b] = int(cntB.At(c, b*s))
	}
	bandStart[nb] = n

	// Transpose the offsets back so each run reads its own sequentially.
	offR := c.NewU64(s * nb)
	transpose.RectWords(c, cntB, offR, nb, s)

	// Phase 2 [CGC]: scatter into the band buffer.
	out := c.NewPairs(n)
	c.PFor(s, l, func(cc *core.Ctx, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			rlo, rhi := i*l, (i+1)*l
			if rhi > n {
				rhi = n
			}
			offs := make([]int, nb)
			for b := 0; b < nb; b++ {
				offs[b] = int(offR.At(cc, i*nb+b))
			}
			b := 0
			for t := rlo; t < rhi; t++ {
				p := v.At(cc, t)
				b = advanceBand(pivots, p, b)
				out.Set(cc, offs[b], p)
				offs[b]++
			}
		}
	})

	// Phase 3 [CGC⇒SB]: sort the strict bands (even indices); equal bands
	// hold identical records and are already in order.
	c.SpawnCGCSB(SpaceBound(2*l), nb, func(cc *core.Ctx, b int) {
		if b%2 == 1 {
			return
		}
		lo, hi := bandStart[b], bandStart[b+1]
		if hi-lo > 1 {
			Sort(cc, out.Slice(lo, hi))
		}
	})

	scan.CopyPairs(c, v, out)
}

// advanceBand returns the band index of record p, starting the search at
// band b (valid because each run is scanned in sorted order).  Bands:
// 2k = strictly between pivot k-1 and pivot k, 2k+1 = equal to pivot k.
func advanceBand(pivots []core.Pair, p core.Pair, b int) int {
	for {
		k := b / 2
		if b%2 == 0 { // strict band before pivot k
			if k >= len(pivots) || less(p, pivots[k]) {
				return b
			}
		} else { // equal band of pivot k
			if p == pivots[k] {
				return b
			}
		}
		b++
	}
}

// insertion is the serial base-case sort.
func insertion(c *core.Ctx, v core.Pairs) {
	for i := 1; i < v.N; i++ {
		p := v.At(c, i)
		j := i - 1
		for j >= 0 {
			q := v.At(c, j)
			if !less(p, q) {
				break
			}
			v.Set(c, j+1, q)
			j--
		}
		v.Set(c, j+1, p)
	}
}

func isqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FloatKey maps a float64 to a uint64 whose unsigned order equals the
// float's total order (negative numbers first, -0 < +0 treated as equal up
// to the mapping, NaNs sort high).  Use it to sort records by float keys.
func FloatKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b // negative: flip everything
	}
	return b | 1<<63 // positive: set the sign bit
}

// FloatFromKey inverts FloatKey.
func FloatFromKey(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
