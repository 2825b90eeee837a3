// Package scan implements multicore-oblivious scans — prefix sums,
// reductions, fills, copies and stream compaction — scheduled with the CGC
// hint.  Scans are the "balanced parallel (BP) computations" glue used by
// the paper's sorting, list-ranking and graph algorithms (§III-C, §VI).
//
// The prefix sum uses the standard contraction tree: pair up adjacent
// elements with a CGC loop, recurse on the n/2 partial sums, and expand with
// a second CGC loop.  Per the paper (§III-A) this runs in O(B1·log n)
// parallel steps and Θ(n/(q_i·B_i)) cache misses at every level.
package scan

// The scan kernels are data-oblivious: their access traces depend on the
// input shape only, never on element values.  The directive below opts the
// package into the dataoblivious analyzer; //oblivcheck:secret tags on each kernel
// name the arrays whose *values* are secret.  The runtime cross-check is
// the trace-equality harness (internal/harness, `make trace-check`).
//
//oblivcheck:dataoblivious

import (
	"math"

	"oblivhm/internal/core"
)

// Op is an associative binary operation on words.
type Op func(a, b uint64) uint64

// AddU is uint64 addition (also correct for two's-complement int64).
func AddU(a, b uint64) uint64 { return a + b }

// MaxU is uint64 maximum.
func MaxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// InclusiveU64 replaces v[i] with op(v[0], ..., v[i]) in place.
// scratch must have capacity >= v.N (it is fully overwritten); pass a
// zero-value U64 to let the scan allocate its own scratch.
//
//oblivcheck:secret v scratch
func InclusiveU64(c *core.Ctx, v core.U64, scratch core.U64, op Op) {
	if v.N <= 1 {
		return
	}
	if scratch.N < v.N {
		scratch = c.NewU64(v.N)
	}
	inclusive(c, v, scratch, op)
}

//oblivcheck:secret v scratch
func inclusive(c *core.Ctx, v core.U64, scratch core.U64, op Op) {
	n := v.N
	if n <= 4 {
		acc := v.At(c, 0)
		for i := 1; i < n; i++ {
			acc = op(acc, v.At(c, i))
			v.Set(c, i, acc)
		}
		return
	}
	half := n / 2
	s := scratch.Slice(0, half)
	// Contract: s[i] = v[2i] ⊕ v[2i+1].
	c.PFor(half, 1, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.Set(cc, i, op(v.At(cc, 2*i), v.At(cc, 2*i+1)))
		}
	})
	inclusive(c, s, scratch.Slice(half, scratch.N), op)
	// Expand: v[2i] = S[i-1] ⊕ v[2i], v[2i+1] = S[i]; odd tail folds in.
	c.PFor(half, 1, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i > 0 {
				v.Set(cc, 2*i, op(s.At(cc, i-1), v.At(cc, 2*i)))
			}
			v.Set(cc, 2*i+1, s.At(cc, i))
		}
	})
	if n%2 == 1 {
		v.Set(c, n-1, op(v.At(c, n-2), v.At(c, n-1)))
	}
}

// ExclusiveU64 replaces v[i] with identity ⊕ v[0] ⊕ ... ⊕ v[i-1] in place
// and returns the total.
//
//oblivcheck:secret v scratch
func ExclusiveU64(c *core.Ctx, v core.U64, scratch core.U64, op Op, identity uint64) uint64 {
	if v.N == 0 {
		return identity
	}
	InclusiveU64(c, v, scratch, op)
	total := v.At(c, v.N-1)
	// Shift right by one with a CGC loop over a temp copy.
	tmp := c.NewU64(v.N)
	CopyU64(c, tmp, v)
	c.PFor(v.N, 1, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 {
				v.Set(cc, 0, identity)
			} else {
				v.Set(cc, i, tmp.At(cc, i-1))
			}
		}
	})
	return total
}

// PrefixSumsI64 is an inclusive in-place integer prefix sum.
//
//oblivcheck:secret v
func PrefixSumsI64(c *core.Ctx, v core.I64) {
	InclusiveU64(c, core.U64{Base: v.Base, N: v.N}, core.U64{}, AddU)
}

// ExclusiveSumsI64 is an exclusive in-place integer prefix sum returning
// the total.
//
//oblivcheck:secret v
func ExclusiveSumsI64(c *core.Ctx, v core.I64) int64 {
	return int64(ExclusiveU64(c, core.U64{Base: v.Base, N: v.N}, core.U64{}, AddU, 0))
}

// PrefixSumsF64 is an inclusive in-place float prefix sum.
//
//oblivcheck:secret v
func PrefixSumsF64(c *core.Ctx, v core.F64) {
	op := func(a, b uint64) uint64 {
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	}
	InclusiveU64(c, core.U64{Base: v.Base, N: v.N}, core.U64{}, op)
}

// ReduceU64 returns v[0] ⊕ ... ⊕ v[n-1] without modifying v, via a CGC
// loop producing per-segment partials followed by a recursive reduce.
//
//oblivcheck:secret v
func ReduceU64(c *core.Ctx, v core.U64, op Op, identity uint64) uint64 {
	n := v.N
	if n == 0 {
		return identity
	}
	if n <= 8 {
		acc := identity
		for i := 0; i < n; i++ {
			acc = op(acc, v.At(c, i))
		}
		return acc
	}
	half := (n + 1) / 2
	s := c.NewU64(half)
	c.PFor(half, 1, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			if 2*i+1 < n {
				s.Set(cc, i, op(v.At(cc, 2*i), v.At(cc, 2*i+1)))
			} else {
				s.Set(cc, i, v.At(cc, 2*i))
			}
		}
	})
	return ReduceU64(c, s, op, identity)
}

// SumI64 returns the sum of an integer vector.
//
//oblivcheck:secret v
func SumI64(c *core.Ctx, v core.I64) int64 {
	return int64(ReduceU64(c, core.U64{Base: v.Base, N: v.N}, AddU, 0))
}

// FillU64 sets every element of v to x with a CGC loop.
func FillU64(c *core.Ctx, v core.U64, x uint64) {
	c.PFor(v.N, 1, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			v.Set(cc, i, x)
		}
	})
}

// FillI64 sets every element of v to x.
func FillI64(c *core.Ctx, v core.I64, x int64) {
	FillU64(c, core.U64{Base: v.Base, N: v.N}, uint64(x))
}

// CopyU64 copies src into dst (same length) with a CGC loop.
func CopyU64(c *core.Ctx, dst, src core.U64) {
	c.PFor(src.N, 1, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Set(cc, i, src.At(cc, i))
		}
	})
}

// CopyPairs copies src into dst (same length) with a CGC loop.
func CopyPairs(c *core.Ctx, dst, src core.Pairs) {
	c.PFor(src.N, 2, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Set(cc, i, src.At(cc, i))
		}
	})
}

// IotaU64 sets v[i] = start + i.
func IotaU64(c *core.Ctx, v core.U64, start uint64) {
	c.PFor(v.N, 1, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			v.Set(cc, i, start+uint64(i))
		}
	})
}

// PackPairs writes the records of src satisfying pred into dst (contiguous,
// stable) and returns their count.  Implemented with O(1) CGC loops and one
// prefix sum, as the paper's BP computations prescribe.
func PackPairs(c *core.Ctx, dst, src core.Pairs, pred func(core.Pair) bool) int {
	n := src.N
	if n == 0 {
		return 0
	}
	flags := c.NewI64(n)
	c.PFor(n, 2, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			if pred(src.At(cc, i)) {
				flags.Set(cc, i, 1)
			} else {
				flags.Set(cc, i, 0)
			}
		}
	})
	total := ExclusiveSumsI64(c, flags)
	c.PFor(n, 2, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := src.At(cc, i)
			if pred(p) {
				dst.Set(cc, int(flags.At(cc, i)), p)
			}
		}
	})
	return int(total)
}

// PackPairsIndexed is PackPairs with an index- and context-aware predicate
// (for stream compactions that compare neighbouring records, e.g. sorted
// deduplication).  The predicate must be deterministic per index.
func PackPairsIndexed(c *core.Ctx, dst, src core.Pairs, pred func(cc *core.Ctx, i int, p core.Pair) bool) int {
	n := src.N
	if n == 0 {
		return 0
	}
	flags := c.NewI64(n)
	c.PFor(n, 2, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			if pred(cc, i, src.At(cc, i)) {
				flags.Set(cc, i, 1)
			} else {
				flags.Set(cc, i, 0)
			}
		}
	})
	total := ExclusiveSumsI64(c, flags)
	c.PFor(n, 2, func(cc *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := src.At(cc, i)
			if pred(cc, i, p) {
				dst.Set(cc, int(flags.At(cc, i)), p)
			}
		}
	})
	return int(total)
}
