package main

import (
	"math"
	"time"
)

// Host speed on a shared virtual machine drifts by tens of percent over tens
// of seconds as co-tenants come and go, and the simulator's run time, which
// is bound by memory latency, drifts with it.  So every op is bracketed by
// two calibrations, and its timings are scaled by refCalibration over their
// mean: they read as the seconds the op would take at the host speed of the
// reference run.  A calibration is the geometric mean of two fixed loops, a
// random walk over a buffer past the host's caches and a small LRU cache
// simulation; on the 2-CPU Xeon host the baseline was taken on, this cuts the
// spread between runs by about half (README.md, "Host noise").

// refCalibration is a calibration's median time on that host.
const refCalibration = 0.0239 // seconds

const (
	walkWords = 1 << 21 // 16 MB
	lruBlocks = 1 << 19 // block ids of the LRU loop's dense index
	lruSets   = 1 << 10
	lruWays   = 4
)

// calibrator owns the calibration loops' buffers.
type calibrator struct {
	walk         []uint64
	index        []int32
	tags, stamps []int64
}

func newCalibrator() *calibrator {
	return &calibrator{
		walk:   make([]uint64, walkWords),
		index:  make([]int32, lruBlocks),
		tags:   make([]int64, lruSets*lruWays),
		stamps: make([]int64, lruSets*lruWays),
	}
}

// seconds times one calibration.
func (c *calibrator) seconds() float64 {
	return math.Sqrt(c.walkSeconds() * c.lruSeconds())
}

// walkSeconds times a xorshift stream of random increments over the walk
// buffer, each paired with one into a small hot region.
func (c *calibrator) walkSeconds() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.walk[x&(walkWords-1)]++
		c.walk[(x>>21)&(1<<11-1)]++
	}
	return time.Since(t0).Seconds()
}

// lruSeconds times a 4-way set-associative LRU cache over an address stream
// that is three quarters sequential, the shape of the simulator's cache walk.
func (c *calibrator) lruSeconds() float64 {
	t0 := time.Now()
	for i := range c.index {
		c.index[i] = -1
	}
	for i := range c.tags {
		c.tags[i], c.stamps[i] = -1, 0
	}
	x := uint64(88172645463325252)
	var a, tick int64
	for i := 0; i < 2_000_000; i++ {
		if i%4 == 0 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a = int64(x & (1<<22 - 1))
		} else {
			a++
		}
		b := (a >> 3) & (lruBlocks - 1)
		tick++
		if s := c.index[b]; s >= 0 && c.tags[s] == b {
			c.stamps[s] = tick
			continue
		}
		set := int32(b&(lruSets-1)) * lruWays
		victim := set
		for w := set; w < set+lruWays; w++ {
			if c.stamps[w] < c.stamps[victim] {
				victim = w
			}
		}
		if old := c.tags[victim]; old >= 0 {
			c.index[old] = -1
		}
		c.tags[victim], c.stamps[victim], c.index[b] = b, tick, victim
	}
	return time.Since(t0).Seconds()
}
