// Package hm implements the hierarchical multi-level multicore (HM) machine
// model of Chowdhury, Silvestri, Blakeley and Ramachandran (IPDPS 2010).
//
// An HM machine with h levels consists of p cores, each with a private
// level-1 cache, a hierarchy of caches of finite but increasing sizes at
// levels 1..h-1 successively shared by larger groups of cores, and an
// arbitrarily large shared memory at level h.  The package provides a
// deterministic, word-addressed simulator of this machine: every load and
// store issued by a (virtual) core walks its cache path, fully associative
// LRU caches record block transfers, and per-cache miss counters realise the
// paper's cache-complexity measure (the maximum number of block transfers
// into and out of any single level-i cache).
//
// The simulator is the measurement substrate for the multicore-oblivious
// runtime in package core: algorithms never see the machine description,
// only the scheduler does.
package hm

import (
	"fmt"
	"sort"
	"strings"
)

// LevelSpec describes one cache level of an HM machine.
//
// Capacity and Block are measured in 64-bit words.  Arity is the number of
// level-(i-1) units (caches, or cores for level 1) that share one cache at
// this level; it corresponds to the paper's parameter p_i.  The paper fixes
// p_1 = 1 (each core has a private L1), so the level-1 spec must have
// Arity 1.  Ways is 0 or a power of two, so every set count is one too;
// 0, or a Ways at or above the level's C_i/B_i blocks, is the fully
// associative ideal cache.
type LevelSpec struct {
	Capacity int64 // C_i, words
	Block    int64 // B_i, words
	Arity    int   // p_i: level-(i-1) units sharing one level-i cache
	Ways     int   // associativity in blocks; 0 = fully associative (ideal cache)
}

// Config describes an HM machine: Levels[0] is the level-1 (private) cache,
// Levels[h-2] is the level-(h-1) cache below the shared memory.  The paper's
// p_h = 1 convention is realised by always building exactly one cache at the
// topmost level.  Every machine is coherent: a write invalidates each copy
// of the written block held by a cache off the writing core's path
// (ping-ponging).  On one core there is no such cache.
type Config struct {
	Name   string
	Levels []LevelSpec
}

// NumLevels returns h, counting the shared memory as level h.
func (c Config) NumLevels() int { return len(c.Levels) + 1 }

// Cores returns p, the total number of cores: the product of the arities of
// levels 2..h-1 (level 1 has arity 1 by the p_1 = 1 convention).
func (c Config) Cores() int {
	p := 1
	for _, l := range c.Levels {
		p *= l.Arity
	}
	return p
}

// CachesAt returns q_i, the number of caches at 1-based cache level i: the
// product of the arities strictly above level i.
func (c Config) CachesAt(level int) int {
	q := 1
	for j := level; j < len(c.Levels); j++ { // Levels[j] is level j+1
		q *= c.Levels[j].Arity
	}
	return q
}

// CoresUnder returns p'_i, the number of cores subtended by one level-i
// cache: the product of the arities of levels 1..i.
func (c Config) CoresUnder(level int) int {
	p := 1
	for j := 0; j < level; j++ {
		p *= c.Levels[j].Arity
	}
	return p
}

// Validate checks the structural constraints of the HM model:
//
//   - at least one cache level;
//   - p_1 = 1 (private L1s);
//   - capacities and block sizes positive, powers of two, with
//     B_i | C_i and B_{i-1} | B_i (so B_{i-1} <= B_i);
//   - fan-outs (arities) between 1 and the 64-core simulator limit;
//   - strictly growing capacities with C_i >= p_i * C_{i-1} (the paper's
//     C_i >= c_i p_i C_{i-1} with c_i >= 1);
//   - tall caches: C_i >= B_i^2;
//   - associativity (Ways) 0 or a power of two;
//   - at most 64 cores (a simulator limit used by the coherence bitmasks).
//
// Every violation returns a descriptive error naming the offending level,
// so malformed configs surface as errors through NewMachine and the
// harness/CLIs rather than as panics.
func (c Config) Validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("hm: config %q has no cache levels", c.Name)
	}
	if c.Levels[0].Arity != 1 {
		return fmt.Errorf("hm: level-1 arity must be 1 (p_1 = 1, private L1s), got %d", c.Levels[0].Arity)
	}
	for i, l := range c.Levels {
		lv := i + 1
		if l.Capacity <= 0 || l.Block <= 0 {
			return fmt.Errorf("hm: level %d: capacity and block must be positive", lv)
		}
		if l.Capacity&(l.Capacity-1) != 0 || l.Block&(l.Block-1) != 0 {
			return fmt.Errorf("hm: level %d: capacity %d and block %d must be powers of two", lv, l.Capacity, l.Block)
		}
		if l.Capacity%l.Block != 0 {
			return fmt.Errorf("hm: level %d: block %d must divide capacity %d", lv, l.Block, l.Capacity)
		}
		if l.Capacity < l.Block*l.Block {
			return fmt.Errorf("hm: level %d: not tall (C=%d < B^2=%d)", lv, l.Capacity, l.Block*l.Block)
		}
		if l.Ways < 0 || l.Ways&(l.Ways-1) != 0 {
			return fmt.Errorf("hm: level %d: ways %d must be 0 (fully associative) or a power of two", lv, l.Ways)
		}
		if l.Arity < 1 {
			return fmt.Errorf("hm: level %d: fan-out (arity) must be >= 1, got %d", lv, l.Arity)
		}
		if l.Arity > 64 {
			return fmt.Errorf("hm: level %d: fan-out %d exceeds the simulator's 64-core limit", lv, l.Arity)
		}
		if i > 0 {
			prev := c.Levels[i-1]
			if l.Block < prev.Block {
				return fmt.Errorf("hm: level %d: block %d smaller than level %d block %d", lv, l.Block, lv-1, prev.Block)
			}
			if l.Block%prev.Block != 0 {
				return fmt.Errorf("hm: level %d: block %d not a multiple of level %d block %d", lv, l.Block, lv-1, prev.Block)
			}
			if l.Capacity <= prev.Capacity {
				return fmt.Errorf("hm: level %d: capacity %d not strictly larger than level %d capacity %d (sizes must grow up the hierarchy)",
					lv, l.Capacity, lv-1, prev.Capacity)
			}
			if l.Capacity < int64(l.Arity)*prev.Capacity {
				return fmt.Errorf("hm: level %d: C_i=%d violates C_i >= p_i*C_{i-1} = %d*%d",
					lv, l.Capacity, l.Arity, prev.Capacity)
			}
		}
	}
	if p := c.Cores(); p > 64 {
		return fmt.Errorf("hm: %d cores exceeds the simulator limit of 64", p)
	}
	return nil
}

// String renders a compact description such as
// "hm5[p=32 L1:1x1024/16 L2:16x8192/32 ...]".
func (c Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[p=%d", c.Name, c.Cores())
	for i, l := range c.Levels {
		fmt.Fprintf(&b, " L%d:%dx%d/%d", i+1, c.CachesAt(i+1), l.Capacity, l.Block)
	}
	b.WriteString("]")
	return b.String()
}

// Preset configurations.  Sizes are deliberately small so that simulated
// workloads exhibit all cache levels at laptop-scale problem sizes; the
// ratios respect the HM constraints.

// Seq returns a sequential (single core) two-cache-level machine, the
// "possible sequential cache hierarchy at the highest level" of the model.
func Seq() Config {
	return Config{
		Name: "seq",
		Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 1 << 4, Arity: 1},
			{Capacity: 1 << 14, Block: 1 << 5, Arity: 1},
		},
	}
}

// MC3 returns the 3-level multicore model of Blelloch et al. (SODA 2008):
// p cores with private L1s below a single shared L2.
func MC3(p int) Config {
	return Config{
		Name: "mc3",
		Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 1 << 4, Arity: 1},
			{Capacity: 1 << 16, Block: 1 << 5, Arity: p},
		},
	}
}

// HM4 returns a 4-level machine: groups*per cores, "per" cores per L2,
// one shared L3.
func HM4(groups, per int) Config {
	return Config{
		Name: "hm4",
		Levels: []LevelSpec{
			{Capacity: 1 << 9, Block: 1 << 3, Arity: 1},
			{Capacity: 1 << 13, Block: 1 << 4, Arity: per},
			{Capacity: 1 << 18, Block: 1 << 5, Arity: groups},
		},
	}
}

// HM5 returns a 5-level machine shaped like the paper's Figure 1:
// p = a2*a3*a4 cores, L2s shared by a2 cores, L3s by a3 L2s, one L4.
func HM5(a2, a3, a4 int) Config {
	return Config{
		Name: "hm5",
		Levels: []LevelSpec{
			{Capacity: 1 << 9, Block: 1 << 3, Arity: 1},
			{Capacity: 1 << 12, Block: 1 << 4, Arity: a2},
			{Capacity: 1 << 16, Block: 1 << 5, Arity: a3},
			{Capacity: 1 << 20, Block: 1 << 5, Arity: a4},
		},
	}
}

// MC3Assoc returns MC3 with 8-way set-associative caches instead of the
// ideal fully associative ones — the knob for measuring how far the
// ideal-cache assumption of the analysis carries.
func MC3Assoc(p int) Config {
	cfg := MC3(p)
	cfg.Name = "mc3a"
	for i := range cfg.Levels {
		cfg.Levels[i].Ways = 8
	}
	return cfg
}

// Presets returns the named stock machines used by the experiment harness.
func Presets() map[string]Config {
	return map[string]Config{
		"seq":  Seq(),
		"mc3":  MC3(8),
		"mc3a": MC3Assoc(8),
		"hm4":  HM4(4, 4),
		"hm5":  HM5(2, 4, 4),
	}
}

// PresetNames returns the names of Presets in sorted order, for usage
// lines and unknown-machine errors.
func PresetNames() []string {
	var names []string
	//oblivcheck:allow determinism: key collection — sorted below
	for n := range Presets() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
