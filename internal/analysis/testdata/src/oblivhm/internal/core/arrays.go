package core

import "oblivhm/internal/hm"

// Addr is a simulated machine address: an alias of hm.Addr, as in the real
// tree, so the dataoblivious fixtures see the alias go/types reports.
type Addr = hm.Addr

// I64 is a handle over a simulated int64 array: N and Base are shape, the
// elements live in simulated memory behind At/Set.
type I64 struct {
	N    int
	Base Addr
}

func (v I64) At(c *Ctx, i int) int64     { _ = i; return 0 }
func (v I64) Set(c *Ctx, i int, x int64) { _, _ = i, x }
func (v I64) Slice(lo, hi int) I64       { return I64{N: hi - lo, Base: v.Base + Addr(lo)} }

// LoadI reads one word at a raw address.
func (c *Ctx) LoadI(a Addr) int64 { _ = a; return 0 }

// PFor forks hi-lo data-parallel strands with a per-strand space hint.
func (c *Ctx) PFor(lo, hi int, space int64, body func(*Ctx, int)) {
	_ = space
	for i := lo; i < hi; i++ {
		body(c, i)
	}
}
