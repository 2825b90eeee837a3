package gep

import (
	"fmt"

	"oblivhm/internal/core"
)

// I-GEP (appendix of the paper): four recursive functions 𝒜, ℬ, 𝒞, 𝒟
// distinguished by how much the input matrices X ≡ x[I,J], U ≡ x[I,K],
// V ≡ x[K,J], W ≡ x[K,K] overlap.  Each performs the updates in
// Σ_f ∩ (I×J×K) through eight recursive calls on quadrants; the initial
// call is 𝒜(x,x,x,x).  Parallel recursive calls are forked with the SB
// hint using the declared space bounds S_𝒜(m)=m², S_ℬ=S_𝒞=2m², S_𝒟=4m²
// (Theorem 5).
//
// The recursion carries the index origins (i0, j0, k0) of the intervals
// I, J, K so that Σ_f membership can be tested globally.

// baseSize is the side length at which the recursion switches to the
// reference triple loop over the block.  The paper recurses to 1×1; any
// small constant preserves both correctness (the base executes updates in
// the canonical k,i,j order) and the block-level access pattern, while
// keeping the simulator's call overhead bounded.
const baseSize = 4

type igepCall struct {
	g Spec
}

// IGEP runs the I-GEP computation 𝒜(x,x,x,x) on the n×n matrix x.  n
// must halve evenly down to baseSize (mustHalveEvenly), as a power of two
// does.
//
//oblivcheck:secret x
func IGEP(c *core.Ctx, x core.Mat, g Spec) {
	mustHalveEvenly(x.Rows)
	r := igepCall{g: g}
	r.funcA(c, x, x, x, x, x.Rows, 0, 0, 0)
}

// mustHalveEvenly panics unless every side the recursion reaches above
// baseSize is even.  The recursion splits a side m into two halves of
// m/2, so an odd side would drop its last row and column and the run
// would solve a smaller problem: side 22 halves to 11 and computes what
// side 16 does.
func mustHalveEvenly(n int) {
	for m := n; m > baseSize; m /= 2 {
		if m%2 != 0 {
			panic(fmt.Sprintf("gep: side %d halves to the odd side %d above the base size %d", n, m, baseSize))
		}
	}
}

// SpaceBound is the space bound of the initial call in words.
func SpaceBound(n int) int64 { return int64(n) * int64(n) }

// base executes all updates of Σ_f within the cube at (i0,j0,k0) of side m
// in the canonical k, i, j order.
func (r igepCall) base(c *core.Ctx, X, U, V, W core.Mat, m, i0, j0, k0 int) {
	// Every update reads all four operands afresh: X, U, V, W may alias in
	// functions 𝒜, ℬ and 𝒞, so caching any of them across writes would
	// change the semantics.
	for k := 0; k < m; k++ {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if r.g.S.Has(i0+i, j0+j, k0+k) {
					c.Tick(1)
					X.Set(c, i, j, r.g.F(X.At(c, i, j), U.At(c, i, k), V.At(c, k, j), W.At(c, k, k)))
				}
			}
		}
	}
}

// funcA: X ≡ U ≡ V ≡ W ≡ x[I,I].
func (r igepCall) funcA(c *core.Ctx, X, U, V, W core.Mat, m, i0, j0, k0 int) {
	if !r.g.S.Intersects(i0, j0, k0, m) {
		return
	}
	if m <= baseSize {
		r.base(c, X, U, V, W, m, i0, j0, k0)
		return
	}
	h := m / 2
	x11, x12, x21, x22 := X.Quads()
	u11, u12, u21, u22 := U.Quads()
	v11, v12, v21, v22 := V.Quads()
	w11, w22 := quadDiag(W)
	sp := int64(h) * int64(h)

	r.funcA(c, x11, u11, v11, w11, h, i0, j0, k0)
	c.SpawnSB(
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcB(cc, x12, u11, v12, w11, h, i0, j0+h, k0) }},
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcC(cc, x21, u21, v11, w11, h, i0+h, j0, k0) }},
	)
	r.funcD(c, x22, u21, v12, w11, h, i0+h, j0+h, k0)
	r.funcA(c, x22, u22, v22, w22, h, i0+h, j0+h, k0+h)
	c.SpawnSB(
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcB(cc, x21, u22, v21, w22, h, i0+h, j0, k0+h) }},
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcC(cc, x12, u12, v22, w22, h, i0, j0+h, k0+h) }},
	)
	r.funcD(c, x11, u12, v21, w22, h, i0, j0, k0+h)
}

// funcB: X ≡ V ≡ x[I,J], U ≡ W ≡ x[I,I] (here the K interval equals I).
func (r igepCall) funcB(c *core.Ctx, X, U, V, W core.Mat, m, i0, j0, k0 int) {
	if !r.g.S.Intersects(i0, j0, k0, m) {
		return
	}
	if m <= baseSize {
		r.base(c, X, U, V, W, m, i0, j0, k0)
		return
	}
	h := m / 2
	x11, x12, x21, x22 := X.Quads()
	u11, u12, u21, u22 := U.Quads()
	v11, v12, v21, v22 := V.Quads()
	w11, w22 := quadDiag(W)
	sp := int64(h) * int64(h)

	c.SpawnSB(
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcB(cc, x11, u11, v11, w11, h, i0, j0, k0) }},
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcB(cc, x12, u11, v12, w11, h, i0, j0+h, k0) }},
	)
	c.SpawnSB(
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x21, u21, v11, w11, h, i0+h, j0, k0) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x22, u21, v12, w11, h, i0+h, j0+h, k0) }},
	)
	c.SpawnSB(
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcB(cc, x21, u22, v21, w22, h, i0+h, j0, k0+h) }},
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcB(cc, x22, u22, v22, w22, h, i0+h, j0+h, k0+h) }},
	)
	c.SpawnSB(
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x11, u12, v21, w22, h, i0, j0, k0+h) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x12, u12, v22, w22, h, i0, j0+h, k0+h) }},
	)
}

// funcC: X ≡ U ≡ x[I,J], V ≡ W ≡ x[J,J] (here the K interval equals J).
func (r igepCall) funcC(c *core.Ctx, X, U, V, W core.Mat, m, i0, j0, k0 int) {
	if !r.g.S.Intersects(i0, j0, k0, m) {
		return
	}
	if m <= baseSize {
		r.base(c, X, U, V, W, m, i0, j0, k0)
		return
	}
	h := m / 2
	x11, x12, x21, x22 := X.Quads()
	u11, u12, u21, u22 := U.Quads()
	v11, v12, v21, v22 := V.Quads()
	w11, w22 := quadDiag(W)
	sp := int64(h) * int64(h)

	c.SpawnSB(
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcC(cc, x11, u11, v11, w11, h, i0, j0, k0) }},
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcC(cc, x21, u21, v11, w11, h, i0+h, j0, k0) }},
	)
	c.SpawnSB(
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x12, u11, v12, w11, h, i0, j0+h, k0) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x22, u21, v12, w11, h, i0+h, j0+h, k0) }},
	)
	c.SpawnSB(
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcC(cc, x12, u12, v22, w22, h, i0, j0+h, k0+h) }},
		core.Task{Space: 2 * sp, Fn: func(cc *core.Ctx) { r.funcC(cc, x22, u22, v22, w22, h, i0+h, j0+h, k0+h) }},
	)
	c.SpawnSB(
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x11, u12, v21, w22, h, i0, j0, k0+h) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x21, u22, v21, w22, h, i0+h, j0, k0+h) }},
	)
}

// funcD: X, U, V, W pairwise non-overlapping (I∩K = ∅, J∩K = ∅).
func (r igepCall) funcD(c *core.Ctx, X, U, V, W core.Mat, m, i0, j0, k0 int) {
	if !r.g.S.Intersects(i0, j0, k0, m) {
		return
	}
	if m <= baseSize {
		r.base(c, X, U, V, W, m, i0, j0, k0)
		return
	}
	h := m / 2
	x11, x12, x21, x22 := X.Quads()
	u11, u12, u21, u22 := U.Quads()
	v11, v12, v21, v22 := V.Quads()
	w11, w22 := quadDiag(W)
	sp := int64(h) * int64(h)

	c.SpawnSB(
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x11, u11, v11, w11, h, i0, j0, k0) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x12, u11, v12, w11, h, i0, j0+h, k0) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x21, u21, v11, w11, h, i0+h, j0, k0) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x22, u21, v12, w11, h, i0+h, j0+h, k0) }},
	)
	c.SpawnSB(
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x11, u12, v21, w22, h, i0, j0, k0+h) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x12, u12, v22, w22, h, i0, j0+h, k0+h) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x21, u22, v21, w22, h, i0+h, j0, k0+h) }},
		core.Task{Space: 4 * sp, Fn: func(cc *core.Ctx) { r.funcD(cc, x22, u22, v22, w22, h, i0+h, j0+h, k0+h) }},
	)
}

// quadDiag returns the diagonal quadrants W11, W22 used by every function
// (W12/W21 are never read).
func quadDiag(w core.Mat) (w11, w22 core.Mat) {
	a, _, _, d := w.Quads()
	return a, d
}

// MatMul computes C += A·B by invoking I-GEP function 𝒟 with the three
// disjoint matrices (X=C, U=A, V=B) and the full update set; W is unused by
// the MulAdd function and is passed as B.  n must halve evenly down to
// baseSize, as in IGEP.
//
//oblivcheck:secret C A B
func MatMul(c *core.Ctx, C, A, B core.Mat) {
	n := C.Rows
	mustHalveEvenly(n)
	r := igepCall{g: MulAdd()}
	// Give D disjoint index cubes so Σ tests stay trivially true: origins 0.
	r.funcD(c, C, A, B, B, n, 0, 0, 0)
}

// MatMulSpace is the space bound of MatMul in words (S_𝒟 = 4m²).
func MatMulSpace(n int) int64 { return 4 * int64(n) * int64(n) }
