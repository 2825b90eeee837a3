package gep

import "oblivhm/internal/core"

// TiledMatMul is the resource-AWARE baseline (in the spirit of the tiled
// I-GEP of [11], which the paper contrasts with the oblivious approach):
// C += A·B with an explicit tile size chosen from the machine's cache
// capacity.  It exists so the benchmarks can compare the oblivious
// algorithm against a hand-tuned one; by construction it is not
// multicore-oblivious.
//
//oblivcheck:secret C A B
func TiledMatMul(c *core.Ctx, C, A, B core.Mat, tile int) {
	n := C.Rows
	if tile <= 0 || tile > n {
		tile = n
	}
	nt := (n + tile - 1) / tile
	// Parallelise over tile rows of C (each C tile is owned by one task).
	c.PFor(nt*nt, tile*tile, func(cc *core.Ctx, lo, hi int) {
		for t := lo; t < hi; t++ {
			ib, jb := (t/nt)*tile, (t%nt)*tile
			for kb := 0; kb < n; kb += tile {
				for i := ib; i < min(ib+tile, n); i++ {
					for k := kb; k < min(kb+tile, n); k++ {
						aik := A.At(cc, i, k)
						for j := jb; j < min(jb+tile, n); j++ {
							cc.Tick(1)
							C.Set(cc, i, j, C.At(cc, i, j)+aik*B.At(cc, k, j))
						}
					}
				}
			}
		}
	})
}

// NaiveMatMul is the unblocked serial baseline C += A·B.
//
//oblivcheck:secret C A B
func NaiveMatMul(c *core.Ctx, C, A, B core.Mat) {
	n := C.Rows
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := A.At(c, i, k)
			for j := 0; j < n; j++ {
				c.Tick(1)
				C.Set(c, i, j, C.At(c, i, j)+aik*B.At(c, k, j))
			}
		}
	}
}
