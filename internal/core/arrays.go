package core

import "math"

// Typed array handles over session memory.  A handle is a (base, length)
// view; element access goes through a Ctx so that simulated sessions charge
// virtual time and cache traffic.  Peek/Poke variants on the Session bypass
// the accounting and exist for initialisation and verification only.

// F64 is a vector of float64 (one word per element).
type F64 struct {
	Base Addr
	N    int
}

// NewF64 allocates an n-element float64 vector.
func (s *Session) NewF64(n int) F64 { return F64{Base: s.AllocWords(int64(n)), N: n} }

// At and Set are accounted element accesses.
func (v F64) At(c *Ctx, i int) float64     { return c.LoadF(v.Base + Addr(i)) }
func (v F64) Set(c *Ctx, i int, x float64) { c.StoreF(v.Base+Addr(i), x) }

// Slice returns the subvector [lo, hi).
func (v F64) Slice(lo, hi int) F64 { return F64{Base: v.Base + Addr(lo), N: hi - lo} }

// I64 is a vector of int64 (one word per element).
type I64 struct {
	Base Addr
	N    int
}

func (s *Session) NewI64(n int) I64 { return I64{Base: s.AllocWords(int64(n)), N: n} }

func (v I64) At(c *Ctx, i int) int64     { return c.LoadI(v.Base + Addr(i)) }
func (v I64) Set(c *Ctx, i int, x int64) { c.StoreI(v.Base+Addr(i), x) }
func (v I64) Slice(lo, hi int) I64       { return I64{Base: v.Base + Addr(lo), N: hi - lo} }

// U64 is a vector of uint64 (one word per element).
type U64 struct {
	Base Addr
	N    int
}

func (s *Session) NewU64(n int) U64 { return U64{Base: s.AllocWords(int64(n)), N: n} }

func (v U64) At(c *Ctx, i int) uint64     { return c.LoadU(v.Base + Addr(i)) }
func (v U64) Set(c *Ctx, i int, x uint64) { c.StoreU(v.Base+Addr(i), x) }
func (v U64) Slice(lo, hi int) U64        { return U64{Base: v.Base + Addr(lo), N: hi - lo} }

// C128 is a vector of complex128 (two words per element: real then imag).
type C128 struct {
	Base Addr
	N    int
}

func (s *Session) NewC128(n int) C128 { return C128{Base: s.AllocWords(2 * int64(n)), N: n} }

func (v C128) At(c *Ctx, i int) complex128 {
	a := v.Base + Addr(2*i)
	return complex(c.LoadF(a), c.LoadF(a+1))
}

func (v C128) Set(c *Ctx, i int, x complex128) {
	a := v.Base + Addr(2*i)
	c.StoreF(a, real(x))
	c.StoreF(a+1, imag(x))
}

func (v C128) Slice(lo, hi int) C128 { return C128{Base: v.Base + Addr(2*lo), N: hi - lo} }

// Pairs is a vector of two-word records (Key, Val), the record type used by
// the sorting and graph algorithms.
type Pairs struct {
	Base Addr
	N    int
}

func (s *Session) NewPairs(n int) Pairs { return Pairs{Base: s.AllocWords(2 * int64(n)), N: n} }

// Pair is one (key, value) record.
type Pair struct {
	Key uint64
	Val uint64
}

func (v Pairs) At(c *Ctx, i int) Pair {
	a := v.Base + Addr(2*i)
	return Pair{Key: c.LoadU(a), Val: c.LoadU(a + 1)}
}

func (v Pairs) Set(c *Ctx, i int, p Pair) {
	a := v.Base + Addr(2*i)
	c.StoreU(a, p.Key)
	c.StoreU(a+1, p.Val)
}

func (v Pairs) Key(c *Ctx, i int) uint64 { return c.LoadU(v.Base + Addr(2*i)) }

func (v Pairs) Slice(lo, hi int) Pairs { return Pairs{Base: v.Base + Addr(2*lo), N: hi - lo} }

// Mat is a row-major float64 matrix view with an explicit stride, so that
// quadrant views (for the recursive GEP and transpose algorithms) alias the
// parent storage.
type Mat struct {
	Base       Addr
	Rows, Cols int
	Stride     int
}

// NewMat allocates a rows x cols matrix.
func (s *Session) NewMat(rows, cols int) Mat {
	return Mat{Base: s.AllocWords(int64(rows) * int64(cols)), Rows: rows, Cols: cols, Stride: cols}
}

func (m Mat) addr(i, j int) Addr { return m.Base + Addr(i*m.Stride+j) }

// At and Set are accounted element accesses.  They call LoadU and StoreU
// directly, without LoadF, StoreF and addr, to stay under the inliner's
// budget (make inline-check).
func (m Mat) At(c *Ctx, i, j int) float64 {
	return math.Float64frombits(c.LoadU(m.Base + Addr(i*m.Stride+j)))
}

func (m Mat) Set(c *Ctx, i, j int, x float64) {
	c.StoreU(m.Base+Addr(i*m.Stride+j), math.Float64bits(x))
}

// Sub returns the view of rows [r0,r0+rows) x cols [c0,c0+cols).
func (m Mat) Sub(r0, c0, rows, cols int) Mat {
	return Mat{Base: m.addr(r0, c0), Rows: rows, Cols: cols, Stride: m.Stride}
}

// Quads returns the four quadrants of a square matrix with even dimension:
// m11 m12 / m21 m22.
func (m Mat) Quads() (m11, m12, m21, m22 Mat) {
	h := m.Rows / 2
	return m.Sub(0, 0, h, h), m.Sub(0, h, h, h), m.Sub(h, 0, h, h), m.Sub(h, h, h, h)
}

// Row returns row i as a vector view.
func (m Mat) Row(i int) F64 { return F64{Base: m.addr(i, 0), N: m.Cols} }

// ---- allocation from inside a running task ----

// AllocWords reserves n words of shared memory from inside a task.
func (c *Ctx) AllocWords(n int64) Addr { return c.s.AllocWords(n) }

// NewF64 / NewI64 / NewU64 / NewC128 / NewPairs / NewMat are the Ctx
// counterparts of the Session allocators, for allocation mid-run.
func (c *Ctx) NewF64(n int) F64     { return F64{Base: c.AllocWords(int64(n)), N: n} }
func (c *Ctx) NewI64(n int) I64     { return I64{Base: c.AllocWords(int64(n)), N: n} }
func (c *Ctx) NewU64(n int) U64     { return U64{Base: c.AllocWords(int64(n)), N: n} }
func (c *Ctx) NewC128(n int) C128   { return C128{Base: c.AllocWords(2 * int64(n)), N: n} }
func (c *Ctx) NewPairs(n int) Pairs { return Pairs{Base: c.AllocWords(2 * int64(n)), N: n} }

func (c *Ctx) NewMat(rows, cols int) Mat {
	return Mat{Base: c.AllocWords(int64(rows) * int64(cols)), Rows: rows, Cols: cols, Stride: cols}
}

// ---- unaccounted access (setup & verification) ----

func (s *Session) peekWord(a Addr) uint64 {
	if s.mach != nil {
		return s.mach.Peek(a)
	}
	return s.nmem.load(a)
}

func (s *Session) pokeWord(a Addr, v uint64) {
	if s.mach != nil {
		s.mach.Poke(a, v)
		return
	}
	s.nmem.store(a, v)
}

// PeekF / PokeF access an F64 without accounting.
func (s *Session) PeekF(v F64, i int) float64 {
	return math.Float64frombits(s.peekWord(v.Base + Addr(i)))
}
func (s *Session) PokeF(v F64, i int, x float64) { s.pokeWord(v.Base+Addr(i), math.Float64bits(x)) }

// PeekI / PokeI access an I64 without accounting.
func (s *Session) PeekI(v I64, i int) int64    { return int64(s.peekWord(v.Base + Addr(i))) }
func (s *Session) PokeI(v I64, i int, x int64) { s.pokeWord(v.Base+Addr(i), uint64(x)) }

// PeekU / PokeU access a U64 without accounting.
func (s *Session) PeekU(v U64, i int) uint64    { return s.peekWord(v.Base + Addr(i)) }
func (s *Session) PokeU(v U64, i int, x uint64) { s.pokeWord(v.Base+Addr(i), x) }

// PeekC / PokeC access a C128 without accounting.
func (s *Session) PeekC(v C128, i int) complex128 {
	a := v.Base + Addr(2*i)
	return complex(math.Float64frombits(s.peekWord(a)), math.Float64frombits(s.peekWord(a+1)))
}

func (s *Session) PokeC(v C128, i int, x complex128) {
	a := v.Base + Addr(2*i)
	s.pokeWord(a, math.Float64bits(real(x)))
	s.pokeWord(a+1, math.Float64bits(imag(x)))
}

// PeekP / PokeP access a Pairs without accounting.
func (s *Session) PeekP(v Pairs, i int) Pair {
	a := v.Base + Addr(2*i)
	return Pair{Key: s.peekWord(a), Val: s.peekWord(a + 1)}
}

func (s *Session) PokeP(v Pairs, i int, p Pair) {
	a := v.Base + Addr(2*i)
	s.pokeWord(a, p.Key)
	s.pokeWord(a+1, p.Val)
}

// PeekM / PokeM access a Mat without accounting.
func (s *Session) PeekM(m Mat, i, j int) float64 {
	return math.Float64frombits(s.peekWord(m.addr(i, j)))
}

func (s *Session) PokeM(m Mat, i, j int, x float64) {
	s.pokeWord(m.addr(i, j), math.Float64bits(x))
}
