package gep

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"oblivhm/internal/core"
	"oblivhm/internal/hm"
)

func randMat(s *core.Session, n int, seed int64) core.Mat {
	m := s.NewMat(n, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.PokeM(m, i, j, rng.Float64()*4-2)
		}
	}
	return m
}

func copyMat(s *core.Session, src core.Mat) core.Mat {
	dst := s.NewMat(src.Rows, src.Cols)
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			s.PokeM(dst, i, j, s.PeekM(src, i, j))
		}
	}
	return dst
}

func matsClose(s *core.Session, a, b core.Mat, tol float64) (int, int, bool) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			x, y := s.PeekM(a, i, j), s.PeekM(b, i, j)
			if math.Abs(x-y) > tol*(1+math.Abs(x)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestIGEPMatchesReference: I-GEP must produce exactly what Figure 5's
// triple loop produces, for Floyd–Warshall and Gaussian elimination, on
// both executors.
func TestIGEPMatchesReference(t *testing.T) {
	specs := map[string]Spec{"floyd": Floyd(), "gauss": gaussSafe()}
	for _, mode := range []string{"sim", "native"} {
		for name, g := range specs {
			t.Run(mode+"/"+name, func(t *testing.T) {
				for _, n := range []int{4, 8, 16, 32} {
					var s *core.Session
					if mode == "sim" {
						s = core.NewSim(hm.MustMachine(hm.HM4(4, 4)))
					} else {
						s = core.NewNative(4)
					}
					x := randPosMat(s, n, int64(n))
					ref := copyMat(s, x)
					s.Run(SpaceBound(n), func(c *core.Ctx) { IGEP(c, x, g) })
					s.Run(SpaceBound(n), func(c *core.Ctx) { Reference(c, ref, g) })
					if i, j, ok := matsClose(s, x, ref, 1e-9); !ok {
						t.Fatalf("n=%d: I-GEP diverges from reference at (%d,%d): %v vs %v",
							n, i, j, s.PeekM(x, i, j), s.PeekM(ref, i, j))
					}
				}
			})
		}
	}
}

// gaussSafe wraps Gauss with diagonally dominant inputs provided by
// randPosMat, so no pivot vanishes.
func gaussSafe() Spec { return Gauss() }

func randPosMat(s *core.Session, n int, seed int64) core.Mat {
	m := s.NewMat(n, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.Float64() + 0.5
			if i == j {
				v += float64(2 * n) // diagonal dominance keeps pivots away from 0
			}
			s.PokeM(m, i, j, v)
		}
	}
	return m
}

// TestFloydWarshallKnownGraph: APSP on a small graph with known distances.
func TestFloydWarshallKnownGraph(t *testing.T) {
	inf := math.Inf(1)
	// 0 →1 (1), 1→2 (2), 0→2 (5), 2→3 (1), 3→0 (10)
	w := [][]float64{
		{0, 1, 5, inf},
		{inf, 0, 2, inf},
		{inf, inf, 0, 1},
		{10, inf, inf, 0},
	}
	want := [][]float64{
		{0, 1, 3, 4},
		{13, 0, 2, 3},
		{11, 12, 0, 1},
		{10, 11, 13, 0},
	}
	s := core.NewNative(2)
	x := s.NewMat(4, 4)
	for i := range w {
		for j := range w[i] {
			s.PokeM(x, i, j, w[i][j])
		}
	}
	s.Run(SpaceBound(4), func(c *core.Ctx) { IGEP(c, x, Floyd()) })
	for i := range want {
		for j := range want[i] {
			if got := s.PeekM(x, i, j); got != want[i][j] {
				t.Errorf("dist[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

// TestGaussLUFactorisation: running Gauss() and extracting L, U must give
// L·U = A for diagonally dominant A.
func TestGaussLUFactorisation(t *testing.T) {
	s := core.NewNative(4)
	n := 16
	a := randPosMat(s, n, 3)
	orig := copyMat(s, a)
	s.Run(SpaceBound(n), func(c *core.Ctx) { IGEP(c, a, Gauss()) })
	l, u := LU(s, a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += s.PeekM(l, i, k) * s.PeekM(u, k, j)
			}
			if want := s.PeekM(orig, i, j); math.Abs(acc-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("LU[%d][%d] = %v, want %v", i, j, acc, want)
			}
		}
	}
}

// TestMatMulAgainstNaive: the 𝒟-based multiplication equals the naive one.
func TestMatMulAgainstNaive(t *testing.T) {
	for _, mode := range []string{"sim", "native"} {
		t.Run(mode, func(t *testing.T) {
			var s *core.Session
			if mode == "sim" {
				s = core.NewSim(hm.MustMachine(hm.HM4(4, 4)))
			} else {
				s = core.NewNative(4)
			}
			n := 32
			A := randMat(s, n, 1)
			B := randMat(s, n, 2)
			C1 := s.NewMat(n, n)
			C2 := s.NewMat(n, n)
			s.Run(MatMulSpace(n), func(c *core.Ctx) { MatMul(c, C1, A, B) })
			s.Run(MatMulSpace(n), func(c *core.Ctx) { NaiveMatMul(c, C2, A, B) })
			if i, j, ok := matsClose(s, C1, C2, 1e-9); !ok {
				t.Fatalf("matmul mismatch at (%d,%d)", i, j)
			}
		})
	}
}

// TestOddHalfSidePanics: a side that halves to an odd side above
// baseSize would drop rows, so IGEP and MatMul refuse it, as transpose
// refuses a side that is not a power of two; a side such as 24 = 3·8,
// which halves evenly down to 3, runs and matches the triple loop.
func TestOddHalfSidePanics(t *testing.T) {
	s := core.NewSim(hm.MustMachine(hm.HM4(4, 4)))
	for _, n := range []int{22, 45} {
		x := randMat(s, n, 1)
		for name, run := range map[string]func(c *core.Ctx){
			"IGEP":   func(c *core.Ctx) { IGEP(c, x, Floyd()) },
			"MatMul": func(c *core.Ctx) { MatMul(c, x, x, x) },
		} {
			_, err := s.TryRun(MatMulSpace(n), run)
			if err == nil || !strings.Contains(err.Error(), "odd side") {
				t.Errorf("%s at side %d: want a panic naming the odd side, got %v", name, n, err)
			}
		}
	}
	const n = 24
	A, B := randMat(s, n, 1), randMat(s, n, 2)
	C1, C2 := s.NewMat(n, n), s.NewMat(n, n)
	s.Run(MatMulSpace(n), func(c *core.Ctx) { MatMul(c, C1, A, B) })
	s.Run(MatMulSpace(n), func(c *core.Ctx) { NaiveMatMul(c, C2, A, B) })
	if i, j, ok := matsClose(s, C1, C2, 1e-9); !ok {
		t.Fatalf("side 24: matmul mismatch at (%d,%d)", i, j)
	}
}

func TestTiledMatMul(t *testing.T) {
	s := core.NewNative(4)
	n := 24 // non-power-of-two exercises edge tiles
	A := randMat(s, n, 4)
	B := randMat(s, n, 5)
	C1 := s.NewMat(n, n)
	C2 := s.NewMat(n, n)
	s.Run(MatMulSpace(n), func(c *core.Ctx) {
		TiledMatMul(c, C1, A, B, 7)
		NaiveMatMul(c, C2, A, B)
	})
	if i, j, ok := matsClose(s, C1, C2, 1e-9); !ok {
		t.Fatalf("tiled matmul mismatch at (%d,%d)", i, j)
	}
}

func TestCommutativityOfInstances(t *testing.T) {
	if !Commutative(Floyd().F) {
		t.Error("Floyd–Warshall min-plus update reported non-commutative")
	}
	if !Commutative(MulAdd().F) {
		t.Error("MulAdd update reported non-commutative")
	}
	// A deliberately non-commutative update: f = x*u + v (order matters).
	if Commutative(func(x, u, v, w float64) float64 { return x*u + v }) {
		t.Error("non-commutative update reported commutative")
	}
}

func TestSigmaIntersects(t *testing.T) {
	s := Strict{}
	if s.Intersects(0, 0, 4, 4) {
		t.Error("cube i,j in [0,4) k in [4,8) cannot satisfy i>k")
	}
	if !s.Intersects(4, 4, 0, 4) {
		t.Error("cube with i,j > k must intersect")
	}
	if !s.Intersects(0, 0, 0, 4) {
		t.Error("diagonal cube contains i=1,j=1,k=0")
	}
}

// TestTheorem5MissBound: I-GEP incurs O(n³/(q_i·B_i·√C_i)) misses per
// level-i cache (plus the cold n²/B_i term).
func TestTheorem5MissBound(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated n=64 GEP is slow")
	}
	cfg := hm.MC3(4)
	m := hm.MustMachine(cfg)
	s := core.NewSim(m)
	n := 64
	x := randPosMat(s, n, 9)
	st := s.RunCold(SpaceBound(n), func(c *core.Ctx) { IGEP(c, x, Floyd()) })
	n3 := int64(n) * int64(n) * int64(n)
	for _, l := range st.Sim.Levels {
		spec := cfg.Levels[l.Level-1]
		q := int64(cfg.CachesAt(l.Level))
		sqrtC := int64(math.Sqrt(float64(spec.Capacity)))
		bound := 32 * (n3/(q*spec.Block*sqrtC) + int64(n)*int64(n)/(q*spec.Block) + spec.Block)
		if l.MaxMisses > bound {
			t.Errorf("L%d max misses = %d > bound %d", l.Level, l.MaxMisses, bound)
		}
	}
}

// TestIGEPBeatsReferenceOnCacheMisses: the recursive schedule must incur
// far fewer L1 misses than the unblocked triple loop once the matrix
// exceeds L1 (the whole point of I-GEP).
func TestIGEPBeatsReferenceOnCacheMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated n=64 GEP is slow")
	}
	cfg := hm.MC3(1) // sequential: isolates cache behaviour
	n := 64          // n² = 4096 >> C1 = 1024
	runIGEP := func() int64 {
		s := core.NewSim(hm.MustMachine(cfg))
		x := randPosMat(s, n, 9)
		return s.RunCold(SpaceBound(n), func(c *core.Ctx) { IGEP(c, x, Floyd()) }).Sim.Levels[0].TotalMisses
	}()
	runRef := func() int64 {
		s := core.NewSim(hm.MustMachine(cfg))
		x := randPosMat(s, n, 9)
		return s.RunCold(SpaceBound(n), func(c *core.Ctx) { Reference(c, x, Floyd()) }).Sim.Levels[0].TotalMisses
	}()
	if runIGEP*2 > runRef {
		t.Errorf("I-GEP L1 misses %d not well below reference %d", runIGEP, runRef)
	}
}

func TestTransitiveClosure(t *testing.T) {
	s := core.NewNative(2)
	n := 16
	rng := rand.New(rand.NewSource(17))
	adj := make([][]bool, n)
	x := s.NewMat(n, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		adj[i][i] = true
		s.PokeM(x, i, i, 1)
	}
	for k := 0; k < 20; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		adj[u][v] = true
		s.PokeM(x, u, v, 1)
	}
	s.Run(SpaceBound(n), func(c *core.Ctx) { IGEP(c, x, TransitiveClosure()) })
	// Oracle: repeated squaring of the boolean relation.
	reach := adj
	for it := 0; it < n; it++ {
		next := make([][]bool, n)
		for i := range next {
			next[i] = append([]bool(nil), reach[i]...)
			for k := 0; k < n; k++ {
				if reach[i][k] {
					for j := 0; j < n; j++ {
						next[i][j] = next[i][j] || reach[k][j]
					}
				}
			}
		}
		reach = next
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if reach[i][j] {
				want = 1
			}
			if got := s.PeekM(x, i, j); got != want {
				t.Fatalf("closure[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSolveLU(t *testing.T) {
	for _, mode := range []string{"sim", "native"} {
		t.Run(mode, func(t *testing.T) {
			var s *core.Session
			if mode == "sim" {
				s = core.NewSim(hm.MustMachine(hm.MC3(4)))
			} else {
				s = core.NewNative(4)
			}
			n := 16
			a := randPosMat(s, n, 23)
			orig := copyMat(s, a)
			// Known solution: x*, b = A x*.
			xstar := make([]float64, n)
			for i := range xstar {
				xstar[i] = float64(i%5) - 2
			}
			b := s.NewF64(n)
			for i := 0; i < n; i++ {
				acc := 0.0
				for j := 0; j < n; j++ {
					acc += s.PeekM(orig, i, j) * xstar[j]
				}
				s.PokeF(b, i, acc)
			}
			s.Run(SpaceBound(n), func(c *core.Ctx) {
				IGEP(c, a, Gauss())
				SolveLU(c, a, b)
			})
			for i := 0; i < n; i++ {
				if got := s.PeekF(b, i); math.Abs(got-xstar[i]) > 1e-6 {
					t.Fatalf("x[%d] = %v, want %v", i, got, xstar[i])
				}
			}
		})
	}
}

func TestDeterminant(t *testing.T) {
	s := core.NewNative(1)
	// det([[2,1],[1,3]]) = 5.
	a := s.NewMat(2, 2)
	s.PokeM(a, 0, 0, 2)
	s.PokeM(a, 0, 1, 1)
	s.PokeM(a, 1, 0, 1)
	s.PokeM(a, 1, 1, 3)
	s.Run(SpaceBound(2), func(c *core.Ctx) { IGEP(c, a, Gauss()) })
	if got := Determinant(s, a); math.Abs(got-5) > 1e-12 {
		t.Fatalf("det = %v, want 5", got)
	}
}
