package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpucluster/internal/gpu"
	"gpucluster/internal/mpi"
	"gpucluster/internal/sched"
)

func TestCSRAssembly(t *testing.T) {
	m := NewCSR(3, 3, []Triplet{
		{0, 0, 2}, {0, 2, 1},
		{1, 1, 3},
		{2, 0, -1}, {2, 2, 4},
		{0, 0, 1}, // duplicate: summed
	})
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	y := m.MulVec([]float32{1, 1, 1})
	want := []float32{4, 3, 3} // rows: 3+1, 3, -1+4
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	d := m.Diagonal()
	if d[0] != 3 || d[1] != 3 || d[2] != 4 {
		t.Errorf("diagonal = %v", d)
	}
	if m.MaxRowNNZ() != 2 {
		t.Errorf("max row nnz = %d", m.MaxRowNNZ())
	}
}

func TestCSRValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []Triplet{{2, 0, 1}})
}

func randomVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestCGSolvesPoisson(t *testing.T) {
	a := Poisson2D(12)
	xTrue := randomVec(a.Rows, 1)
	b := a.MulVec(xTrue)
	x, st := CG(a, b, 1e-6, 2000)
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	for i := range x {
		if math.Abs(float64(x[i]-xTrue[i])) > 1e-2 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestSolversHandleZeroRHS(t *testing.T) {
	a := Poisson2D(4)
	b := make([]float32, a.Rows)
	x, st := CG(a, b, 1e-6, 100)
	if !st.Converged {
		t.Fatal("zero RHS must converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS must give zero solution")
		}
	}
}

func TestRowPartition(t *testing.T) {
	// NewDistMatrix splits rows contiguously, the first n mod p ranks
	// one row longer: 10 rows over 3 ranks are 4, 3, 3 at 0, 4, 7.
	var tr []Triplet
	for r := 0; r < 10; r++ {
		tr = append(tr, Triplet{r, r, 1})
	}
	a := NewCSR(10, 10, tr)
	for r, want := range [][2]int{{0, 4}, {4, 3}, {7, 3}} {
		d := NewDistMatrix(a, r, 3)
		if d.RowOffset != want[0] || d.LocalRows != want[1] {
			t.Errorf("rank %d: rows %d+%d, want %d+%d", r, d.RowOffset, d.LocalRows, want[0], want[1])
		}
	}
}

func TestDistributedMatVecMatchesSerial(t *testing.T) {
	a := Poisson2D(10)
	x := randomVec(a.Rows, 3)
	want := a.MulVec(x)
	for _, ranks := range []int{1, 2, 3, 4} {
		got := make([]float32, a.Rows)
		off, sz := sched.Partition(a.Rows, ranks)
		world := mpi.NewWorld(ranks)
		world.Run(func(c *mpi.Comm) {
			r := c.Rank()
			d := NewDistMatrix(a, r, ranks)
			d.Setup(c)
			local := d.MulVec(c, x[off[r]:off[r]+sz[r]], 1)
			copy(got[off[r]:], local)
		})
		// Proxy columns are renumbered to the end of each local row, so
		// the summation order differs from the serial matvec; agreement
		// is to rounding, not bitwise.
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-5*(1+math.Abs(float64(want[i]))) {
				t.Fatalf("%d ranks: y[%d] = %v, want %v", ranks, i, got[i], want[i])
			}
		}
	}
}

func TestDistributedCGMatchesSerial(t *testing.T) {
	a := Poisson2D(8)
	xTrue := randomVec(a.Rows, 4)
	b := a.MulVec(xTrue)
	for _, ranks := range []int{2, 4} {
		got := make([]float32, a.Rows)
		off, sz := sched.Partition(a.Rows, ranks)
		world := mpi.NewWorld(ranks)
		world.Run(func(c *mpi.Comm) {
			r := c.Rank()
			d := NewDistMatrix(a, r, ranks)
			d.Setup(c)
			local, st := DistCG(c, d, b[off[r]:off[r]+sz[r]], 1e-6, 2000)
			if !st.Converged {
				t.Errorf("rank %d: DistCG did not converge: %+v", r, st)
			}
			copy(got[off[r]:], local)
		})
		for i := range xTrue {
			if math.Abs(float64(got[i]-xTrue[i])) > 1e-2 {
				t.Fatalf("%d ranks: x[%d] = %v, want %v", ranks, i, got[i], xTrue[i])
			}
		}
	}
}

func TestGPUMatVecMatchesCPU(t *testing.T) {
	dev := gpu.New(gpu.Config{TextureMemory: 64 << 20, Workers: 4})
	a := Poisson2D(9)
	g, err := NewGPUMatVec(dev, a)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	x := randomVec(a.Cols, 5)
	want := a.MulVec(x)
	got, err := g.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Two fetches per nonzero: the indirection then the value.
	if dev.Stats.Passes == 0 {
		t.Error("GPU matvec ran no passes")
	}
}

func TestGPUMatVecRandomMatrices(t *testing.T) {
	dev := gpu.New(gpu.Config{TextureMemory: 64 << 20, Workers: 2})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		var tr []Triplet
		for r := 0; r < n; r++ {
			tr = append(tr, Triplet{r, r, 1 + rng.Float32()})
			for k := 0; k < rng.Intn(4); k++ {
				tr = append(tr, Triplet{r, rng.Intn(n), rng.Float32() - 0.5})
			}
		}
		a := NewCSR(n, n, tr)
		g, err := NewGPUMatVec(dev, a)
		if err != nil {
			return false
		}
		defer g.Free()
		x := randomVec(n, seed+77)
		want := a.MulVec(x)
		got, err := g.MulVec(x)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-3*(1+math.Abs(float64(want[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	if d := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); d != 32 {
		t.Errorf("dot = %v", d)
	}
	if n := Norm2([]float32{3, 4}); math.Abs(n-5) > 1e-12 {
		t.Errorf("norm = %v", n)
	}
}
