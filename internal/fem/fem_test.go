package fem

import (
	"math"
	"testing"

	"gpucluster/internal/mpi"
	"gpucluster/internal/sched"
	"gpucluster/internal/sparse"
)

func TestMeshStructure(t *testing.T) {
	m := NewUnitSquareMesh(4)
	if len(m.Nodes) != 25 {
		t.Errorf("nodes = %d, want 25", len(m.Nodes))
	}
	if len(m.Tris) != 32 {
		t.Errorf("triangles = %d, want 32", len(m.Tris))
	}
	// Total area is 1.
	var area float64
	for _, tri := range m.Tris {
		area += triArea(m.Nodes[tri[0]], m.Nodes[tri[1]], m.Nodes[tri[2]])
	}
	if math.Abs(area-1) > 1e-12 {
		t.Errorf("total area = %v", area)
	}
	// Boundary census: 16 boundary nodes on a 5x5 grid.
	nb := 0
	for n := range m.Nodes {
		if m.Boundary(n) {
			nb++
		}
	}
	if nb != 16 {
		t.Errorf("boundary nodes = %d, want 16", nb)
	}
}

func TestStiffnessMatrixSymmetricPositive(t *testing.T) {
	f, _ := ManufacturedSolution()
	s := Assemble(NewUnitSquareMesh(6), f)
	a := s.A
	// Symmetry.
	get := func(r, c int) float32 {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if a.ColIdx[k] == c {
				return a.Val[k]
			}
		}
		return 0
	}
	for r := 0; r < a.Rows; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			c := a.ColIdx[k]
			if math.Abs(float64(a.Val[k]-get(c, r))) > 1e-5 {
				t.Fatalf("asymmetric at (%d,%d): %v vs %v", r, c, a.Val[k], get(c, r))
			}
		}
	}
	// Positive diagonal (structured P1 Laplacian has 4 on the diagonal).
	for _, d := range a.Diagonal() {
		if d <= 0 {
			t.Fatal("non-positive diagonal")
		}
	}
}

func TestSolveManufacturedSolution(t *testing.T) {
	f, exact := ManufacturedSolution()
	s := Assemble(NewUnitSquareMesh(16), f)
	u, st := s.Solve(1e-8, 2000)
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	if err := s.MaxError(u, exact); err > 0.01 {
		t.Errorf("max error = %v, want < 0.01 on a 16x16 mesh", err)
	}
}

func TestConvergenceOrder(t *testing.T) {
	// P1 elements are second order: halving h quarters the error
	// (roughly; accept a factor of 3 to be robust to float32 assembly).
	f, exact := ManufacturedSolution()
	errAt := func(n int) float64 {
		s := Assemble(NewUnitSquareMesh(n), f)
		u, st := s.Solve(1e-9, 4000)
		if !st.Converged {
			t.Fatalf("mesh %d did not converge", n)
		}
		return s.MaxError(u, exact)
	}
	e8 := errAt(8)
	e16 := errAt(16)
	if ratio := e8 / e16; ratio < 3 {
		t.Errorf("convergence ratio %v too small (e8=%v e16=%v)", ratio, e8, e16)
	}
}

func TestDistributedFEMSolveMatchesSerial(t *testing.T) {
	// The assembled FEM system solved with the cluster's distributed CG
	// — the full Section 6 FEM-on-the-GPU-cluster path.
	f, exact := ManufacturedSolution()
	s := Assemble(NewUnitSquareMesh(12), f)
	const ranks = 4
	got := make([]float32, s.A.Rows)
	off, sz := sched.Partition(s.A.Rows, ranks)
	world := mpi.NewWorld(ranks)
	world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		d := sparse.NewDistMatrix(s.A, r, ranks)
		d.Setup(c)
		local, st := sparse.DistCG(c, d, s.B[off[r]:off[r]+sz[r]], 1e-8, 2000)
		if !st.Converged {
			t.Errorf("rank %d: not converged", r)
		}
		copy(got[off[r]:], local)
	})
	u := s.expand(got)
	if err := s.MaxError(u, exact); err > 0.02 {
		t.Errorf("distributed FEM error = %v", err)
	}
}

func TestInvalidMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUnitSquareMesh(0)
}
