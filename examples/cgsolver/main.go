// CGSolver: the sparse-linear-system path of Section 6 — a Poisson
// problem discretized with P1 finite elements, solved three ways:
// serial conjugate gradients, the cluster-distributed CG with the
// matrix/vector decomposition of Figure 15, and with the matvec executed
// on a simulated GPU through indirection textures.
package main

import (
	"fmt"
	"log"
	"math"

	"gpucluster/internal/fem"
	"gpucluster/internal/gpu"
	"gpucluster/internal/mpi"
	"gpucluster/internal/sched"
	"gpucluster/internal/sparse"
)

func main() {
	f, exact := fem.ManufacturedSolution()
	mesh := fem.NewUnitSquareMesh(24)
	sys := fem.Assemble(mesh, f)
	fmt.Printf("FEM: %d nodes, %d triangles, %d unknowns, %d nonzeros\n",
		len(mesh.Nodes), len(mesh.Tris), sys.A.Rows, sys.A.NNZ())

	// 1. Serial CG.
	u, st := sys.Solve(1e-8, 4000)
	fmt.Printf("serial CG:      %d iterations, residual %.2e, max error %.4f\n",
		st.Iterations, st.Residual, sys.MaxError(u, exact))

	// 2. Distributed CG over 4 goroutine-nodes.
	const ranks = 4
	got := make([]float32, sys.A.Rows)
	off, sz := sched.Partition(sys.A.Rows, ranks)
	world := mpi.NewWorld(ranks)
	var distIters int
	world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		d := sparse.NewDistMatrix(sys.A, r, ranks)
		d.Setup(c)
		local, st := sparse.DistCG(c, d, sys.B[off[r]:off[r]+sz[r]], 1e-8, 4000)
		if !st.Converged {
			log.Fatalf("rank %d did not converge", r)
		}
		if r == 0 {
			distIters = st.Iterations
		}
		copy(got[off[r]:], local)
	})
	var maxDiff float64
	for i := range got {
		if d := math.Abs(float64(got[i] - u0(sys, u, i))); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("distributed CG: %d iterations on %d nodes, max |x_dist - x_serial| = %.2e\n",
		distIters, ranks, maxDiff)

	// 3. GPU matvec through indirection textures.
	dev := gpu.New(gpu.Config{TextureMemory: 128 << 20})
	gm, err := sparse.NewGPUMatVec(dev, sys.A)
	if err != nil {
		log.Fatal(err)
	}
	defer gm.Free()
	x := make([]float32, sys.A.Cols)
	for i := range x {
		x[i] = float32(math.Sin(float64(i)))
	}
	want := sys.A.MulVec(x)
	gy, err := gm.MulVec(x)
	if err != nil {
		log.Fatal(err)
	}
	var gpuErr float64
	for i := range want {
		if d := math.Abs(float64(gy[i] - want[i])); d > gpuErr {
			gpuErr = d
		}
	}
	fmt.Printf("GPU matvec:     max |A_gpu x - A x| = %.2e (%d passes)\n", gpuErr, dev.Stats.Passes)
}

// u0 reads back the serial interior solution for unknown i.
func u0(sys *fem.System, u []float64, i int) float32 {
	return float32(u[sys.Interior[i]])
}
