// Command paperbench regenerates every table and figure of the paper's
// evaluation (Section 4.4 and Section 5) plus the design-choice
// ablations A1-A4 of the calibration layer (docs/ARCHITECTURE.md,
// "Package map"), printing paper-reported values next to the model's and
// the functional simulator's outputs.
//
// Usage:
//
//	paperbench            # run everything
//	paperbench -exp table1
//	paperbench -list
//
// Experiments: table1, table2, fig8, fig9, fig10, strongscaling,
// singlegpu, economics, dispersion, ablation-diagonal, ablation-barrier,
// ablation-shape, ablation-pcie.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gpucluster/internal/city"
	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/lbmgpu"
	"gpucluster/internal/perfmodel"
	"gpucluster/internal/sched"
	"gpucluster/internal/tracer"
	"gpucluster/internal/vecmath"
)

var sub80 = [3]int{80, 80, 80}

var experiments = map[string]func(){
	"table1":            table1,
	"table2":            table2,
	"fig8":              fig8,
	"fig9":              fig9,
	"fig10":             fig10,
	"strongscaling":     strongScaling,
	"singlegpu":         singleGPU,
	"economics":         economics,
	"dispersion":        dispersion,
	"ablation-diagonal": ablationDiagonal,
	"ablation-barrier":  ablationBarrier,
	"ablation-shape":    ablationShape,
	"ablation-pcie":     ablationPCIe,
}

// order fixes the -exp all sequence.
var order = []string{
	"table1", "table2", "fig8", "fig9", "fig10", "strongscaling",
	"singlegpu", "economics", "dispersion",
	"ablation-diagonal", "ablation-barrier", "ablation-shape", "ablation-pcie",
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()
	if *list {
		names := make([]string, 0, len(experiments))
		for n := range experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	if *exp == "all" {
		for _, n := range order {
			experiments[n]()
			fmt.Println()
		}
		return
	}
	f, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	f()
}

func header(title string) {
	fmt.Println("=== " + title + " ===")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func table1() {
	header("Table 1: per-step execution time (ms), 80^3 per node (model / paper; GPU<->CPU also measured)")
	h := perfmodel.Paper()
	rows := h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
	priced := pricedGPUCPU()
	fmt.Printf("%5s | %11s | %11s %19s %13s %11s | %11s\n",
		"nodes", "CPU total", "GPU comp", "GPU<->CPU", "net nonovl", "GPU total", "speedup")
	for i, r := range rows {
		p := perfmodel.PaperTable1[i]
		cell := "-"
		if m, ok := priced[r.Nodes]; ok {
			cell = fmt.Sprintf("%.0f", ms(m.time))
		}
		fmt.Printf("%5d | %4.0f / %4.0f | %4.0f / %4.0f %4.0f / %4.0f / %4s %5.0f / %5.0f %4.0f / %4.0f | %4.2f / %4.2f\n",
			r.Nodes,
			ms(r.CPUTotal), p.CPUTotalMS,
			ms(r.GPUCompute), p.GPUComputeMS,
			ms(r.GPUCPUComm), p.GPUCPUCommMS, cell,
			ms(r.NetNonOverlap), p.NetNonOverMS,
			ms(r.GPUTotal), p.GPUTotalMS,
			r.Speedup, p.SpeedupFactor)
	}
	grids := make([]string, len(pricedNodes))
	for i, n := range pricedNodes {
		grids[i] = fmt.Sprintf("%s (rank %d)", sched.Arrange2D(n), priced[n].rank)
	}
	fmt.Println("GPU<->CPU measured: simulated AGP time for one step of the functional simulator on the")
	fmt.Printf("busiest rank of the model's %s grids, walled all round\n", strings.Join(grids, ", "))
	fmt.Println("(its step plan priced at 80^3 by lbmgpu.Plan.Cost, pinned equal to the executed step); - where not priced")
}

// pricedNodes are the node counts whose GPU<->CPU cell is priced.
var pricedNodes = []int{2, 4, 8}

// pricedCell is one priced GPU<->CPU cell: the rank whose step moves
// the most over the bus, the first of them on a tie, and its time.
type pricedCell struct {
	rank int
	time time.Duration
}

// pricedGPUCPU prices every rank's step plan at the paper's size on the
// model's grid (sched.Arrange2D) for each of pricedNodes and returns the
// busiest rank's GPU<->CPU time, by node count: walls on every side, so
// a rank exchanges across its faces toward the other ranks only.
func pricedGPUCPU() map[int]pricedCell {
	out := map[int]pricedCell{}
	for _, nodes := range pricedNodes {
		g := sched.Arrange2D(nodes)
		for rank := 0; rank < nodes; rank++ {
			i, j, k := g.Coords(rank)
			var faces [lbm.NumFaces]lbm.FaceSpec
			for dim, n := range [3]int{g.PX, g.PY, g.PZ} {
				at := [3]int{i, j, k}[dim]
				faces[2*dim] = rankFace(at > 0)
				faces[2*dim+1] = rankFace(at < n-1)
			}
			c := lbmgpu.NewPlan(sub80, faces).Cost(gpu.GeForceFX5800Ultra().Bus)
			if t := c.Up.Time + c.Down.Time; rank == 0 || t > out[nodes].time {
				out[nodes] = pricedCell{rank, t}
			}
		}
	}
	return out
}

// rankFace is a rank's face toward another rank (exchanged) or toward
// the domain's wall.
func rankFace(inner bool) lbm.FaceSpec {
	if inner {
		return lbm.FaceSpec{Type: lbm.Ghost}
	}
	return lbm.FaceSpec{Type: lbm.Wall}
}

func table2() {
	header("Table 2: throughput, scaling speedup, efficiency (model / paper)")
	h := perfmodel.Paper()
	rows := perfmodel.Throughput(h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80))
	fmt.Printf("%5s | %15s | %13s | %13s\n", "nodes", "Mcells/s", "speedup", "efficiency")
	for i, r := range rows {
		p := perfmodel.PaperTable2[i]
		fmt.Printf("%5d | %5.1f / %5.1f | %5.2f / %5.2f | %4.1f%% / %4.1f%%\n",
			r.Nodes, r.CellsPerSec/1e6, p.CellsPerSec/1e6,
			r.Speedup, p.Speedup, 100*r.Efficiency, 100*p.Efficiency)
	}
}

func fig8() {
	header("Figure 8: network communication time (ms): overlapped vs non-overlapping")
	h := perfmodel.Paper()
	rows := h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
	fmt.Printf("%5s | %9s %12s %14s\n", "nodes", "total", "overlapped", "non-overlap")
	for _, r := range rows {
		over := r.NetTotal - r.NetNonOverlap
		fmt.Printf("%5d | %8.0f  %10.0f  %12.0f   %s\n",
			r.Nodes, ms(r.NetTotal), ms(over), ms(r.NetNonOverlap),
			bar(ms(r.NetTotal), 170, '#'))
	}
}

func fig9() {
	header("Figure 9: GPU cluster / CPU cluster speedup factor")
	h := perfmodel.Paper()
	for _, r := range h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80) {
		fmt.Printf("%5d | %5.2f  %s\n", r.Nodes, r.Speedup, bar(r.Speedup, 7, '*'))
	}
}

func fig10() {
	header("Figure 10: efficiency of the GPU cluster")
	h := perfmodel.Paper()
	rows := perfmodel.Throughput(h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80))
	for _, r := range rows {
		fmt.Printf("%5d | %5.1f%%  %s\n", r.Nodes, 100*r.Efficiency, bar(r.Efficiency, 1, '*'))
	}
}

func bar(v, max float64, c byte) string {
	n := int(v / max * 50)
	if n < 0 {
		n = 0
	}
	if n > 60 {
		n = 60
	}
	return strings.Repeat(string(c), n)
}

func strongScaling() {
	header("Strong scaling (Sec 4.4): fixed 160x160x80 lattice (paper: 5.3 at 4 nodes -> 2.4 at 16)")
	h := perfmodel.Paper()
	rows, err := h.StrongScaling([3]int{160, 160, 80}, []int{4, 8, 16, 32})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%5s %12s %11s %11s %9s\n", "nodes", "sub-domain", "CPU (ms)", "GPU (ms)", "speedup")
	for _, r := range rows {
		fmt.Printf("%5d %4dx%3dx%3d %11.0f %11.0f %9.2f\n",
			r.Nodes, r.SubDomain[0], r.SubDomain[1], r.SubDomain[2],
			ms(r.CPUTotal), ms(r.GPUTotal), r.Speedup)
	}
}

func singleGPU() {
	header("Single GPU vs CPU (Sec 4.2)")
	h := perfmodel.Paper()
	r := h.SingleGPU()
	fmt.Printf("GPU rate: %.2f Mcells/s   CPU rate: %.2f Mcells/s   speedup: %.1fx\n",
		r.GPUCellsPerSec/1e6, r.CPUCellsPerSec/1e6, r.Speedup)
	fmt.Printf("texture-memory capacity: %d^3 lattice in the simulator's 86 MB usable (paper: %d^3)\n",
		simulatorMaxLattice(), perfmodel.PaperMaxLattice)
	fmt.Println("(paper reports ~8x for the newer FX 5900 Ultra vs a P4 2.53 GHz)")
}

// simulatorMaxLattice is the largest n for which lbmgpu.New fits an n^3
// lattice on the paper's card, searched down from the paper's figure.
// What the simulator allocates depends on the extents alone, so the
// lattice is left unset (its pages untouched) and nothing is stepped.
func simulatorMaxLattice() int {
	for n := perfmodel.PaperMaxLattice; n > 0; n-- {
		_, err := lbmgpu.New(gpu.New(gpu.GeForceFX5800Ultra()), lbm.New(n, n, n, 0.8))
		if err == nil {
			return n
		}
		if !errors.Is(err, gpu.ErrOutOfMemory) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	return 0
}

func economics() {
	header("Economics (Sec 3)")
	e := perfmodel.Economics()
	fmt.Printf("added peak:   %.0f GFlops (32 x 16 GFlops GPUs)\n", e.AddedGFlops)
	fmt.Printf("added cost:   $%.0f (32 x $399)\n", e.AddedCostUSD)
	fmt.Printf("ratio:        %.1f MFlops peak/$ (paper: 41.1)\n", e.MFlopsPerDollar)
	fmt.Printf("cluster peak: %.0f GFlops (CPU+GPU)\n", e.TotalPeakGFlops)
}

func dispersion() {
	header("Dispersion (Sec 5, scaled-down functional run): synthetic Times Square")
	c := city.Generate(city.Config{})
	const nx, ny, nz = 96, 64, 16
	spacing := c.WidthM / float64(nx-16)
	vox := c.Voxelize(nx, ny, nz, spacing)
	fmt.Printf("city: %d blocks, %d buildings, tallest %.0f m\n",
		c.Blocks, len(c.Buildings), c.MaxHeight())
	fmt.Printf("lattice: %dx%dx%d at %.1f m spacing, %.1f%% solid\n",
		nx, ny, nz, spacing, 100*vox.SolidFraction())

	cfg := cluster.Config{
		Global:   [3]int{nx, ny, nz},
		Grid:     sched.NodeGrid{PX: 2, PY: 2, PZ: 1},
		Tau:      0.55,
		Geometry: vox.Geometry(),
	}
	// Northeasterly wind: inflow on +x face toward -x and -y.
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{-0.06, -0.02, 0}}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Outflow}
	cfg.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Outflow}
	cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Outflow}
	cfg.Faces[lbm.FaceZNeg] = lbm.FaceSpec{Type: lbm.Wall}
	cfg.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Outflow}
	sim, err := cluster.New(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	const steps = 60
	t0 := time.Now()
	sim.Run(steps)
	wall := time.Since(t0)
	cells := nx * ny * nz
	fmt.Printf("flow: %d steps on %d nodes in %v (%.2f Mcells/s functional)\n",
		steps, cfg.Grid.Size(), wall.Round(time.Millisecond),
		float64(cells)*steps/wall.Seconds()/1e6)

	den := sim.GatherDensity()
	vel := sim.GatherVelocity()
	cloud := tracer.NewCloud(7)
	cloud.Release(nx-10, ny/2, 2, 3000)
	field := tracer.FromMacro(nx, ny, nz, den, vel, vox.IsSolid)
	for s := 0; s < 120; s++ {
		cloud.Step(field)
	}
	cen := cloud.Centroid()
	fmt.Printf("tracer: 3000 particles, centroid after 120 steps: (%.1f, %.1f, %.1f) — released at (%d, %d, 2)\n",
		cen[0], cen[1], cen[2], nx-10, ny/2)
	fmt.Println("(full-scale figure: 480x400x80 at 3.8 m on 30 nodes, 0.31 s/step modeled — see table1)")
}

func ablationDiagonal() {
	header("Ablation A1: indirect (paper) vs direct diagonal exchange — network ms")
	h := perfmodel.Paper()
	fmt.Printf("%5s %12s %12s\n", "nodes", "indirect", "direct")
	for _, row := range h.AblationDiagonal([]int{4, 8, 16, 24, 32}, sub80) {
		fmt.Printf("%5d %12.0f %12.0f\n", row.Nodes, ms(row.Baseline.NetTotal), ms(row.Variant.NetTotal))
	}
}

func ablationBarrier() {
	header("Ablation A2: barrier-synchronized vs free-running schedule — network ms (crossover ~16)")
	h := perfmodel.Paper()
	fmt.Printf("%5s %12s %12s\n", "nodes", "barrier", "free-run")
	for _, row := range h.AblationBarrier([]int{2, 4, 8, 12, 16, 20, 24, 32}, sub80) {
		fmt.Printf("%5d %12.1f %12.1f\n", row.Nodes, ms(row.Baseline.NetTotal), ms(row.Variant.NetTotal))
	}
}

func ablationShape() {
	header("Ablation A3: sub-domain shape at equal volume (8 nodes, 3D split)")
	h := perfmodel.Paper()
	for _, r := range h.AblationShape(8) {
		fmt.Printf("%-16s GPU total %6.0f ms (GPU<->CPU %4.0f, net %4.0f)\n",
			r.Label, ms(r.Breakdown.GPUTotal), ms(r.Breakdown.GPUCPUComm), ms(r.Breakdown.NetTotal))
	}
}

func ablationPCIe() {
	header("Ablation A4: AGP 8x vs PCI-Express x16 read-back (paper Sec 3/4.4 projection)")
	h := perfmodel.Paper()
	fmt.Printf("%5s %14s %14s %14s %14s\n", "nodes", "AGP comm", "PCIe comm", "AGP total", "PCIe total")
	for _, row := range h.AblationPCIe([]int{2, 8, 16, 30}, sub80) {
		fmt.Printf("%5d %14.0f %14.0f %14.0f %14.0f\n", row.Nodes,
			ms(row.Baseline.GPUCPUComm), ms(row.Variant.GPUCPUComm),
			ms(row.Baseline.GPUTotal), ms(row.Variant.GPUTotal))
	}
}
