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
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gpucluster/internal/city"
	"gpucluster/internal/cluster"
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
	measured := measuredGPUCPU()
	fmt.Printf("%5s | %11s | %11s %19s %13s %11s | %11s\n",
		"nodes", "CPU total", "GPU comp", "GPU<->CPU", "net nonovl", "GPU total", "speedup")
	for i, r := range rows {
		p := perfmodel.PaperTable1[i]
		m, ok := measured[r.Nodes]
		cell := "-"
		if ok {
			cell = fmt.Sprintf("%.0f", ms(m))
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
	fmt.Println("GPU<->CPU measured: rank 0's simulated AGP time for one step of the functional simulator")
	fmt.Println("(lbmgpu.MeasureTransfer: 80^3 simulated-GPU ranks on 2x1x1, 2x2x1 and 2x2x2; - where not run)")
}

// measuredGPUCPU runs the functional simulator at the paper's size on
// the node counts the host can afford and returns rank 0's simulated
// GPU<->CPU time for one step, by node count.
func measuredGPUCPU() map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, g := range []sched.NodeGrid{{PX: 2, PY: 1, PZ: 1}, {PX: 2, PY: 2, PZ: 1}, {PX: 2, PY: 2, PZ: 2}} {
		steps, err := lbmgpu.MeasureTransfer(g, sub80, 1)
		if err != nil {
			fmt.Printf("measuring %v: %v\n", g, err)
			continue
		}
		out[g.Size()] = steps[0].Time()
	}
	return out
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
	fmt.Printf("texture-memory capacity: %d^3 lattice in 86 MB usable (paper: 92^3)\n", r.MaxLattice)
	fmt.Println("(paper reports ~8x for the newer FX 5900 Ultra vs a P4 2.53 GHz)")
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
