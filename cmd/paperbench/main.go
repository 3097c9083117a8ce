// Command paperbench regenerates every table and figure of the paper's
// evaluation (Section 4.4 and Section 5) plus the design-choice
// ablations A1-A4 of the calibration layer (docs/ARCHITECTURE.md,
// "Package map"), printing paper-reported values next to the model's and
// the functional simulator's outputs. Everything on stdout is
// deterministic and pinned byte for byte by TestPaperbenchGolden
// (cmd/paperbench/testdata/paperbench.txt); each experiment's wall time
// goes to stderr.
//
// Usage:
//
//	paperbench            # run everything
//	paperbench -exp table1
//	paperbench -list      # the experiments, in -exp all order
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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

// experiments are the -exp names, in -exp all order.
var experiments = []struct {
	name string
	run  func(io.Writer) error
}{
	{"table1", table1},
	{"table2", table2},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"strongscaling", strongScaling},
	{"errors", modelErrors},
	{"singlegpu", singleGPU},
	{"economics", economics},
	{"dispersion", dispersion},
	{"ablation-diagonal", ablationDiagonal},
	{"ablation-barrier", ablationBarrier},
	{"ablation-shape", ablationShape},
	{"ablation-pcie", ablationPCIe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags parse from
// args, experiments print to stdout, wall times and errors to stderr,
// and the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (or 'all')")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range experiments {
			fmt.Fprintln(stdout, e.name)
		}
		return 0
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		t0 := time.Now()
		if err := e.run(stdout); err != nil {
			fmt.Fprintf(stderr, "paperbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "paperbench: %s in %v\n", e.name, time.Since(t0).Round(time.Millisecond))
		if *exp == "all" {
			fmt.Fprintln(stdout)
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "paperbench: unknown experiment %q (use -list)\n", *exp)
		return 2
	}
	return 0
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w, "=== "+title+" ===")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func table1(w io.Writer) error {
	header(w, "Table 1: per-step execution time (ms), 80^3 per node (model / paper; GPU<->CPU also measured)")
	h := perfmodel.Paper()
	rows := h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
	priced := pricedGPUCPU()
	fmt.Fprintf(w, "%5s | %11s | %11s %19s %13s %11s | %11s\n",
		"nodes", "CPU total", "GPU comp", "GPU<->CPU", "net nonovl", "GPU total", "speedup")
	for i, r := range rows {
		p := perfmodel.PaperTable1[i]
		cell := "-"
		if m, ok := priced[r.Nodes]; ok {
			cell = fmt.Sprintf("%.0f", ms(m.time))
		}
		fmt.Fprintf(w, "%5d | %4.0f / %4.0f | %4.0f / %4.0f %4.0f / %4.0f / %4s %5.0f / %5.0f %4.0f / %4.0f | %4.2f / %4.2f\n",
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
	fmt.Fprintln(w, "GPU<->CPU measured: simulated AGP time for one step of the functional simulator on the")
	fmt.Fprintf(w, "busiest rank of the model's %s grids, walled all round\n", strings.Join(grids, ", "))
	fmt.Fprintln(w, "(its step plan priced at 80^3 by lbmgpu.Plan.Cost, pinned equal to the executed step); - where not priced")
	return nil
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

func table2(w io.Writer) error {
	header(w, "Table 2: throughput, scaling speedup, efficiency (model / paper)")
	h := perfmodel.Paper()
	rows := perfmodel.Throughput(h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80))
	fmt.Fprintf(w, "%5s | %15s | %13s | %13s\n", "nodes", "Mcells/s", "speedup", "efficiency")
	for i, r := range rows {
		p := perfmodel.PaperTable2[i]
		fmt.Fprintf(w, "%5d | %5.1f / %5.1f | %5.2f / %5.2f | %4.1f%% / %4.1f%%\n",
			r.Nodes, r.CellsPerSec/1e6, p.CellsPerSec/1e6,
			r.Speedup, p.Speedup, 100*r.Efficiency, 100*p.Efficiency)
	}
	return nil
}

func fig8(w io.Writer) error {
	header(w, "Figure 8: network communication time (ms): overlapped vs non-overlapping")
	h := perfmodel.Paper()
	rows := h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
	fmt.Fprintf(w, "%5s | %9s %12s %14s\n", "nodes", "total", "overlapped", "non-overlap")
	for _, r := range rows {
		over := r.NetTotal - r.NetNonOverlap
		fmt.Fprintf(w, "%5d | %8.0f  %10.0f  %12.0f   %s\n",
			r.Nodes, ms(r.NetTotal), ms(over), ms(r.NetNonOverlap),
			bar(ms(r.NetTotal), 170, '#'))
	}
	return nil
}

func fig9(w io.Writer) error {
	header(w, "Figure 9: GPU cluster / CPU cluster speedup factor")
	h := perfmodel.Paper()
	for _, r := range h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80) {
		fmt.Fprintf(w, "%5d | %5.2f  %s\n", r.Nodes, r.Speedup, bar(r.Speedup, 7, '*'))
	}
	return nil
}

func fig10(w io.Writer) error {
	header(w, "Figure 10: efficiency of the GPU cluster")
	h := perfmodel.Paper()
	rows := perfmodel.Throughput(h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80))
	for _, r := range rows {
		fmt.Fprintf(w, "%5d | %5.1f%%  %s\n", r.Nodes, 100*r.Efficiency, bar(r.Efficiency, 1, '*'))
	}
	return nil
}

func bar(v, full float64, c byte) string {
	return strings.Repeat(string(c), min(max(int(v/full*50), 0), 60))
}

func strongScaling(w io.Writer) error {
	g := perfmodel.PaperStrongScalingLattice
	paper := make([]string, len(perfmodel.PaperStrongScaling))
	for i, p := range perfmodel.PaperStrongScaling {
		paper[i] = fmt.Sprintf("%g at %d", p.Speedup, p.Nodes)
	}
	header(w, fmt.Sprintf("Strong scaling (Sec 4.4): fixed %dx%dx%d lattice (paper: %s)",
		g[0], g[1], g[2], strings.Join(paper, " nodes -> ")))
	rows, err := perfmodel.Paper().StrongScaling(g, []int{4, 8, 16, 32})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%5s %12s %11s %11s %9s\n", "nodes", "sub-domain", "CPU (ms)", "GPU (ms)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %4dx%3dx%3d %11.0f %11.0f %9.2f\n",
			r.Nodes, r.SubDomain[0], r.SubDomain[1], r.SubDomain[2],
			ms(r.CPUTotal), ms(r.GPUTotal), r.Speedup)
	}
	return nil
}

// modelErrors prints the calibrated model against the paper cell by
// cell: every cell of Table 1 and Table 2 and the strong-scaling
// paragraph's speed-ups, each with the model's figure, the paper's and
// the error (relative, or in the cell's unit where the paper reads 0). A
// change to a constant of perfmodel.Paper() or to how the model composes
// them shows in the golden as the lines it moves.
func modelErrors(w io.Writer) error {
	header(w, "Model vs paper, cell by cell (error relative, or absolute where the paper reads 0)")
	cell := func(table string, nodes int, column string, model, paper float64) {
		fmt.Fprintf(w, "%s %2d nodes %-14s model %9.3f paper %8.3f", table, nodes, column, model, paper)
		if paper != 0 {
			fmt.Fprintf(w, " error %+7.2f%%\n", 100*(model-paper)/paper)
		} else {
			fmt.Fprintf(w, " error %+7.3f\n", model)
		}
	}
	h := perfmodel.Paper()
	rows := h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
	for i, r := range rows {
		p := perfmodel.PaperTable1[i]
		cell("table1", r.Nodes, "cpu_total_ms", ms(r.CPUTotal), p.CPUTotalMS)
		cell("table1", r.Nodes, "gpu_compute_ms", ms(r.GPUCompute), p.GPUComputeMS)
		cell("table1", r.Nodes, "gpu_cpu_ms", ms(r.GPUCPUComm), p.GPUCPUCommMS)
		cell("table1", r.Nodes, "net_nonovl_ms", ms(r.NetNonOverlap), p.NetNonOverMS)
		cell("table1", r.Nodes, "net_total_ms", ms(r.NetTotal), p.NetTotalMS)
		cell("table1", r.Nodes, "gpu_total_ms", ms(r.GPUTotal), p.GPUTotalMS)
		cell("table1", r.Nodes, "speedup", r.Speedup, p.SpeedupFactor)
	}
	for i, r := range perfmodel.Throughput(rows) {
		p := perfmodel.PaperTable2[i]
		cell("table2", r.Nodes, "mcells_per_s", r.CellsPerSec/1e6, p.CellsPerSec/1e6)
		cell("table2", r.Nodes, "speedup", r.Speedup, p.Speedup)
		cell("table2", r.Nodes, "efficiency", r.Efficiency, p.Efficiency)
	}
	for _, p := range perfmodel.PaperStrongScaling {
		r, err := h.StrongScaling(perfmodel.PaperStrongScalingLattice, []int{p.Nodes})
		if err != nil {
			return err
		}
		cell("strong", p.Nodes, "speedup", r[0].Speedup, p.Speedup)
	}
	return nil
}

func singleGPU(w io.Writer) error {
	header(w, "Single GPU vs CPU (Sec 4.2)")
	r := perfmodel.Paper().SingleGPU()
	fmt.Fprintf(w, "GPU rate: %.2f Mcells/s   CPU rate: %.2f Mcells/s   speedup: %.1fx\n",
		r.GPUCellsPerSec/1e6, r.CPUCellsPerSec/1e6, r.Speedup)
	n, err := simulatorMaxLattice()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "texture-memory capacity: %d^3 lattice in the simulator's %d MB usable (paper: %d^3)\n",
		n, gpu.New(gpu.GeForceFX5800Ultra()).UsableMemory()>>20, perfmodel.PaperMaxLattice)
	fmt.Fprintln(w, "(paper reports ~8x for the newer FX 5900 Ultra vs a P4 2.53 GHz)")
	return nil
}

// simulatorMaxLattice is the largest n for which lbmgpu.New fits an n^3
// lattice on the paper's card, searched down from the paper's figure.
// What the simulator allocates depends on the extents alone, so the
// lattice is left unset (its pages untouched) and nothing is stepped.
func simulatorMaxLattice() (int, error) {
	for n := perfmodel.PaperMaxLattice; n > 0; n-- {
		_, err := lbmgpu.New(gpu.New(gpu.GeForceFX5800Ultra()), lbm.New(n, n, n, 0.8))
		if err == nil {
			return n, nil
		}
		if !errors.Is(err, gpu.ErrOutOfMemory) {
			return 0, err
		}
	}
	return 0, nil
}

func economics(w io.Writer) error {
	header(w, "Economics (Sec 3)")
	e := perfmodel.Economics()
	fmt.Fprintf(w, "added peak:   %.0f GFlops (%d x %d GFlops GPUs)\n",
		e.AddedGFlops, perfmodel.PaperNodes, perfmodel.PaperGPUPeakGFlops)
	fmt.Fprintf(w, "added cost:   $%.0f (%d x $%d)\n", e.AddedCostUSD, perfmodel.PaperNodes, perfmodel.PaperGPUPriceUSD)
	fmt.Fprintf(w, "ratio:        %.1f MFlops peak/$ (paper: 41.1)\n", e.MFlopsPerDollar)
	fmt.Fprintf(w, "cluster peak: %.0f GFlops (CPU+GPU)\n", e.TotalPeakGFlops)
	return nil
}

func dispersion(w io.Writer) error {
	header(w, "Dispersion (Sec 5, scaled-down functional run): synthetic Times Square")
	c := city.Generate(city.Config{})
	fmt.Fprintf(w, "district: %.2f x %.2f km, %d blocks, %d buildings, tallest %.0f m (paper: 1.66 x 1.13 km, 91 blocks, ~850 buildings)\n",
		c.WidthM/1000, c.DepthM/1000, c.Blocks, len(c.Buildings), c.MaxHeight())

	// The paper's run: the district on a 480x400x80 lattice at 3.8 m
	// over 30 nodes.
	full := [3]int{480, 400, 80}
	const fullSpacing, fullNodes = 3.8, 30
	fv := c.Voxelize(full[0], full[1], full[2], fullSpacing)
	fs, err := perfmodel.Paper().StrongScaling(full, []int{fullNodes})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "full scale: %dx%dx%d at %.1f m, %.1f%% of ground cells and %.1f%% of volume solid\n",
		full[0], full[1], full[2], fullSpacing, 100*fv.FootprintFraction(), 100*fv.SolidFraction())
	fmt.Fprintf(w, "full scale on %d nodes (%s of %dx%dx%d): model %.0f ms/step (paper: 0.31 s/step)\n",
		fullNodes, fs[0].Grid, fs[0].SubDomain[0], fs[0].SubDomain[1], fs[0].SubDomain[2], ms(fs[0].GPUTotal))

	const nx, ny, nz = 96, 64, 16
	spacing := c.WidthM / float64(nx-16)
	vox := c.Voxelize(nx, ny, nz, spacing)
	fmt.Fprintf(w, "lattice: %dx%dx%d at %.1f m spacing, %.1f%% solid\n",
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
		return err
	}
	const steps = 60
	sim.Run(steps)
	fmt.Fprintf(w, "flow: %d steps on %d nodes\n", steps, cfg.Grid.Size())

	den := sim.GatherDensity()
	vel := sim.GatherVelocity()
	cloud := tracer.NewCloud(7)
	cloud.Release(nx-10, ny/2, 2, 3000)
	field := tracer.FromMacro(nx, ny, nz, den, vel, vox.IsSolid)
	for s := 0; s < 120; s++ {
		cloud.Step(field)
	}
	cen := cloud.Centroid()
	fmt.Fprintf(w, "tracer: 3000 particles, centroid after 120 steps: (%.1f, %.1f, %.1f) — released at (%d, %d, 2)\n",
		cen[0], cen[1], cen[2], nx-10, ny/2)
	return nil
}

func ablationDiagonal(w io.Writer) error {
	header(w, "Ablation A1: indirect (paper) vs direct diagonal exchange — network ms")
	h := perfmodel.Paper()
	fmt.Fprintf(w, "%5s %12s %12s\n", "nodes", "indirect", "direct")
	for _, row := range h.AblationDiagonal([]int{4, 8, 16, 24, 32}, sub80) {
		fmt.Fprintf(w, "%5d %12.0f %12.0f\n", row.Nodes, ms(row.Baseline.NetTotal), ms(row.Variant.NetTotal))
	}
	return nil
}

func ablationBarrier(w io.Writer) error {
	header(w, "Ablation A2: barrier-synchronized vs free-running schedule — network ms (crossover ~16)")
	h := perfmodel.Paper()
	fmt.Fprintf(w, "%5s %12s %12s\n", "nodes", "barrier", "free-run")
	for _, row := range h.AblationBarrier([]int{2, 4, 8, 12, 16, 20, 24, 32}, sub80) {
		fmt.Fprintf(w, "%5d %12.1f %12.1f\n", row.Nodes, ms(row.Baseline.NetTotal), ms(row.Variant.NetTotal))
	}
	return nil
}

func ablationShape(w io.Writer) error {
	header(w, "Ablation A3: sub-domain shape at equal volume (8 nodes, 3D split)")
	h := perfmodel.Paper()
	for _, r := range h.AblationShape(8) {
		fmt.Fprintf(w, "%-16s GPU total %6.0f ms (GPU<->CPU %4.0f, net %4.0f)\n",
			r.Label, ms(r.Breakdown.GPUTotal), ms(r.Breakdown.GPUCPUComm), ms(r.Breakdown.NetTotal))
	}
	return nil
}

func ablationPCIe(w io.Writer) error {
	header(w, "Ablation A4: AGP 8x vs PCI-Express x16 read-back (paper Sec 3/4.4 projection)")
	h := perfmodel.Paper()
	fmt.Fprintf(w, "%5s %14s %14s %14s %14s\n", "nodes", "AGP comm", "PCIe comm", "AGP total", "PCIe total")
	for _, row := range h.AblationPCIe([]int{2, 8, 16, 30}, sub80) {
		fmt.Fprintf(w, "%5d %14.0f %14.0f %14.0f %14.0f\n", row.Nodes,
			ms(row.Baseline.GPUCPUComm), ms(row.Variant.GPUCPUComm),
			ms(row.Baseline.GPUTotal), ms(row.Variant.GPUTotal))
	}
	return nil
}
