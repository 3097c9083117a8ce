// Command lbmsim runs a parallel D3Q19 LBM simulation from flags: lattice
// size, node grid, backend (cpu or simulated gpu), boundary setup, and
// step count. It reports throughput and conservation diagnostics, and
// can write a velocity-slice PPM.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/lbmgpu"
	"gpucluster/internal/sched"
	"gpucluster/internal/vecmath"
	"gpucluster/internal/vis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags parse from
// args, the report prints to stdout, errors print to stderr, and the
// return value is the process exit code: 2 for a flag the simulation
// cannot take, 1 for a failure after that.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nx      = fs.Int("nx", 64, "lattice cells in x")
		ny      = fs.Int("ny", 48, "lattice cells in y")
		nz      = fs.Int("nz", 16, "lattice cells in z")
		nodes   = fs.Int("nodes", 4, "cluster nodes (arranged 2D)")
		steps   = fs.Int("steps", 100, "time steps")
		tau     = fs.Float64("tau", 0.6, "BGK relaxation time (>0.5)")
		backend = fs.String("backend", "cpu", "node backend: cpu | gpu")
		scene   = fs.String("scene", "channel", "scene: channel | cavity | periodic")
		mrt     = fs.Bool("mrt", false, "use the MRT collision operator (cpu backend only)")
		imgPath = fs.String("image", "", "write a mid-height velocity-slice PPM here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "lbmsim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lbmsim:", err)
		return 1
	}
	switch {
	case *nx <= 0 || *ny <= 0 || *nz <= 0:
		return usage("-nx %d -ny %d -nz %d: lattice extents must be positive", *nx, *ny, *nz)
	case *nodes <= 0:
		return usage("-nodes %d: cluster size must be positive", *nodes)
	case *steps <= 0:
		return usage("-steps %d: step count must be positive", *steps)
	case !(*tau > 0.5):
		return usage("-tau %v: BGK relaxation time must exceed 0.5", *tau)
	case *backend != "cpu" && *backend != "gpu":
		return usage("-backend %q: want cpu or gpu", *backend)
	case *backend == "gpu" && *mrt:
		return usage("-mrt is unsupported on the gpu backend")
	}

	cfg := cluster.Config{
		Global: [3]int{*nx, *ny, *nz},
		Grid:   sched.Arrange2D(*nodes),
		Tau:    float32(*tau),
		UseMRT: *mrt,
	}
	switch *scene {
	case "channel":
		cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.05, 0, 0}}
		cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		cfg.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Wall}
		cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Wall}
		cfg.Faces[lbm.FaceZNeg] = lbm.FaceSpec{Type: lbm.Wall}
		cfg.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Wall}
		// A block obstacle for a wake.
		cfg.Geometry = func(x, y, z int) bool {
			return x >= *nx/4 && x < *nx/4+*nx/10 &&
				y >= *ny/2-*ny/8 && y < *ny/2+*ny/8 && z < 3**nz/4
		}
	case "cavity":
		for f := range cfg.Faces {
			cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.MovingWall, U: vecmath.Vec3{0.08, 0, 0}}
	case "periodic":
		cfg.Force = vecmath.Vec3{1e-5, 0, 0}
	default:
		return usage("-scene %q: want channel, cavity or periodic", *scene)
	}

	if *backend == "gpu" {
		cfg.NewNode = func(_ int, sub *lbm.Lattice) (cluster.Node, error) {
			return lbmgpu.New(gpu.New(gpu.Config{TextureMemory: 512 << 20}), sub)
		}
	}

	sim, err := cluster.New(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "lattice %dx%dx%d, %d nodes (%v), backend=%s, scene=%s, tau=%.2f\n",
		*nx, *ny, *nz, cfg.Grid.Size(), cfg.Grid, *backend, *scene, *tau)

	m0 := sim.TotalMass()
	t0 := time.Now()
	sim.Run(*steps)
	wall := time.Since(t0)
	m1 := sim.TotalMass()

	cells := (*nx) * (*ny) * (*nz)
	fmt.Fprintf(stdout, "%d steps in %v: %.2f Mcells/s, %.1f ms/step\n",
		*steps, wall.Round(time.Millisecond),
		float64(cells)*float64(*steps)/wall.Seconds()/1e6,
		wall.Seconds()*1000/float64(*steps))
	fmt.Fprintf(stdout, "mass: %.1f -> %.1f (drift %.2e)\n", m0, m1, (m1-m0)/m0)

	if *imgPath != "" {
		vel := sim.GatherVelocity()
		f := &vis.VelocityField{NX: *nx, NY: *ny, NZ: *nz, V: vel}
		var seeds []vecmath.Vec3
		for i := 1; i < 12; i++ {
			seeds = append(seeds, vecmath.Vec3{1, float32(*ny*i) / 12, float32(*nz) / 2})
		}
		solid := cfg.Geometry
		im := vis.RenderStreamlinesTopDown(f, solid, seeds, 4**nx, 4**ny)
		out, err := os.Create(*imgPath)
		if err != nil {
			return fail(err)
		}
		defer out.Close()
		if err := im.WritePPM(out); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *imgPath)
	}
	return 0
}
