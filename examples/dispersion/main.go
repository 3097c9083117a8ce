// Dispersion: the paper's Section 5 application at laptop scale — wind
// over a synthetic Times Square district computed by the parallel LBM on
// a 2x2 GPU-node cluster, followed by tracer-particle contaminant
// transport, with Figure 12-style streamlines and a Figure 13-style
// plume projection written as PPM images.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"gpucluster/internal/city"
	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/lbmgpu"
	"gpucluster/internal/sched"
	"gpucluster/internal/tracer"
	"gpucluster/internal/vecmath"
	"gpucluster/internal/vis"
)

func main() {
	// Synthetic district (91 blocks, ~850 buildings) voxelized onto a
	// modest lattice. The paper ran 480x400x80 at 3.8 m on 30 nodes;
	// here 64x40x10 at ~30 m on 4 simulated-GPU nodes.
	c := city.Generate(city.Config{})
	const nx, ny, nz = 64, 40, 10
	spacing := c.WidthM / float64(nx-8)
	vox := c.Voxelize(nx, ny, nz, spacing)
	fmt.Printf("district: %d blocks, %d buildings; lattice %dx%dx%d at %.1f m (%.1f%% solid)\n",
		c.Blocks, len(c.Buildings), nx, ny, nz, spacing, 100*vox.SolidFraction())

	cfg := cluster.Config{
		Global:   [3]int{nx, ny, nz},
		Grid:     sched.NodeGrid{PX: 2, PY: 2, PZ: 1},
		Tau:      0.8,
		Geometry: vox.Geometry(),
		NewNode: func(_ int, sub *lbm.Lattice) (cluster.Node, error) {
			return lbmgpu.New(gpu.New(gpu.Config{TextureMemory: 512 << 20}), sub)
		},
	}
	// Northeasterly wind, as in the paper: inflow on the +x face.
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{-0.025, -0.008, 0}}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Outflow}
	cfg.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Outflow}
	cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Outflow}
	cfg.Faces[lbm.FaceZNeg] = lbm.FaceSpec{Type: lbm.Wall}
	cfg.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Outflow}

	sim, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const flowSteps = 40
	t0 := time.Now()
	sim.Run(flowSteps)
	fmt.Printf("flow: %d steps on %d GPU nodes\n", flowSteps, cfg.Grid.Size())
	fmt.Fprintf(os.Stderr, "flow wall time: %v\n", time.Since(t0).Round(time.Millisecond))

	den := sim.GatherDensity()
	vel := sim.GatherVelocity()

	// Figure 12: streamlines over the footprint.
	field := &vis.VelocityField{NX: nx, NY: ny, NZ: nz, V: vel}
	var seeds []vecmath.Vec3
	for i := 1; i < 16; i++ {
		seeds = append(seeds, vecmath.Vec3{float32(nx - 3), float32(ny*i) / 16, 4})
	}
	im := vis.RenderStreamlinesTopDown(field, vox.IsSolid, seeds, 4*nx, 4*ny)
	writePPM("streamlines.ppm", im)

	// Section 5: after the flow develops, release tracer particles and
	// let them propagate along lattice links. The release site must be a
	// street cell, not inside a building — search near the upwind edge.
	// Prefer a spot with developed wind: roof level, upwind half, fluid.
	rx, ry, rz := nx-12, ny/2, nz/3
	for vox.IsSolid(rx, ry, rz) || !(vel[(rz*ny+ry)*nx+rx].Norm() >= 0.01) {
		ry++
		if ry >= ny {
			ry = 0
			rz++
			if rz >= nz {
				rz = 0
				rx--
			}
		}
	}
	cloud := tracer.NewCloud(99)
	cloud.Release(rx, ry, rz, 2000)
	probs := tracer.FromMacro(nx, ny, nz, den, vel, vox.IsSolid)
	for s := 0; s < 200; s++ {
		cloud.Step(probs)
	}
	cen := cloud.Centroid()
	uRel := vel[(rz*ny+ry)*nx+rx]
	fmt.Printf("tracer: released at (%d,%d,%d) where u=(%.3f,%.3f,%.3f); centroid after 200 steps: (%.1f, %.1f, %.1f)\n",
		rx, ry, rz, uRel[0], uRel[1], uRel[2], cen[0], cen[1], cen[2])

	// Figure 13: volume projection of the plume.
	plume := cloud.DensityGrid(nx, ny, nz)
	im2 := vis.RenderVolumeTopDown(nx, ny, nz, plume, vox.IsSolid, 4*nx, 4*ny)
	writePPM("plume.ppm", im2)
}

func writePPM(path string, im *vis.Image) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := im.WritePPM(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%dx%d)\n", path, im.W, im.H)
}
