// Quickstart: the smallest end-to-end use of the library — a lid-driven
// cavity flow computed by the D3Q19 LBM on one simulated GeForce FX 5800
// Ultra (Section 4.2 of the paper), checked against the CPU reference.
package main

import (
	"fmt"
	"log"

	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/lbmgpu"
	"gpucluster/internal/vecmath"
)

func main() {
	// A 16^3 cavity: no-slip walls everywhere, the top lid sliding in +x.
	const n = 16
	configure := func(l *lbm.Lattice) {
		for f := range l.Faces {
			l.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.MovingWall, U: vecmath.Vec3{0.1, 0, 0}}
	}

	// GPU path: build the lattice, hand it to the GPU simulator.
	host := lbm.New(n, n, n, 0.6)
	configure(host)
	host.Init(1, vecmath.Vec3{})
	dev := gpu.New(gpu.GeForceFX5800Ultra())
	sim, err := lbmgpu.New(dev, host)
	if err != nil {
		log.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		sim.Step(func(int) {}) // single GPU: no cluster exchange
	}

	// CPU reference for comparison.
	ref := lbm.New(n, n, n, 0.6)
	configure(ref)
	ref.Init(1, vecmath.Vec3{})
	for step := 0; step < 200; step++ {
		ref.Step()
	}

	vel := sim.VelocityField()
	center := vel[(n/2*n+n/2)*n+n/2]
	fmt.Printf("after 200 steps, center velocity (GPU): (%.5f, %.5f, %.5f)\n",
		center[0], center[1], center[2])
	refC := ref.Velocity(n/2, n/2, n/2)
	fmt.Printf("CPU reference:                          (%.5f, %.5f, %.5f)\n",
		refC[0], refC[1], refC[2])
	if center != refC {
		log.Fatal("GPU and CPU disagree!")
	}
	fmt.Printf("GPU executed %d render passes, used %.1f MB of texture memory\n",
		dev.Stats.Passes, float64(dev.UsedMemory())/(1<<20))
	fmt.Printf("bus traffic: %.1f MB down, %.1f MB up (AGP asymmetry: up is the slow path)\n",
		float64(dev.Bus().Down.Bytes)/(1<<20), float64(dev.Bus().Up.Bytes)/(1<<20))
}
