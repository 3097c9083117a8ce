// Convection: the hybrid thermal LBM (HTLBM) of Section 4.1 — the MRT
// collision operator coupled to a finite-difference temperature field
// through a Boussinesq buoyancy term. A Rayleigh-Benard-style cell
// (heated floor, cooled ceiling) develops convective motion; the example
// reports the circulation strength and heat transport.
package main

import (
	"fmt"

	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

func main() {
	const nx, ny, nz = 16, 4, 8
	tau := float32(0.55) // low viscosity: the regime MRT is for
	l := lbm.New(nx, ny, nz, tau)
	l.Collision = lbm.NewMRT(tau)
	l.Faces[lbm.FaceZNeg] = lbm.FaceSpec{Type: lbm.Wall}
	l.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Wall}
	l.Init(1, vecmath.Vec3{})

	th := lbm.NewThermal(l, 0.05, 0.5)
	th.Buoyancy = vecmath.Vec3{0, 0, 1e-2} // overturns the 8-cell layer within 600 steps
	th.FixedFace[lbm.FaceZNeg] = true
	th.FaceTemp[lbm.FaceZNeg] = 1 // hot floor
	th.FixedFace[lbm.FaceZPos] = true
	th.FaceTemp[lbm.FaceZPos] = 0 // cold ceiling

	// Seed a slight asymmetry so the convection roll has a direction.
	th.SetTemp(nx/4, ny/2, 1, 1.2)

	for step := 0; step < 600; step++ {
		th.Step()
		l.Step()
		if step%150 == 149 {
			var maxW float32
			for x := 0; x < nx; x++ {
				if w := l.Velocity(x, ny/2, nz/2)[2]; w > maxW {
					maxW = w
				}
			}
			fmt.Printf("step %4d: mean T %.4f, max upward velocity %.5f\n",
				step+1, th.MeanTemp(), maxW)
		}
	}

	// Convection signature: rising plumes somewhere, sinking elsewhere.
	var up, down float32
	for x := 0; x < nx; x++ {
		w := l.Velocity(x, ny/2, nz/2)[2]
		if w > up {
			up = w
		}
		if w < down {
			down = w
		}
	}
	fmt.Printf("circulation: max rise %.5f, max sink %.5f\n", up, down)
	if up > 1e-4 && down < -1e-4 {
		fmt.Println("convection cell established (HTLBM: MRT + thermal coupling)")
	} else {
		fmt.Println("WARNING: no convection detected")
	}
}
