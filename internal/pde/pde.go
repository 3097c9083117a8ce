// Package pde implements explicit finite-difference solvers on
// structured grids for the GPU cluster, the second class of computations
// Section 6 discusses. The 3D heat equation du/dt = alpha * laplacian(u)
// is advanced with explicit Euler steps; the cluster-parallel version
// decomposes the domain into slabs whose border values are mirrored into
// neighbor "proxy points" each step (Figure 14 of the paper), exchanged
// over package mpi. A GPU version runs the stencil as a fragment program
// per slice.
package pde

import (
	"fmt"
	"math"

	"gpucluster/internal/gpu"
	"gpucluster/internal/mpi"
	"gpucluster/internal/vecmath"
)

// Heat3D is an explicit heat-equation solver on an NX x NY x NZ grid
// with periodic boundaries and one ghost shell.
type Heat3D struct {
	NX, NY, NZ int
	// Alpha is the diffusivity; explicit 3D stability needs
	// alpha <= 1/6.
	Alpha float32
	u, un []float32
	sx    int
	sy    int
	steps int
}

// NewHeat3D creates a zero-initialized solver.
func NewHeat3D(nx, ny, nz int, alpha float32) *Heat3D {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("pde: invalid grid %dx%dx%d", nx, ny, nz))
	}
	if alpha <= 0 || alpha > 1.0/6.0+1e-6 {
		panic(fmt.Sprintf("pde: alpha %v violates explicit stability (0, 1/6]", alpha))
	}
	h := &Heat3D{NX: nx, NY: ny, NZ: nz, Alpha: alpha, sx: nx + 2, sy: ny + 2}
	n := (nx + 2) * (ny + 2) * (nz + 2)
	h.u = make([]float32, n)
	h.un = make([]float32, n)
	return h
}

// Idx returns the padded index of (x, y, z); ghost range [-1, N] allowed.
func (h *Heat3D) Idx(x, y, z int) int { return ((z+1)*h.sy+(y+1))*h.sx + (x + 1) }

// Set assigns u(x, y, z).
func (h *Heat3D) Set(x, y, z int, v float32) { h.u[h.Idx(x, y, z)] = v }

// At reads u(x, y, z).
func (h *Heat3D) At(x, y, z int) float32 { return h.u[h.Idx(x, y, z)] }

// Steps returns the completed step count.
func (h *Heat3D) Steps() int { return h.steps }

// fillGhostsPeriodic mirrors the periodic images into the ghost shell.
func (h *Heat3D) fillGhostsPeriodic() {
	for z := 0; z < h.NZ; z++ {
		for y := 0; y < h.NY; y++ {
			h.u[h.Idx(-1, y, z)] = h.u[h.Idx(h.NX-1, y, z)]
			h.u[h.Idx(h.NX, y, z)] = h.u[h.Idx(0, y, z)]
		}
	}
	for z := 0; z < h.NZ; z++ {
		for x := -1; x <= h.NX; x++ {
			h.u[h.Idx(x, -1, z)] = h.u[h.Idx(x, h.NY-1, z)]
			h.u[h.Idx(x, h.NY, z)] = h.u[h.Idx(x, 0, z)]
		}
	}
	for y := -1; y <= h.NY; y++ {
		for x := -1; x <= h.NX; x++ {
			h.u[h.Idx(x, y, -1)] = h.u[h.Idx(x, y, h.NZ-1)]
			h.u[h.Idx(x, y, h.NZ)] = h.u[h.Idx(x, y, 0)]
		}
	}
}

// stencil applies one explicit Euler update to the interior.
func (h *Heat3D) stencil() {
	a := h.Alpha
	for z := 0; z < h.NZ; z++ {
		for y := 0; y < h.NY; y++ {
			for x := 0; x < h.NX; x++ {
				c := h.Idx(x, y, z)
				lap := h.u[c-1] + h.u[c+1] +
					h.u[c-h.sx] + h.u[c+h.sx] +
					h.u[c-h.sx*h.sy] + h.u[c+h.sx*h.sy] - 6*h.u[c]
				h.un[c] = h.u[c] + a*lap
			}
		}
	}
	h.u, h.un = h.un, h.u
}

// Step advances one time step (serial reference).
func (h *Heat3D) Step() {
	h.fillGhostsPeriodic()
	h.stencil()
	h.steps++
}

// Total returns the heat content (conserved under periodic boundaries).
func (h *Heat3D) Total() float64 {
	var s float64
	for z := 0; z < h.NZ; z++ {
		for y := 0; y < h.NY; y++ {
			for x := 0; x < h.NX; x++ {
				s += float64(h.At(x, y, z))
			}
		}
	}
	return s
}

// ParallelHeat3D runs `steps` explicit updates of a grid initialized by
// init (global coordinates), decomposed into z slabs over `ranks`
// goroutine-nodes with proxy-plane exchange each step, and returns the
// gathered field (x-fastest).
func ParallelHeat3D(nx, ny, nz int, alpha float32, ranks, steps int,
	initVal func(x, y, z int) float32) []float32 {
	if nz%ranks != 0 {
		panic(fmt.Sprintf("pde: %d z-planes not divisible by %d ranks", nz, ranks))
	}
	slab := nz / ranks
	result := make([][]float32, ranks)

	world := mpi.NewWorld(ranks)
	world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		// Local slab with its own ghost shell; x/y ghosts are periodic
		// locally, z ghosts come from neighbors (wrap decomposition).
		local := NewHeat3D(nx, ny, slab, alpha)
		for z := 0; z < slab; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					local.Set(x, y, z, initVal(x, y, r*slab+z))
				}
			}
		}
		up := (r - 1 + ranks) % ranks
		down := (r + 1) % ranks
		plane := func(z int) []float32 {
			// Full padded plane including x/y ghosts so corners are
			// consistent (the proxy points of Figure 14).
			out := make([]float32, local.sx*local.sy)
			for y := -1; y <= ny; y++ {
				for x := -1; x <= nx; x++ {
					out[(y+1)*local.sx+(x+1)] = local.u[local.Idx(x, y, z)]
				}
			}
			return out
		}
		setGhostPlane := func(z int, data []float32) {
			for y := -1; y <= ny; y++ {
				for x := -1; x <= nx; x++ {
					local.u[local.Idx(x, y, z)] = data[(y+1)*local.sx+(x+1)]
				}
			}
		}
		for s := 0; s < steps; s++ {
			// x/y periodic ghosts first (plane() then carries correct
			// corners), then z proxy exchange.
			local.fillGhostsPeriodic()
			if ranks > 1 {
				c.Send(up, 2*s, plane(0))
				c.Send(down, 2*s+1, plane(slab-1))
				setGhostPlane(slab, c.Recv(down, 2*s))
				setGhostPlane(-1, c.Recv(up, 2*s+1))
			}
			local.stencil()
		}
		out := make([]float32, nx*ny*slab)
		i := 0
		for z := 0; z < slab; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					out[i] = local.At(x, y, z)
					i++
				}
			}
		}
		result[r] = out
	})

	full := make([]float32, nx*ny*nz)
	for r, part := range result {
		copy(full[r*slab*nx*ny:], part)
	}
	return full
}

// GPUHeat2D advances a 2D heat equation on the simulated GPU, one render
// pass per step — the structured-grid explicit-method mapping Section 6
// describes. It exists alongside the 3D CPU/cluster solver to exercise
// the GPU path for PDEs.
type GPUHeat2D struct {
	W, H  int
	Alpha float32
	dev   *gpu.Device
	tex   *gpu.Texture2D
	pb    *gpu.PBuffer
}

// NewGPUHeat2D allocates the field texture.
func NewGPUHeat2D(dev *gpu.Device, w, h int, alpha float32) (*GPUHeat2D, error) {
	tex, err := dev.NewTexture2D("heat", w, h)
	if err != nil {
		return nil, err
	}
	pb, err := dev.NewPBuffer("heat-pb", w, h)
	if err != nil {
		tex.Free()
		return nil, err
	}
	return &GPUHeat2D{W: w, H: h, Alpha: alpha, dev: dev, tex: tex, pb: pb}, nil
}

// Upload sets the field from a row-major slice.
func (g *GPUHeat2D) Upload(u []float32) error {
	data := make([]float32, g.W*g.H*4)
	for i, v := range u {
		data[4*i] = v
	}
	return g.dev.Upload(g.tex, data)
}

// Download reads the field back.
func (g *GPUHeat2D) Download() ([]float32, error) {
	data, err := g.dev.Download(g.tex, nil)
	if err != nil {
		return nil, err
	}
	out := make([]float32, g.W*g.H)
	for i := range out {
		out[i] = data[4*i]
	}
	return out, nil
}

// Step runs one explicit update pass (periodic boundaries).
func (g *GPUHeat2D) Step() error {
	a := g.Alpha
	return g.dev.RunAndCopy(gpu.Pass{
		Name:     "heat2d",
		Target:   g.pb,
		Textures: []gpu.Sampler{g.tex},
		Program: func(tex []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
			t := tex[0]
			for x := x0; x < x0+len(out); x++ {
				u := t.FetchWrap(x, y)[0]
				lap := t.FetchWrap(x-1, y)[0] + t.FetchWrap(x+1, y)[0] +
					t.FetchWrap(x, y-1)[0] + t.FetchWrap(x, y+1)[0] - 4*u
				out[x-x0] = vecmath.Vec4{u + a*lap, 0, 0, 1}
			}
		},
	}, g.tex)
}

// DecayRate returns the analytic decay factor per step for the lowest
// sine mode of wavenumber k = 2*pi/n under diffusivity alpha (the value
// the validation tests compare against): u(t+1)/u(t) for the mode
// exp(i k x) is 1 - 2*alpha*(1 - cos k) per dimension.
func DecayRate(alpha float64, n int, dims int) float64 {
	k := 2 * math.Pi / float64(n)
	perDim := 2 * alpha * (1 - math.Cos(k))
	return 1 - float64(dims)*perDim
}
