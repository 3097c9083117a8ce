package lbm

import (
	"fmt"

	"gpucluster/internal/vecmath"
)

// BC identifies the boundary condition applied at one face of the domain.
type BC int

// Boundary condition kinds for the six domain faces.
const (
	// Periodic wraps distributions to the opposite face.
	Periodic BC = iota
	// Wall is a no-slip solid wall realized by half-way bounce-back.
	Wall
	// MovingWall is a no-slip wall translating with a velocity (used for
	// Couette flow and the lid-driven cavity).
	MovingWall
	// Inlet imposes an equilibrium distribution with a prescribed
	// velocity and density, the velocity boundary condition the paper
	// uses for the northeasterly wind in Section 5.
	Inlet
	// Outflow is a zero-gradient (copy from the adjacent interior cell)
	// open boundary.
	Outflow
	// Ghost marks a face whose ghost layer is filled externally by the
	// cluster layer's border exchange (package cluster).
	Ghost
)

// Face indices for Lattice.Faces.
const (
	FaceXNeg = iota
	FaceXPos
	FaceYNeg
	FaceYPos
	FaceZNeg
	FaceZPos
	NumFaces
)

// FaceSpec configures one domain face.
type FaceSpec struct {
	Type BC
	// U is the wall velocity (MovingWall) or inflow velocity (Inlet).
	U vecmath.Vec3
	// Rho is the inlet density; zero means 1.
	Rho float32
}

// Lattice is a D3Q19 lattice of NX x NY x NZ fluid cells surrounded by a
// one-cell ghost shell. Distributions are stored structure-of-arrays; the
// ghost shell holds post-collision distributions streamed in from
// boundary conditions or, in cluster runs, from neighboring sub-domains.
type Lattice struct {
	NX, NY, NZ int
	// Tau is the BGK relaxation time.
	Tau float32
	// Faces configures the six domain faces.
	Faces [NumFaces]FaceSpec
	// Force is a uniform body-force acceleration applied each step.
	Force vecmath.Vec3
	// ForceField optionally adds a per-cell acceleration (ghost-padded
	// indexing, same layout as Rho); used by the thermal coupling.
	ForceField []vecmath.Vec3
	// Collision selects the collision operator; nil means BGK.
	Collision CollisionOp

	// F holds the current (pre-collision) distributions including the
	// ghost shell; Post holds post-collision values.
	F, Post [Q][]float32
	// Solid flags obstacle cells (ghost-padded). Ghost cells of Wall and
	// MovingWall faces are flagged solid at construction.
	Solid []bool
	// WallU holds the wall velocity for solid cells with a moving
	// surface; nil when no moving walls exist.
	WallU []vecmath.Vec3
	// LinkQ stores sub-cell wall intersection fractions for curved
	// boundaries (see curved.go); nil when only flat/staircase walls
	// exist.
	LinkQ map[int]*linkQ
	// Rho caches per-cell density from the latest collision.
	Rho []float32

	sx, sy, sz int // padded dimensions NX+2 etc.
	step       int

	// Scratch of the kernels, overwritten by every call: Stream's
	// per-row summary of Solid, and the operands of Collide's
	// CollisionOp call (BGK keeps its cell in locals).
	rowSolid       []bool
	cell, cellPost [Q]float32
}

// CollisionOp relaxes one cell's distributions toward equilibrium given
// the cell's density and velocity. Implementations must conserve mass and
// momentum.
type CollisionOp interface {
	// Collide reads f and writes the post-collision distributions to
	// post. rho, ux, uy, uz are the precomputed moments of f.
	Collide(f, post *[Q]float32, rho, ux, uy, uz float32)
}

// New constructs a lattice of nx x ny x nz fluid cells with relaxation
// time tau and all-periodic boundaries; adjust Faces before Init.
func New(nx, ny, nz int, tau float32) *Lattice {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("lbm: invalid lattice size %dx%dx%d", nx, ny, nz))
	}
	if tau <= 0.5 {
		panic(fmt.Sprintf("lbm: tau %v must exceed 0.5 for positive viscosity", tau))
	}
	l := &Lattice{
		NX: nx, NY: ny, NZ: nz, Tau: tau,
		sx: nx + 2, sy: ny + 2, sz: nz + 2,
	}
	n := l.sx * l.sy * l.sz
	// The 2Q arrays are cut from one slab at a stride of an odd number of
	// cache lines. Allocated one by one they would each start on a page
	// boundary, the same cell of all of them would fall in the same L1
	// set, and a cell's 38 loads and stores would evict one another.
	const line = 16 // floats
	stride := (n+line-1)/line*line | line
	slab := make([]float32, 2*Q*stride)
	for i := 0; i < Q; i++ {
		l.F[i], slab = slab[:n:n], slab[stride:]
		l.Post[i], slab = slab[:n:n], slab[stride:]
	}
	l.Solid = make([]bool, n)
	l.Rho = make([]float32, n)
	l.rowSolid = make([]bool, l.sy*l.sz)
	return l
}

// Idx returns the padded linear index of cell (x, y, z); coordinates may
// range over [-1, N] to address the ghost shell.
func (l *Lattice) Idx(x, y, z int) int {
	return ((z+1)*l.sy+(y+1))*l.sx + (x + 1)
}

// Cells returns the number of interior (fluid-domain) cells.
func (l *Lattice) Cells() int { return l.NX * l.NY * l.NZ }

// StepCount returns the number of completed time steps.
func (l *Lattice) StepCount() int { return l.step }

// SetSolid marks the interior cell (x, y, z) as an obstacle.
func (l *Lattice) SetSolid(x, y, z int, solid bool) {
	l.Solid[l.Idx(x, y, z)] = solid
}

// IsSolid reports whether cell (x, y, z) (ghost range allowed) is solid.
func (l *Lattice) IsSolid(x, y, z int) bool { return l.Solid[l.Idx(x, y, z)] }

// Init applies the face configuration (marking wall ghosts solid) and
// sets every cell, including ghosts, to the equilibrium distribution for
// the given density and velocity.
func (l *Lattice) Init(rho float32, u vecmath.Vec3) {
	l.applyFaceSolids()
	var feq [Q]float32
	Feq(&feq, rho, u[0], u[1], u[2])
	n := len(l.F[0])
	for i := 0; i < Q; i++ {
		fi := l.F[i]
		pi := l.Post[i]
		for c := 0; c < n; c++ {
			fi[c] = feq[i]
			pi[c] = feq[i]
		}
	}
	// The density cache always holds Moments(F) computed through the
	// same float path as Collide, so every consumer (moving-wall terms,
	// the GPU macro textures) sees bit-identical values.
	rhoInit, _, _, _ := Moments(&feq)
	for c := range l.Rho {
		l.Rho[c] = rhoInit
	}
}

// applyFaceSolids marks ghost cells of Wall/MovingWall faces as solid and
// records wall velocities.
func (l *Lattice) applyFaceSolids() {
	needWallU := false
	for _, f := range l.Faces {
		if f.Type == MovingWall {
			needWallU = true
		}
	}
	if needWallU && l.WallU == nil {
		l.WallU = make([]vecmath.Vec3, len(l.Solid))
	}
	mark := func(face int, x, y, z int) {
		spec := l.Faces[face]
		if spec.Type != Wall && spec.Type != MovingWall {
			return
		}
		i := l.Idx(x, y, z)
		l.Solid[i] = true
		if spec.Type == MovingWall && l.WallU != nil {
			l.WallU[i] = spec.U
		}
	}
	for z := -1; z <= l.NZ; z++ {
		for y := -1; y <= l.NY; y++ {
			mark(FaceXNeg, -1, y, z)
			mark(FaceXPos, l.NX, y, z)
		}
	}
	for z := -1; z <= l.NZ; z++ {
		for x := -1; x <= l.NX; x++ {
			mark(FaceYNeg, x, -1, z)
			mark(FaceYPos, x, l.NY, z)
		}
	}
	for y := -1; y <= l.NY; y++ {
		for x := -1; x <= l.NX; x++ {
			mark(FaceZNeg, x, y, -1)
			mark(FaceZPos, x, y, l.NZ)
		}
	}
}

// Velocity computes the velocity of interior cell (x, y, z) from the
// current distributions.
func (l *Lattice) Velocity(x, y, z int) vecmath.Vec3 {
	var f [Q]float32
	l.Gather(&f, x, y, z)
	_, ux, uy, uz := Moments(&f)
	return vecmath.Vec3{ux, uy, uz}
}

// Gather copies the Q distributions of cell (x, y, z) into f.
func (l *Lattice) Gather(f *[Q]float32, x, y, z int) {
	c := l.Idx(x, y, z)
	for i := 0; i < Q; i++ {
		f[i] = l.F[i][c]
	}
}

// Scatter overwrites the Q distributions of cell (x, y, z) from f. Both
// the pre- and post-collision buffers are set, so a freshly scattered
// state is self-consistent for the stream-collide step order.
func (l *Lattice) Scatter(f *[Q]float32, x, y, z int) {
	c := l.Idx(x, y, z)
	for i := 0; i < Q; i++ {
		l.F[i][c] = f[i]
		l.Post[i][c] = f[i]
	}
}

// TotalMass sums the density over the interior cells (using current
// distributions, not the cached Rho).
func (l *Lattice) TotalMass() float64 {
	var sum float64
	var f [Q]float32
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				if l.Solid[l.Idx(x, y, z)] {
					continue
				}
				l.Gather(&f, x, y, z)
				rho, _, _, _ := Moments(&f)
				sum += float64(rho)
			}
		}
	}
	return sum
}
