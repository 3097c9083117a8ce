// Package tracer implements the pollutant transport of Section 5: after
// the flow field develops, "pollution tracer particles begin to propagate
// along the LBM lattice links according to transition probabilities
// obtained from the LBM velocity distributions" (the go-with-the-flow
// method of Lowe and Succi, reference [19] of the paper).
//
// Each particle sits on a lattice site; each step it selects one of the
// 19 links with probability f_i / rho and hops along it. The expected
// hop equals the local fluid velocity (sum_i c_i f_i / rho = u), so the
// tracer cloud advects with the flow while the stochastic selection
// supplies physical dispersion.
package tracer

import (
	"math/rand"

	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

// ProbField supplies per-cell transition probabilities.
type ProbField interface {
	// Dims returns the lattice extents.
	Dims() (nx, ny, nz int)
	// Probs fills out with the 19 link probabilities (f_i/rho) of cell
	// (x, y, z) and reports false for solid cells.
	Probs(x, y, z int, out *[lbm.Q]float32) bool
}

// macroField derives probabilities from gathered density/velocity fields
// through the equilibrium distribution — the form usable with cluster or
// GPU backends whose raw distributions stay distributed. For the smooth,
// low-Mach flows of the dispersion application feq(rho, u) approximates
// f to second order.
type macroField struct {
	nx, ny, nz int
	den        []float32
	vel        []vecmath.Vec3
	solid      func(x, y, z int) bool
}

// FromMacro builds a ProbField from density and velocity fields (gathered
// from a cluster simulation), with an optional solid predicate.
func FromMacro(nx, ny, nz int, den []float32, vel []vecmath.Vec3, solid func(x, y, z int) bool) ProbField {
	return &macroField{nx: nx, ny: ny, nz: nz, den: den, vel: vel, solid: solid}
}

func (m *macroField) Dims() (int, int, int) { return m.nx, m.ny, m.nz }

func (m *macroField) Probs(x, y, z int, out *[lbm.Q]float32) bool {
	if m.solid != nil && m.solid(x, y, z) {
		return false
	}
	i := (z*m.ny+y)*m.nx + x
	rho := m.den[i]
	if rho <= 0 {
		return false
	}
	u := m.vel[i]
	var feq [lbm.Q]float32
	lbm.Feq(&feq, rho, u[0], u[1], u[2])
	inv := 1 / rho
	for k := 0; k < lbm.Q; k++ {
		p := feq[k] * inv
		if p < 0 { // clamp the (rare) negative equilibrium tail
			p = 0
		}
		out[k] = p
	}
	return true
}

// Particle is one tracer at a lattice site.
type Particle struct {
	X, Y, Z int
}

// Cloud is a set of tracer particles with a deterministic RNG.
type Cloud struct {
	Particles []Particle
	rng       *rand.Rand
	steps     int
}

// NewCloud creates an empty cloud with a fixed seed.
func NewCloud(seed int64) *Cloud {
	return &Cloud{rng: rand.New(rand.NewSource(seed))}
}

// Release adds n particles at lattice site (x, y, z).
func (c *Cloud) Release(x, y, z, n int) {
	for i := 0; i < n; i++ {
		c.Particles = append(c.Particles, Particle{x, y, z})
	}
}

// Steps returns the number of propagation steps taken.
func (c *Cloud) Steps() int { return c.steps }

// Step propagates every particle one lattice step: sample a link with
// probability f_i/rho and hop, staying put when the destination is solid
// or outside the domain.
func (c *Cloud) Step(field ProbField) {
	nx, ny, nz := field.Dims()
	var probs [lbm.Q]float32
	for pi := range c.Particles {
		p := &c.Particles[pi]
		if !field.Probs(p.X, p.Y, p.Z, &probs) {
			continue // trapped in solid (can happen only at release sites)
		}
		r := c.rng.Float32()
		var acc float32
		link := 0
		for i := 0; i < lbm.Q; i++ {
			acc += probs[i]
			if r < acc {
				link = i
				break
			}
		}
		nxp := p.X + lbm.C[link][0]
		nyp := p.Y + lbm.C[link][1]
		nzp := p.Z + lbm.C[link][2]
		if nxp < 0 || nxp >= nx || nyp < 0 || nyp >= ny || nzp < 0 || nzp >= nz {
			continue // leave domain: in the dispersion app these exit downstream; keep at border
		}
		var tmp [lbm.Q]float32
		if !field.Probs(nxp, nyp, nzp, &tmp) {
			continue // bounce off buildings: stay
		}
		p.X, p.Y, p.Z = nxp, nyp, nzp
	}
	c.steps++
}

// DensityGrid bins particles onto the lattice, producing the contaminant
// concentration field rendered in Figure 13.
func (c *Cloud) DensityGrid(nx, ny, nz int) []float32 {
	out := make([]float32, nx*ny*nz)
	for _, p := range c.Particles {
		if p.X >= 0 && p.X < nx && p.Y >= 0 && p.Y < ny && p.Z >= 0 && p.Z < nz {
			out[(p.Z*ny+p.Y)*nx+p.X]++
		}
	}
	return out
}

// Centroid returns the mean particle position.
func (c *Cloud) Centroid() vecmath.Vec3 {
	if len(c.Particles) == 0 {
		return vecmath.Vec3{}
	}
	var sx, sy, sz float64
	for _, p := range c.Particles {
		sx += float64(p.X)
		sy += float64(p.Y)
		sz += float64(p.Z)
	}
	n := float64(len(c.Particles))
	return vecmath.Vec3{float32(sx / n), float32(sy / n), float32(sz / n)}
}
