package tracer

import (
	"math"
	"testing"

	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

// uniformLattice builds a periodic lattice in uniform equilibrium flow.
func uniformLattice(u vecmath.Vec3) *lbm.Lattice {
	l := lbm.New(40, 16, 16, 0.8)
	l.Init(1, u)
	return l
}

func TestCloudDriftsWithFlow(t *testing.T) {
	// E[hop] = sum c_i f_i / rho = u: over many particles and steps the
	// cloud centroid must advect at the fluid velocity.
	u := vecmath.Vec3{0.08, 0.02, 0}
	l := uniformLattice(u)
	c := NewCloud(1)
	c.Release(5, 8, 8, 4000)
	field := fromLattice(l)
	const steps = 25
	for s := 0; s < steps; s++ {
		c.Step(field)
	}
	cen := c.Centroid()
	wantX := 5 + float64(u[0])*steps
	wantY := 8 + float64(u[1])*steps
	if math.Abs(float64(cen[0])-wantX) > 0.35 {
		t.Errorf("centroid x = %.2f, want %.2f", cen[0], wantX)
	}
	if math.Abs(float64(cen[1])-wantY) > 0.35 {
		t.Errorf("centroid y = %.2f, want %.2f", cen[1], wantY)
	}
}

func TestCloudDisperses(t *testing.T) {
	// Stochastic link selection spreads the cloud: positional variance
	// must grow with steps.
	l := uniformLattice(vecmath.Vec3{})
	c := NewCloud(2)
	c.Release(20, 8, 8, 2000)
	field := fromLattice(l)
	varOf := func() float64 {
		cen := c.Centroid()
		var v float64
		for _, p := range c.Particles {
			dx := float64(p.X) - float64(cen[0])
			v += dx * dx
		}
		return v / float64(len(c.Particles))
	}
	v0 := varOf()
	for s := 0; s < 10; s++ {
		c.Step(field)
	}
	v1 := varOf()
	for s := 0; s < 10; s++ {
		c.Step(field)
	}
	v2 := varOf()
	if !(v0 < v1 && v1 < v2) {
		t.Errorf("variance should grow: %.3f, %.3f, %.3f", v0, v1, v2)
	}
}

func TestParticlesAvoidSolids(t *testing.T) {
	l := uniformLattice(vecmath.Vec3{0.1, 0, 0})
	// A wall of solid cells at x=12..13.
	for z := 0; z < 16; z++ {
		for y := 0; y < 16; y++ {
			l.SetSolid(12, y, z, true)
			l.SetSolid(13, y, z, true)
		}
	}
	c := NewCloud(3)
	c.Release(9, 8, 8, 1000)
	field := fromLattice(l)
	for s := 0; s < 30; s++ {
		c.Step(field)
		for _, p := range c.Particles {
			if p.X == 12 || p.X == 13 {
				t.Fatalf("particle entered solid at step %d: %+v", s, p)
			}
		}
	}
}

func TestParticlesStayInDomain(t *testing.T) {
	l := uniformLattice(vecmath.Vec3{0.12, 0, 0})
	c := NewCloud(4)
	c.Release(38, 8, 8, 500)
	field := fromLattice(l)
	for s := 0; s < 40; s++ {
		c.Step(field)
	}
	for _, p := range c.Particles {
		if p.X < 0 || p.X >= 40 || p.Y < 0 || p.Y >= 16 || p.Z < 0 || p.Z >= 16 {
			t.Fatalf("particle escaped: %+v", p)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []Particle {
		l := uniformLattice(vecmath.Vec3{0.05, 0, 0.02})
		c := NewCloud(42)
		c.Release(10, 8, 8, 100)
		f := fromLattice(l)
		for s := 0; s < 15; s++ {
			c.Step(f)
		}
		return c.Particles
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at particle %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMacroFieldMatchesLatticeDrift(t *testing.T) {
	// The feq-based field must produce the same mean drift for an
	// equilibrium flow (where f == feq exactly).
	u := vecmath.Vec3{0.06, 0, 0}
	den := make([]float32, 40*16*16)
	vel := make([]vecmath.Vec3, 40*16*16)
	for i := range den {
		den[i] = 1
		vel[i] = u
	}
	c := NewCloud(5)
	c.Release(5, 8, 8, 3000)
	f := FromMacro(40, 16, 16, den, vel, nil)
	const steps = 20
	for s := 0; s < steps; s++ {
		c.Step(f)
	}
	cen := c.Centroid()
	want := 5 + float64(u[0])*steps
	if math.Abs(float64(cen[0])-want) > 0.35 {
		t.Errorf("macro-field centroid x = %.2f, want %.2f", cen[0], want)
	}
}

func TestDensityGrid(t *testing.T) {
	c := NewCloud(6)
	c.Release(1, 2, 3, 7)
	g := c.DensityGrid(4, 4, 4)
	if g[(3*4+2)*4+1] != 7 {
		t.Errorf("density grid = %v", g[(3*4+2)*4+1])
	}
	var total float32
	for _, v := range g {
		total += v
	}
	if total != 7 {
		t.Errorf("total = %v", total)
	}
}

func TestProbsSumToOne(t *testing.T) {
	l := uniformLattice(vecmath.Vec3{0.05, -0.03, 0.01})
	f := fromLattice(l)
	var p [lbm.Q]float32
	if !f.Probs(3, 3, 3, &p) {
		t.Fatal("fluid cell reported solid")
	}
	var sum float32
	for _, v := range p {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

// latticeField adapts a serial lattice, using the exact distributions.
type latticeField struct{ l *lbm.Lattice }

// fromLattice builds a ProbField from the exact velocity distributions
// of a serial lattice, the reference the macro field approximates.
func fromLattice(l *lbm.Lattice) ProbField { return latticeField{l} }

func (a latticeField) Dims() (int, int, int) { return a.l.NX, a.l.NY, a.l.NZ }

func (a latticeField) Probs(x, y, z int, out *[lbm.Q]float32) bool {
	if a.l.IsSolid(x, y, z) {
		return false
	}
	var f [lbm.Q]float32
	a.l.Gather(&f, x, y, z)
	rho, _, _, _ := lbm.Moments(&f)
	if rho <= 0 {
		return false
	}
	inv := 1 / rho
	for i := 0; i < lbm.Q; i++ {
		out[i] = f[i] * inv
	}
	return true
}
