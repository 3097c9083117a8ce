package lbm

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpucluster/internal/vecmath"
)

// The differential test of the kernels against reference_test.go: a
// generated lattice and its deep copy advance side by side, one through
// StepWithExchange, PackBorder and UnpackGhost, the other through their
// reference bodies, and must agree bit for bit over the whole padded
// arrays after every step.

// Boundary mixes of one axis.
const (
	mixPeriodic = iota
	mixWall
	mixMovingWall
	mixInletOutflow
	mixGhost
	numMixes
)

// stepCase is one generated comparison; everything not named here is
// drawn from seed.
type stepCase struct {
	seed uint64
	n    [3]int // interior extents
	mix  [3]int // boundary mix per axis
	// What the lattice carries besides its faces.
	solids, curved, force, field, mrt bool
}

func (tc stepCase) String() string {
	return fmt.Sprintf("seed=%d n=%v mix=%v solids=%t curved=%t force=%t field=%t mrt=%t",
		tc.seed, tc.n, tc.mix, tc.solids, tc.curved, tc.force, tc.field, tc.mrt)
}

func smallVec(rng *rand.Rand, scale float32) vecmath.Vec3 {
	return vecmath.Vec3{scale * (rng.Float32() - 0.5), scale * (rng.Float32() - 0.5), scale * (rng.Float32() - 0.5)}
}

func randomFace(rng *rand.Rand, t BC) FaceSpec {
	spec := FaceSpec{Type: t, U: smallVec(rng, 0.1)}
	if rng.Intn(2) == 0 {
		spec.Rho = 0.95 + 0.1*rng.Float32()
	}
	return spec
}

// build returns the lattice under test and its copy for the reference.
func (tc stepCase) build(rng *rand.Rand) (got, want *Lattice) {
	tau := 0.55 + 0.7*rng.Float32()
	l := New(tc.n[0], tc.n[1], tc.n[2], tau)
	for axis, mix := range tc.mix {
		lo, hi := Periodic, Periodic
		switch mix {
		case mixWall:
			lo, hi = Wall, Wall
		case mixMovingWall:
			lo, hi = MovingWall, Wall
		case mixInletOutflow:
			lo, hi = Inlet, Outflow
		case mixGhost:
			// An inner rank's axis, or an edge rank's: one face exchanged
			// and the other a boundary condition.
			lo, hi = Ghost, []BC{Ghost, Ghost, Wall, MovingWall, Inlet, Outflow}[rng.Intn(6)]
		}
		if rng.Intn(2) == 0 {
			lo, hi = hi, lo
		}
		l.Faces[2*axis], l.Faces[2*axis+1] = randomFace(rng, lo), randomFace(rng, hi)
	}
	if tc.solids {
		// Ghost cells too: obstacles crossing a rank border, and what a
		// Periodic face must overwrite with the far side's mirror.
		for c := range l.Solid {
			l.Solid[c] = rng.Intn(8) == 0
		}
	}
	cell := func() (x, y, z int) { return rng.Intn(l.NX), rng.Intn(l.NY), rng.Intn(l.NZ) }
	if tc.curved {
		x, y, z := cell()
		l.SphereLinks(float32(x)+rng.Float32(), float32(y)+rng.Float32(), float32(z)+rng.Float32(), 0.7+1.5*rng.Float32())
		// Links the sphere does not produce: any fraction on any side,
		// against a solid neighbor or not, with or without fluid upstream.
		for k := 0; k < 6; k++ {
			x, y, z := cell()
			l.SetLinkQ(x, y, z, 1+rng.Intn(Q-1), 1-rng.Float32())
		}
	}
	if tc.force {
		l.Force = smallVec(rng, 2e-3)
	}
	if tc.field {
		l.ForceField = make([]vecmath.Vec3, len(l.Solid))
		for c := range l.ForceField {
			if rng.Intn(4) != 0 {
				l.ForceField[c] = smallVec(rng, 2e-3)
			}
		}
	}
	l.Init(1, vecmath.Vec3{})
	if l.WallU != nil {
		// A moving obstacle inside the domain besides the moving face.
		x, y, z := cell()
		l.SetSolid(x, y, z, true)
		l.WallU[l.Idx(x, y, z)] = smallVec(rng, 0.1)
	}
	// Every cell, ghosts included, near its own equilibrium.
	var feq [Q]float32
	for c := range l.Rho {
		u := smallVec(rng, 0.16)
		refFeq(&feq, 0.9+0.2*rng.Float32(), u[0], u[1], u[2])
		for i := range feq {
			l.F[i][c] = feq[i] * (1 + 0.02*(rng.Float32()-0.5))
			l.Post[i][c] = feq[i] * (1 + 0.02*(rng.Float32()-0.5))
		}
		l.Rho[c] = 0.9 + 0.2*rng.Float32()
	}

	want = l.clone()
	if tc.mrt {
		l.Collision, want.Collision = NewMRT(tau), refMRT{NewMRT(tau)}
	}
	return l, want
}

// clone returns a deep copy sharing no memory with l.
func (l *Lattice) clone() *Lattice {
	c := *l
	for i := range c.F {
		c.F[i], c.Post[i] = slices.Clone(l.F[i]), slices.Clone(l.Post[i])
	}
	c.Solid, c.Rho, c.rowSolid = slices.Clone(l.Solid), slices.Clone(l.Rho), slices.Clone(l.rowSolid)
	c.WallU, c.ForceField = slices.Clone(l.WallU), slices.Clone(l.ForceField)
	c.LinkQ = maps.Clone(l.LinkQ)
	for k, lq := range c.LinkQ {
		cp := *lq
		c.LinkQ[k] = &cp
	}
	return &c
}

func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// diff describes the first difference between the two lattices' state,
// or returns "".
func (l *Lattice) diff(want *Lattice) string {
	for i := 0; i < Q; i++ {
		if c, ok := sameBits(l.F[i], want.F[i]); !ok {
			return fmt.Sprintf("F[%d][%d] = %v, want %v", i, c, l.F[i][c], want.F[i][c])
		}
		if c, ok := sameBits(l.Post[i], want.Post[i]); !ok {
			return fmt.Sprintf("Post[%d][%d] = %v, want %v", i, c, l.Post[i][c], want.Post[i][c])
		}
	}
	if c, ok := sameBits(l.Rho, want.Rho); !ok {
		return fmt.Sprintf("Rho[%d] = %v, want %v", c, l.Rho[c], want.Rho[c])
	}
	if !slices.Equal(l.Solid, want.Solid) {
		return "Solid differs"
	}
	if l.StepCount() != want.StepCount() {
		return fmt.Sprintf("StepCount = %d, want %d", l.StepCount(), want.StepCount())
	}
	return ""
}

func (l *Lattice) finite() bool {
	for i := 0; i < Q; i++ {
		for _, v := range l.Post[i] {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}

// run advances both lattices and reports the first divergence. A state
// that left the finite numbers ends the comparison early (false): the
// rewrite drops products by zero, which only agree on finite operands.
func (tc stepCase) run(t *testing.T) (compared bool) {
	rng := rand.New(rand.NewSource(int64(tc.seed)))
	got, want := tc.build(rng)

	// Each side exchanges inside its own step: the same generated payloads
	// into its Ghost faces, and what it would send compared face by face.
	var payload, packed [3][2][]float32
	exchangeGot := func(dim int) {
		for side, dir := range []int{-1, +1} {
			packed[dim][side] = got.PackBorder(dim, dir)
			if got.Faces[2*dim+side].Type == Ghost {
				got.UnpackGhost(dim, dir, payload[dim][side])
			}
		}
	}
	exchangeWant := func(dim int) {
		for side, dir := range []int{-1, +1} {
			if p, ok := sameBits(packed[dim][side], want.refPackBorder(dim, dir)); !ok {
				t.Fatalf("%v: step %d: PackBorder(%d, %d) differs at %d", tc, want.StepCount(), dim, dir, p)
			}
			if want.Faces[2*dim+side].Type == Ghost {
				want.refUnpackGhost(dim, dir, payload[dim][side])
			}
		}
	}

	steps := 10 + rng.Intn(4)
	edit := rng.Intn(steps)
	for s := 0; s < steps; s++ {
		if s == edit {
			// The geometry and the faces are the caller's between steps.
			x, y, z := rng.Intn(got.NX), rng.Intn(got.NY), rng.Intn(got.NZ)
			solid := !got.IsSolid(x, y, z)
			got.SetSolid(x, y, z, solid)
			want.SetSolid(x, y, z, solid)
			face := rng.Intn(NumFaces)
			got.Faces[face] = randomFace(rng, BC(rng.Intn(int(Ghost)+1)))
			want.Faces[face] = got.Faces[face]
		}
		for dim := range payload {
			for side, dir := range []int{-1, +1} {
				payload[dim][side] = make([]float32, got.BorderLen(dim))
				for k := range payload[dim][side] {
					payload[dim][side][k] = W[DirsInto(dim, -dir)[k%5]] * (0.9 + 0.2*rng.Float32())
				}
			}
		}
		got.StepWithExchange(exchangeGot)
		want.refStep(exchangeWant)
		if !want.finite() {
			return false
		}
		if d := got.diff(want); d != "" {
			t.Fatalf("%v: after step %d of %d: %s", tc, s+1, steps, d)
		}
	}
	return true
}

// TestStepMatchesReferenceKernel runs every combination of the five
// boundary mixes over the three axes, twice, each on its own extents
// (one in four of them 1) and its own draw of solids, curved links,
// forces and collision operator.
func TestStepMatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	extent := func() int {
		if rng.Intn(4) == 0 {
			return 1
		}
		return 2 + rng.Intn(6)
	}
	cases := 0
	for mx := 0; mx < numMixes; mx++ {
		for my := 0; my < numMixes; my++ {
			for mz := 0; mz < numMixes; mz++ {
				for rep := 0; rep < 2; rep++ {
					tc := stepCase{
						seed: rng.Uint64(), n: [3]int{extent(), extent(), extent()}, mix: [3]int{mx, my, mz},
						solids: rng.Intn(3) != 0, curved: rng.Intn(3) == 0, force: rng.Intn(2) == 0,
						field: rng.Intn(3) == 0, mrt: rng.Intn(3) == 0,
					}
					if !tc.run(t) {
						t.Fatalf("%v: the reference left the finite numbers", tc)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d lattices agree with the reference kernels bit for bit", cases)
}

// FuzzStepMatchesReference is the same comparison on the fuzzer's inputs:
// extents 1 + n%8, a mix%5 per axis in the order of the constants above,
// and in carry one bit each for solids, curved links, Force, ForceField
// and MRT. testdata/fuzz holds the named seed corpus.
func FuzzStepMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(3), uint8(mixPeriodic), uint8(mixWall), uint8(mixGhost), uint8(0x1f))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, mixX, mixY, mixZ, carry uint8) {
		tc := stepCase{
			seed:   seed,
			n:      [3]int{1 + int(nx%8), 1 + int(ny%8), 1 + int(nz%8)},
			mix:    [3]int{int(mixX % numMixes), int(mixY % numMixes), int(mixZ % numMixes)},
			solids: carry&1 != 0, curved: carry&2 != 0, force: carry&4 != 0, field: carry&8 != 0, mrt: carry&16 != 0,
		}
		if !tc.run(t) {
			t.Skip("the reference left the finite numbers")
		}
	})
}

// TestFeqMomentsMatchReference pins the unrolled equilibrium and moment
// sums to the loops over C on operands a lattice does not produce by
// itself: zeros of both signs, denormals and large magnitudes.
func TestFeqMomentsMatchReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	special := []float32{0, negZero, 1, -1, 1e-42, -1e-42, 0.3, -0.07, 3e18, -2e-20}
	rng := rand.New(rand.NewSource(7))
	pick := func() float32 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Float32() - 0.5
	}
	for n := 0; n < 20000; n++ {
		var f, feq, want [Q]float32
		for i := range f {
			f[i] = pick()
		}
		if n <= 3 {
			// Sums of nothing but -0 terms, which the loop over C starts
			// at +0: the momentum along axis n, or the density.
			for i := range f {
				switch {
				case n == 3 || C[i][n] > 0:
					f[i] = negZero
				case C[i][n] < 0:
					f[i] = 0
				default:
					f[i] = 1
				}
			}
		}
		rho, ux, uy, uz := Moments(&f)
		wrho, wx, wy, wz := refMoments(&f)
		if _, ok := sameBits([]float32{rho, ux, uy, uz}, []float32{wrho, wx, wy, wz}); !ok {
			t.Fatalf("Moments(%v) = %v %v %v %v, want %v %v %v %v", f, rho, ux, uy, uz, wrho, wx, wy, wz)
		}
		r, x, y, z := pick(), pick(), pick(), pick()
		Feq(&feq, r, x, y, z)
		refFeq(&want, r, x, y, z)
		if i, ok := sameBits(feq[:], want[:]); !ok {
			t.Fatalf("Feq(%v, %v, %v, %v)[%d] = %v, want %v", r, x, y, z, i, feq[i], want[i])
		}
	}
}

// TestUnpackGhostChecksLengthFirst: a payload of the wrong length, short
// or long, is refused before a single ghost cell is written.
func TestUnpackGhostChecksLengthFirst(t *testing.T) {
	l := New(4, 3, 2, 0.8)
	l.Init(1, vecmath.Vec3{})
	for dim := 0; dim < 3; dim++ {
		for _, extra := range []int{-1, +1, -l.BorderLen(dim)} {
			before := l.clone()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("dim %d: a payload of %+d floats was accepted", dim, extra)
					}
				}()
				payload := make([]float32, l.BorderLen(dim)+extra)
				for k := range payload {
					payload[k] = 7
				}
				l.UnpackGhost(dim, +1, payload)
			}()
			if d := l.diff(before); d != "" {
				t.Errorf("dim %d: a refused payload of %+d floats was written: %s", dim, extra, d)
			}
		}
	}
}
