package lbm

import (
	"math"
	"testing"
	"testing/quick"

	"gpucluster/internal/vecmath"
)

func TestLatticeConstants(t *testing.T) {
	// Weights sum to 1.
	var sum float32
	for _, w := range W {
		sum += w
	}
	if math.Abs(float64(sum-1)) > 1e-6 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Opp is a correct involution.
	for i := 0; i < Q; i++ {
		o := Opp[i]
		if Opp[o] != i {
			t.Fatalf("Opp not involutive at %d", i)
		}
		for d := 0; d < 3; d++ {
			if C[o][d] != -C[i][d] {
				t.Fatalf("C[%d] != -C[%d]", o, i)
			}
		}
	}
	// 1 rest + 6 axial + 12 diagonal.
	var rest, axial, diag int
	for i := 0; i < Q; i++ {
		n := C[i][0]*C[i][0] + C[i][1]*C[i][1] + C[i][2]*C[i][2]
		switch n {
		case 0:
			rest++
		case 1:
			axial++
		case 2:
			diag++
		default:
			t.Fatalf("invalid speed %d at %d", n, i)
		}
	}
	if rest != 1 || axial != 6 || diag != 12 {
		t.Fatalf("speed census = %d/%d/%d", rest, axial, diag)
	}
	// Second moment isotropy: sum_i w_i c_ia c_ib = c_s^2 delta_ab.
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			var s float32
			for i := 0; i < Q; i++ {
				s += W[i] * float32(C[i][a]*C[i][b])
			}
			want := float32(0)
			if a == b {
				want = CsSq
			}
			if math.Abs(float64(s-want)) > 1e-6 {
				t.Fatalf("second moment [%d][%d] = %v, want %v", a, b, s, want)
			}
		}
	}
}

func TestFeqMoments(t *testing.T) {
	// The equilibrium distribution must reproduce its defining moments:
	// sum feq = rho, sum c feq = rho u.
	cases := []struct {
		rho, ux, uy, uz float32
	}{
		{1, 0, 0, 0},
		{1, 0.05, 0, 0},
		{1.2, 0.02, -0.03, 0.01},
		{0.8, -0.05, 0.05, -0.05},
	}
	for _, c := range cases {
		var feq [Q]float32
		Feq(&feq, c.rho, c.ux, c.uy, c.uz)
		rho, ux, uy, uz := Moments(&feq)
		if math.Abs(float64(rho-c.rho)) > 1e-5 {
			t.Errorf("rho = %v, want %v", rho, c.rho)
		}
		for _, p := range [][2]float32{{ux, c.ux}, {uy, c.uy}, {uz, c.uz}} {
			if math.Abs(float64(p[0]-p[1])) > 1e-5 {
				t.Errorf("u = (%v %v %v), want (%v %v %v)", ux, uy, uz, c.ux, c.uy, c.uz)
			}
		}
	}
}

func TestFeqMomentsProperty(t *testing.T) {
	f := func(rho, ux, uy, uz float32) bool {
		// Restrict to the physically meaningful low-Mach regime.
		rho = 0.5 + float32(math.Mod(math.Abs(float64(rho)), 1.0))
		clampU := func(u float32) float32 {
			return float32(math.Mod(float64(u), 0.1))
		}
		ux, uy, uz = clampU(ux), clampU(uy), clampU(uz)
		var feq [Q]float32
		Feq(&feq, rho, ux, uy, uz)
		r, vx, vy, vz := Moments(&feq)
		tol := 1e-4
		return math.Abs(float64(r-rho)) < tol &&
			math.Abs(float64(vx-ux)) < tol &&
			math.Abs(float64(vy-uy)) < tol &&
			math.Abs(float64(vz-uz)) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMassMomentumConservationPeriodic(t *testing.T) {
	// A periodic box with a perturbed initial condition conserves mass
	// and momentum under BGK collision + streaming.
	l := New(12, 10, 8, 0.8)
	l.Init(1, vecmath.Vec3{})
	// Perturb: superpose a sine-mode velocity via equilibrium.
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				ux := 0.03 * float32(math.Sin(2*math.Pi*float64(y)/float64(l.NY)))
				uz := 0.02 * float32(math.Cos(2*math.Pi*float64(x)/float64(l.NX)))
				var f [Q]float32
				Feq(&f, 1, ux, 0, uz)
				l.Scatter(&f, x, y, z)
			}
		}
	}
	mass0 := l.TotalMass()
	mom0 := totalMomentum(l)
	for s := 0; s < 50; s++ {
		l.Step()
	}
	mass1 := l.TotalMass()
	mom1 := totalMomentum(l)
	if rel := math.Abs(mass1-mass0) / mass0; rel > 1e-5 {
		t.Errorf("mass drifted by %v (%.1f -> %.1f)", rel, mass0, mass1)
	}
	for d := 0; d < 3; d++ {
		if math.Abs(mom1[d]-mom0[d]) > 1e-2 {
			t.Errorf("momentum[%d] drifted: %v -> %v", d, mom0[d], mom1[d])
		}
	}
}

func TestPoiseuilleProfile(t *testing.T) {
	// Body-force-driven channel flow between two no-slip walls (y faces),
	// periodic in x and z. Steady state: u_x(y) = g/(2 nu) * y' (H - y')
	// with y' measured from the wall (half-way bounce-back places walls
	// half a cell outside the first/last fluid cells).
	const H = 16 // channel width in cells
	tau := float32(0.9)
	g := float32(1e-5)
	l := New(4, H, 4, tau)
	l.Faces[FaceYNeg] = FaceSpec{Type: Wall}
	l.Faces[FaceYPos] = FaceSpec{Type: Wall}
	l.Force = vecmath.Vec3{g, 0, 0}
	l.Init(1, vecmath.Vec3{})
	for s := 0; s < 6000; s++ {
		l.Step()
	}
	nu := viscosity(tau)
	var maxErr, maxU float64
	for y := 0; y < H; y++ {
		yw := float64(y) + 0.5 // distance from wall (half-way BB)
		want := float64(g) / (2 * float64(nu)) * yw * (float64(H) - yw)
		got := float64(l.Velocity(2, y, 2)[0])
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
		if math.Abs(want) > maxU {
			maxU = math.Abs(want)
		}
	}
	if maxErr/maxU > 0.03 {
		t.Errorf("Poiseuille profile error %.2f%% exceeds 3%%", 100*maxErr/maxU)
	}
}

func TestCouetteProfile(t *testing.T) {
	// Plane Couette flow: top wall moves with u_w in +x, bottom wall
	// fixed. Steady state is a linear profile.
	const H = 12
	uw := float32(0.05)
	l := New(4, H, 4, 0.8)
	l.Faces[FaceYNeg] = FaceSpec{Type: Wall}
	l.Faces[FaceYPos] = FaceSpec{Type: MovingWall, U: vecmath.Vec3{uw, 0, 0}}
	l.Init(1, vecmath.Vec3{})
	for s := 0; s < 4000; s++ {
		l.Step()
	}
	var maxErr float64
	for y := 0; y < H; y++ {
		yw := float64(y) + 0.5
		want := float64(uw) * yw / float64(H)
		got := float64(l.Velocity(1, y, 1)[0])
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr/float64(uw) > 0.03 {
		t.Errorf("Couette profile error %.2f%% exceeds 3%%", 100*maxErr/float64(uw))
	}
}

func TestTaylorGreenViscousDecay(t *testing.T) {
	// A periodic shear mode u_x = U sin(k y) decays as exp(-nu k^2 t).
	// Measuring the decay rate recovers the kinematic viscosity.
	const N = 32
	tau := float32(0.8)
	U := float32(0.02)
	l := New(4, N, 4, tau)
	k := 2 * math.Pi / float64(N)
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				ux := U * float32(math.Sin(k*float64(y)))
				var f [Q]float32
				Feq(&f, 1, ux, 0, 0)
				l.Scatter(&f, x, y, z)
			}
		}
	}
	amp := func() float64 {
		// Amplitude via projection onto sin(k y).
		var s float64
		for y := 0; y < N; y++ {
			s += float64(l.Velocity(2, y, 2)[0]) * math.Sin(k*float64(y))
		}
		return s * 2 / N
	}
	a0 := amp()
	const steps = 400
	for s := 0; s < steps; s++ {
		l.Step()
	}
	a1 := amp()
	nuMeasured := -math.Log(a1/a0) / (k * k * steps)
	nuWant := float64(viscosity(tau))
	if rel := math.Abs(nuMeasured-nuWant) / nuWant; rel > 0.05 {
		t.Errorf("measured viscosity %.5f vs theoretical %.5f (%.1f%% off)",
			nuMeasured, nuWant, 100*rel)
	}
}

func TestObstacleBounceBackSymmetry(t *testing.T) {
	// Uniform flow past a centered solid block in a periodic box: the
	// flow must stay symmetric about the block's center plane.
	l := New(24, 16, 16, 0.8)
	l.Force = vecmath.Vec3{1e-5, 0, 0}
	for z := 6; z < 10; z++ {
		for y := 6; y < 10; y++ {
			for x := 10; x < 14; x++ {
				l.SetSolid(x, y, z, true)
			}
		}
	}
	l.Init(1, vecmath.Vec3{})
	for s := 0; s < 300; s++ {
		l.Step()
	}
	// Mirror symmetry in y about the plane y=7.5.
	for y := 0; y < 8; y++ {
		ya, yb := y, 15-y
		ua := l.Velocity(5, ya, 8)[0]
		ub := l.Velocity(5, yb, 8)[0]
		if math.Abs(float64(ua-ub)) > 1e-4 {
			t.Errorf("asymmetry at y=%d/%d: %v vs %v", ya, yb, ua, ub)
		}
	}
	// No fluid enters solid cells: their distributions were never
	// updated; conservation must still hold for the fluid.
	mass := l.TotalMass()
	fluidCells := float64(l.Cells() - 4*4*4)
	if math.Abs(mass-fluidCells)/fluidCells > 0.05 {
		t.Errorf("fluid mass %.1f deviates from %v", mass, fluidCells)
	}
}

func TestInletOutflowChannel(t *testing.T) {
	// Inlet at -x with u=U, outflow at +x, walls elsewhere: the bulk
	// velocity should approach U downstream.
	U := float32(0.04)
	l := New(24, 10, 10, 0.8)
	l.Faces[FaceXNeg] = FaceSpec{Type: Inlet, U: vecmath.Vec3{U, 0, 0}}
	l.Faces[FaceXPos] = FaceSpec{Type: Outflow}
	l.Faces[FaceYNeg] = FaceSpec{Type: Wall}
	l.Faces[FaceYPos] = FaceSpec{Type: Wall}
	l.Faces[FaceZNeg] = FaceSpec{Type: Wall}
	l.Faces[FaceZPos] = FaceSpec{Type: Wall}
	l.Init(1, vecmath.Vec3{U, 0, 0})
	for s := 0; s < 800; s++ {
		l.Step()
	}
	mid := l.Velocity(12, 5, 5)[0]
	if mid < 0.5*U || mid > 2.5*U {
		t.Errorf("centerline velocity %v implausible for inlet %v", mid, U)
	}
	// Flow direction must be downstream everywhere on the centerline.
	for x := 0; x < l.NX; x++ {
		if u := l.Velocity(x, 5, 5)[0]; u <= 0 {
			t.Errorf("backflow %v at x=%d", u, x)
		}
	}
}

func TestMRTReducesToBGK(t *testing.T) {
	// With all kinetic rates = 1/tau, the MRT operator must match BGK to
	// rounding error, per the orthogonal-basis construction.
	tau := float32(0.77)
	mrt := newMRTAsBGK(tau)
	omega := 1 / tau
	cases := [][4]float32{
		{1, 0, 0, 0},
		{1.1, 0.05, -0.02, 0.01},
		{0.9, -0.08, 0.03, 0.06},
	}
	for _, c := range cases {
		var f, feq, postBGK, postMRT [Q]float32
		Feq(&f, c[0], c[1], c[2], c[3])
		// Perturb away from equilibrium.
		for i := range f {
			f[i] *= 1 + 0.1*float32(math.Sin(float64(i)))
		}
		rho, ux, uy, uz := Moments(&f)
		Feq(&feq, rho, ux, uy, uz)
		for i := 0; i < Q; i++ {
			postBGK[i] = f[i] - omega*(f[i]-feq[i])
		}
		mrt.Collide(&f, &postMRT, rho, ux, uy, uz)
		for i := 0; i < Q; i++ {
			if math.Abs(float64(postBGK[i]-postMRT[i])) > 2e-5 {
				t.Fatalf("MRT[%d] = %v, BGK = %v", i, postMRT[i], postBGK[i])
			}
		}
	}
}

func TestMRTConservesMassMomentum(t *testing.T) {
	mrt := NewMRT(0.6)
	f := func(seed int64) bool {
		var fin, post [Q]float32
		s := seed
		for i := range fin {
			s = s*6364136223846793005 + 1442695040888963407
			fin[i] = 0.02 + float32(uint64(s)>>40)/float32(1<<25)
		}
		rho, ux, uy, uz := Moments(&fin)
		mrt.Collide(&fin, &post, rho, ux, uy, uz)
		r2, vx2, vy2, vz2 := Moments(&post)
		tol := 1e-4
		return math.Abs(float64(r2-rho)) < tol*float64(rho) &&
			math.Abs(float64(vx2-ux)) < tol &&
			math.Abs(float64(vy2-uy)) < tol &&
			math.Abs(float64(vz2-uz)) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMRTBasisOrthogonal(t *testing.T) {
	basis := mrtBasis()
	for a := 0; a < Q; a++ {
		for b := a + 1; b < Q; b++ {
			var dot float64
			for i := 0; i < Q; i++ {
				dot += float64(basis[a][i]) * float64(basis[b][i])
			}
			if math.Abs(dot) > 1e-3 {
				t.Errorf("rows %d and %d not orthogonal: %v", a, b, dot)
			}
		}
	}
}

func TestMRTStableAtLowViscosity(t *testing.T) {
	// The paper adopts MRT for stability. At tau close to 0.5 (low
	// viscosity) MRT with tuned rates must stay finite where the flow is
	// moderately driven.
	tau := float32(0.52)
	l := New(16, 16, 4, tau)
	l.Collision = NewMRT(tau)
	l.Force = vecmath.Vec3{1e-6, 0, 0}
	l.Faces[FaceYNeg] = FaceSpec{Type: Wall}
	l.Faces[FaceYPos] = FaceSpec{Type: Wall}
	l.Init(1, vecmath.Vec3{})
	for s := 0; s < 500; s++ {
		l.Step()
	}
	v := l.Velocity(8, 8, 2)
	for d := 0; d < 3; d++ {
		if math.IsNaN(float64(v[d])) || math.IsInf(float64(v[d]), 0) {
			t.Fatalf("MRT went unstable: v = %v", v)
		}
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, bad := range []func(){
		func() { New(0, 4, 4, 0.8) },
		func() { New(4, -1, 4, 0.8) },
		func() { New(4, 4, 4, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestStepCount(t *testing.T) {
	l := New(4, 4, 4, 0.8)
	l.Init(1, vecmath.Vec3{})
	for i := 0; i < 3; i++ {
		l.Step()
	}
	if l.StepCount() != 3 {
		t.Errorf("step count = %d", l.StepCount())
	}
}

// viscosity returns the kinematic viscosity implied by relaxation time
// tau: nu = (tau - 1/2) * c_s^2.
func viscosity(tau float32) float32 { return (tau - 0.5) * CsSq }

// newMRTAsBGK builds an MRT operator with every kinetic rate equal to
// 1/tau; it must reproduce BGK exactly (up to rounding), which the tests
// assert.
func newMRTAsBGK(tau float32) *MRT {
	m := NewMRT(tau)
	omega := 1 / tau
	for a := 0; a < Q; a++ {
		if a == MomRho || a == MomJx || a == MomJy || a == MomJz {
			continue
		}
		m.S[a] = omega
	}
	return m
}

// totalMomentum sums rho*u over interior fluid cells.
func totalMomentum(l *Lattice) [3]float64 {
	var m [3]float64
	var f [Q]float32
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				if l.Solid[l.Idx(x, y, z)] {
					continue
				}
				l.Gather(&f, x, y, z)
				for i := 0; i < Q; i++ {
					m[0] += float64(f[i]) * float64(C[i][0])
					m[1] += float64(f[i]) * float64(C[i][1])
					m[2] += float64(f[i]) * float64(C[i][2])
				}
			}
		}
	}
	return m
}
