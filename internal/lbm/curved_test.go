package lbm

import (
	"math"
	"testing"

	"gpucluster/internal/vecmath"
)

// poiseuilleError runs a body-force channel with the given wall
// intersection fraction q on both walls and returns the max relative
// error against the analytic profile for an effective channel width of
// NY - 1 + 2q (walls at y = -q and y = NY-1+q).
func poiseuilleError(t *testing.T, q float32, analyticQ float32) float64 {
	t.Helper()
	const H = 12
	tau := float32(0.9)
	g := float32(1e-5)
	l := New(4, H, 4, tau)
	l.Faces[FaceYNeg] = FaceSpec{Type: Wall}
	l.Faces[FaceYPos] = FaceSpec{Type: Wall}
	l.Force = vecmath.Vec3{g, 0, 0}
	l.Init(1, vecmath.Vec3{})
	if q != 0.5 { // 0.5 is plain half-way bounce-back; no links needed
		for z := 0; z < l.NZ; z++ {
			for x := 0; x < l.NX; x++ {
				for i := 1; i < Q; i++ {
					if C[i][1] == -1 {
						l.SetLinkQ(x, 0, z, i, q)
					}
					if C[i][1] == 1 {
						l.SetLinkQ(x, H-1, z, i, q)
					}
				}
			}
		}
	}
	for s := 0; s < 6000; s++ {
		l.Step()
	}
	nu := float64(viscosity(tau))
	yBot := -float64(analyticQ)
	yTop := float64(H-1) + float64(analyticQ)
	var maxErr, maxU float64
	for y := 0; y < H; y++ {
		want := float64(g) / (2 * nu) * (float64(y) - yBot) * (yTop - float64(y))
		got := float64(l.Velocity(2, y, 2)[0])
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
		if math.Abs(want) > maxU {
			maxU = math.Abs(want)
		}
	}
	return maxErr / maxU
}

func TestInterpolatedBounceBackMovesWall(t *testing.T) {
	// With q = 0.25 the walls sit closer to the first fluid cells; the
	// profile must match the narrower analytic channel much better than
	// the half-way-width analytic solution.
	correct := poiseuilleError(t, 0.25, 0.25)
	wrongWidth := poiseuilleError(t, 0.25, 0.5)
	if correct > 0.03 {
		t.Errorf("q=0.25 profile error %.2f%% vs correct width", 100*correct)
	}
	if wrongWidth < 1.5*correct {
		t.Errorf("interpolation indistinguishable from half-way BB: correct %.3f%%, half-way-width %.3f%%",
			100*correct, 100*wrongWidth)
	}
}

func TestInterpolatedBounceBackWideWall(t *testing.T) {
	// q = 0.8: walls beyond the half-way plane (the q >= 1/2 branch).
	if err := poiseuilleError(t, 0.8, 0.8); err > 0.03 {
		t.Errorf("q=0.8 profile error %.2f%%", 100*err)
	}
}

func TestHalfQEqualsPlainBounceBack(t *testing.T) {
	// Setting q = 0.5 explicitly must reproduce the plain bounce-back
	// channel bit for bit.
	run := func(explicit bool) *Lattice {
		l := New(4, 8, 4, 0.8)
		l.Faces[FaceYNeg] = FaceSpec{Type: Wall}
		l.Faces[FaceYPos] = FaceSpec{Type: Wall}
		l.Force = vecmath.Vec3{1e-5, 0, 0}
		l.Init(1, vecmath.Vec3{})
		if explicit {
			for z := 0; z < l.NZ; z++ {
				for x := 0; x < l.NX; x++ {
					for i := 1; i < Q; i++ {
						if C[i][1] == -1 {
							l.SetLinkQ(x, 0, z, i, 0.5)
						}
						if C[i][1] == 1 {
							l.SetLinkQ(x, 7, z, i, 0.5)
						}
					}
				}
			}
		}
		for s := 0; s < 50; s++ {
			l.Step()
		}
		return l
	}
	a, b := run(false), run(true)
	for y := 0; y < 8; y++ {
		va, vb := a.Velocity(2, y, 2), b.Velocity(2, y, 2)
		// q=1/2 in both branches algebraically reduces to f~_o(x); the
		// float path differs (multiplications by 1.0 and 0.0), so allow
		// rounding-level differences.
		for d := 0; d < 3; d++ {
			if math.Abs(float64(va[d]-vb[d])) > 1e-6 {
				t.Fatalf("q=0.5 differs from plain BB at y=%d: %v vs %v", y, va, vb)
			}
		}
	}
}

func TestSphereLinksGeometry(t *testing.T) {
	l := New(16, 16, 16, 0.8)
	sphereLinks(l, 8, 8, 8, 3.2)
	if !l.IsSolid(8, 8, 8) {
		t.Fatal("sphere center should be solid")
	}
	if l.IsSolid(2, 2, 2) {
		t.Fatal("far corner should be fluid")
	}
	if !l.HasCurvedBoundaries() {
		t.Fatal("sphere should register intersection links")
	}
	// Every recorded q must be in (0, 1] and belong to a fluid cell with
	// a solid neighbor in that direction.
	for c, lq := range l.LinkQ {
		if l.Solid[c] {
			t.Fatal("solid cell carries link fractions")
		}
		for i := 1; i < Q; i++ {
			if lq[i] == 0 {
				continue
			}
			if lq[i] <= 0 || lq[i] > 1 {
				t.Fatalf("q out of range: %v", lq[i])
			}
		}
	}
}

func TestSphereFlowStable(t *testing.T) {
	// Flow past the sphere with interpolated links stays finite and
	// conserves mass reasonably (open boundaries).
	l := New(24, 16, 16, 0.7)
	l.Faces[FaceXNeg] = FaceSpec{Type: Inlet, U: vecmath.Vec3{0.03, 0, 0}}
	l.Faces[FaceXPos] = FaceSpec{Type: Outflow}
	sphereLinks(l, 10, 8, 8, 3.5)
	l.Init(1, vecmath.Vec3{0.03, 0, 0})
	for s := 0; s < 400; s++ {
		l.Step()
	}
	for _, p := range [][3]int{{5, 8, 8}, {18, 8, 8}, {10, 13, 8}} {
		v := l.Velocity(p[0], p[1], p[2])
		for d := 0; d < 3; d++ {
			if math.IsNaN(float64(v[d])) || math.Abs(float64(v[d])) > 0.5 {
				t.Fatalf("implausible velocity %v at %v", v, p)
			}
		}
	}
	// Wake symmetry about the y mid-plane (y=8: mirror pairs 11 and 5).
	up := l.Velocity(16, 11, 8)[0]
	dn := l.Velocity(16, 5, 8)[0]
	if math.Abs(float64(up-dn)) > 1e-3 {
		t.Errorf("wake asymmetric: %v vs %v", up, dn)
	}
}

func TestSetLinkQValidation(t *testing.T) {
	l := New(4, 4, 4, 0.8)
	for _, f := range []func(){
		func() { l.SetLinkQ(1, 1, 1, 1, 0) },
		func() { l.SetLinkQ(1, 1, 1, 1, 1.5) },
		func() { l.SetLinkQ(1, 1, 1, 0, 0.5) },
		func() { l.SetLinkQ(1, 1, 1, 19, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// sphereLinks marks the solid cells of a sphere (center cx,cy,cz, radius
// r, in cell units) and records the exact link intersection fractions for
// every fluid cell adjacent to it — the Mei et al. representation of a
// curved boundary on the lattice.
func sphereLinks(l *Lattice, cx, cy, cz, r float32) {
	inside := func(x, y, z int) bool {
		dx := float32(x) - cx
		dy := float32(y) - cy
		dz := float32(z) - cz
		return dx*dx+dy*dy+dz*dz <= r*r
	}
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				if inside(x, y, z) {
					l.SetSolid(x, y, z, true)
				}
			}
		}
	}
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				if inside(x, y, z) {
					continue
				}
				for i := 1; i < Q; i++ {
					nx, ny, nz := x+C[i][0], y+C[i][1], z+C[i][2]
					if nx < 0 || nx >= l.NX || ny < 0 || ny >= l.NY || nz < 0 || nz >= l.NZ {
						continue
					}
					if !inside(nx, ny, nz) {
						continue
					}
					// Solve |p + t*c - center| = r for t in (0, 1].
					px := float32(x) - cx
					py := float32(y) - cy
					pz := float32(z) - cz
					dx := float32(C[i][0])
					dy := float32(C[i][1])
					dz := float32(C[i][2])
					a := dx*dx + dy*dy + dz*dz
					b := 2 * (px*dx + py*dy + pz*dz)
					cc := px*px + py*py + pz*pz - r*r
					disc := b*b - 4*a*cc
					if disc <= 0 {
						continue
					}
					t := (-b - sqrt32(disc)) / (2 * a)
					if t > 0 && t <= 1 {
						l.SetLinkQ(x, y, z, i, t)
					}
				}
			}
		}
	}
}
