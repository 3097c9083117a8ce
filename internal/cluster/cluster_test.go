package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"gpucluster/internal/lbm"
	"gpucluster/internal/sched"
	"gpucluster/internal/vecmath"
)

func TestDecompose(t *testing.T) {
	cases := []struct {
		g, p      int
		wantSizes []int
	}{
		{10, 2, []int{5, 5}},
		{10, 3, []int{4, 3, 3}},
		{7, 4, []int{2, 2, 2, 1}},
		{5, 1, []int{5}},
	}
	for _, c := range cases {
		off, sz := Decompose(c.g, c.p)
		total := 0
		for i := range sz {
			if sz[i] != c.wantSizes[i] {
				t.Errorf("Decompose(%d,%d) sizes = %v, want %v", c.g, c.p, sz, c.wantSizes)
				break
			}
			if off[i] != total {
				t.Errorf("Decompose(%d,%d) offset[%d] = %d, want %d", c.g, c.p, i, off[i], total)
			}
			total += sz[i]
		}
		if total != c.g {
			t.Errorf("Decompose(%d,%d) covers %d cells", c.g, c.p, total)
		}
	}
}

func TestDecomposeProperty(t *testing.T) {
	f := func(g, p uint8) bool {
		gi := int(g%64) + 1
		pi := int(p%8) + 1
		if pi > gi {
			pi = gi
		}
		off, sz := Decompose(gi, pi)
		total := 0
		for i := range sz {
			if sz[i] <= 0 || off[i] != total {
				return false
			}
			total += sz[i]
		}
		return total == gi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// serialReference builds a single lbm.Lattice equivalent to cfg and runs
// it the given number of steps.
func serialReference(cfg Config, steps int) *lbm.Lattice {
	l := lbm.New(cfg.Global[0], cfg.Global[1], cfg.Global[2], cfg.Tau)
	l.Faces = cfg.Faces
	l.Force = cfg.Force
	if cfg.UseMRT {
		l.Collision = lbm.NewMRT(cfg.Tau)
	}
	if cfg.Geometry != nil {
		for z := 0; z < l.NZ; z++ {
			for y := 0; y < l.NY; y++ {
				for x := 0; x < l.NX; x++ {
					if cfg.Geometry(x, y, z) {
						l.SetSolid(x, y, z, true)
					}
				}
			}
		}
	}
	l.Init(1, vecmath.Vec3{})
	if cfg.InitState != nil {
		ApplyInitState(l, 0, 0, 0, cfg.InitState)
	}
	for s := 0; s < steps; s++ {
		l.Step()
	}
	return l
}

// assertMatchesSerial runs cfg on the given grids and compares the
// gathered fields against the serial reference bit-for-bit.
func assertMatchesSerial(t *testing.T, cfg Config, steps int, grids []sched.NodeGrid) {
	t.Helper()
	ref := serialReference(cfg, steps)
	gx, gy := cfg.Global[0], cfg.Global[1]
	for _, g := range grids {
		cfg.Grid = g
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		sim.Run(steps)
		den := sim.GatherDensity()
		vel := sim.GatherVelocity()
		for z := 0; z < cfg.Global[2]; z++ {
			for y := 0; y < gy; y++ {
				for x := 0; x < gx; x++ {
					idx := (z*gy+y)*gx + x
					if ref.IsSolid(x, y, z) {
						continue
					}
					var f [lbm.Q]float32
					ref.Gather(&f, x, y, z)
					rho, ux, uy, uz := lbm.Moments(&f)
					if den[idx] != rho {
						t.Fatalf("grid %v: density mismatch at (%d,%d,%d): %v != %v",
							g, x, y, z, den[idx], rho)
					}
					if vel[idx] != (vecmath.Vec3{ux, uy, uz}) {
						t.Fatalf("grid %v: velocity mismatch at (%d,%d,%d): %v != %v",
							g, x, y, z, vel[idx], vecmath.Vec3{ux, uy, uz})
					}
				}
			}
		}
	}
}

func TestParallelMatchesSerialCavity(t *testing.T) {
	// Lid-driven cavity: moving lid on +y, walls elsewhere.
	cfg := Config{
		Global: [3]int{16, 16, 8},
		Tau:    0.8,
	}
	for f := range cfg.Faces {
		cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.MovingWall, U: vecmath.Vec3{0.05, 0, 0}}
	assertMatchesSerial(t, cfg, 15, []sched.NodeGrid{
		{PX: 1, PY: 1, PZ: 1},
		{PX: 2, PY: 1, PZ: 1},
		{PX: 2, PY: 2, PZ: 1},
		{PX: 2, PY: 2, PZ: 2},
		{PX: 4, PY: 2, PZ: 1},
		{PX: 3, PY: 1, PZ: 2},
	})
}

func TestParallelMatchesSerialPeriodicTaylorGreen(t *testing.T) {
	// Fully periodic Taylor-Green-like initial condition exercises the
	// wrap exchange between border nodes.
	cfg := Config{
		Global: [3]int{16, 12, 8},
		Tau:    0.7,
		InitState: func(x, y, z int) (float32, vecmath.Vec3) {
			ux := 0.03 * float32(math.Sin(2*math.Pi*float64(x)/16)*math.Cos(2*math.Pi*float64(y)/12))
			uy := -0.03 * float32(math.Cos(2*math.Pi*float64(x)/16)*math.Sin(2*math.Pi*float64(y)/12))
			return 1, vecmath.Vec3{ux, uy, 0}
		},
	}
	assertMatchesSerial(t, cfg, 12, []sched.NodeGrid{
		{PX: 2, PY: 1, PZ: 1},
		{PX: 2, PY: 2, PZ: 1},
		{PX: 4, PY: 1, PZ: 1},
		{PX: 2, PY: 2, PZ: 2},
	})
}

func TestParallelMatchesSerialObstacleAcrossBorder(t *testing.T) {
	// A solid block straddling the node boundary of a 2x2 grid, in a
	// wind-tunnel configuration (inlet/outflow in x, walls in y/z).
	cfg := Config{
		Global: [3]int{20, 16, 8},
		Tau:    0.8,
		Geometry: func(x, y, z int) bool {
			return x >= 8 && x < 12 && y >= 6 && y < 10 && z < 5
		},
	}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	cfg.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Wall}
	cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Wall}
	cfg.Faces[lbm.FaceZNeg] = lbm.FaceSpec{Type: lbm.Wall}
	cfg.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Wall}
	assertMatchesSerial(t, cfg, 15, []sched.NodeGrid{
		{PX: 2, PY: 2, PZ: 1},
		{PX: 2, PY: 2, PZ: 2},
	})
}

func TestParallelMatchesSerialMRT(t *testing.T) {
	cfg := Config{
		Global: [3]int{12, 12, 6},
		Tau:    0.6,
		UseMRT: true,
		Force:  vecmath.Vec3{1e-5, 0, 0},
	}
	cfg.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Wall}
	cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Wall}
	assertMatchesSerial(t, cfg, 10, []sched.NodeGrid{
		{PX: 2, PY: 2, PZ: 1},
		{PX: 3, PY: 2, PZ: 1},
	})
}

func TestMassConservedAcrossNodes(t *testing.T) {
	cfg := Config{
		Global: [3]int{16, 16, 16},
		Grid:   sched.NodeGrid{PX: 2, PY: 2, PZ: 2},
		Tau:    0.8,
		InitState: func(x, y, z int) (float32, vecmath.Vec3) {
			return 1, vecmath.Vec3{
				0.02 * float32(math.Sin(2*math.Pi*float64(y)/16)),
				0,
				0.02 * float32(math.Cos(2*math.Pi*float64(x)/16)),
			}
		},
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m0 := sim.TotalMass()
	sim.Run(40)
	m1 := sim.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-5 {
		t.Errorf("mass drifted %v -> %v (%.2e)", m0, m1, rel)
	}
}

func TestBorderMessageSizes(t *testing.T) {
	// Section 4.3: a node sends 5*N^2 floats to an axial neighbor (plus
	// the ghost-column floats for the higher dimensions).
	const N = 8
	cfg := Config{
		Global: [3]int{2 * N, N, N},
		Grid:   sched.NodeGrid{PX: 2, PY: 1, PZ: 1},
		Tau:    0.8,
	}
	// Walls in x so only the interior border is exchanged (periodic
	// faces would add a wrap exchange).
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Wall}
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Wall}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(2)
	stats := sim.MPIStats()
	// Each step each node sends one x-border of 5*N*N floats.
	wantPerStep := int64(5 * N * N)
	for r, st := range stats {
		if st.MessagesSent != 2 {
			t.Errorf("rank %d sent %d messages, want 2", r, st.MessagesSent)
		}
		if st.FloatsSent != 2*wantPerStep {
			t.Errorf("rank %d sent %d floats, want %d", r, st.FloatsSent, 2*wantPerStep)
		}
	}
}

func TestRunIsResumable(t *testing.T) {
	// Run(5) twice must equal Run(10) once.
	mk := func() *Sim {
		cfg := Config{
			Global: [3]int{12, 12, 6},
			Grid:   sched.NodeGrid{PX: 2, PY: 2, PZ: 1},
			Tau:    0.8,
			InitState: func(x, y, z int) (float32, vecmath.Vec3) {
				return 1, vecmath.Vec3{0.02 * float32(math.Sin(2*math.Pi*float64(y)/12)), 0, 0}
			},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk()
	a.Run(5)
	a.Run(5)
	b := mk()
	b.Run(10)
	da, db := a.GatherDensity(), b.GatherDensity()
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("resumed run diverged at %d: %v != %v", i, da[i], db[i])
		}
	}
	if a.Steps() != 10 {
		t.Errorf("steps = %d", a.Steps())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Global: [3]int{8, 8, 8}, Grid: sched.NodeGrid{}},
		{Global: [3]int{0, 8, 8}, Grid: sched.NodeGrid{PX: 1, PY: 1, PZ: 1}},
		{Global: [3]int{2, 8, 8}, Grid: sched.NodeGrid{PX: 4, PY: 1, PZ: 1}, Tau: 0.8},
	}
	for i, cfg := range bad {
		cfg.Tau = 0.8
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestBlocksTileGlobalDomain(t *testing.T) {
	f := func(a, b, c, gp uint8) bool {
		g := [3]int{int(a%12) + 4, int(b%12) + 4, int(c%12) + 4}
		grid := sched.Arrange3D(int(gp%8) + 1)
		if grid.PX > g[0] || grid.PY > g[1] || grid.PZ > g[2] {
			return true
		}
		sim, err := New(Config{Global: g, Grid: grid, Tau: 0.8})
		if err != nil {
			return false
		}
		covered := make([]int, g[0]*g[1]*g[2])
		for _, blk := range sim.Blocks() {
			for z := blk.Z0; z < blk.Z0+blk.NZ; z++ {
				for y := blk.Y0; y < blk.Y0+blk.NY; y++ {
					for x := blk.X0; x < blk.X0+blk.NX; x++ {
						covered[(z*g[1]+y)*g[0]+x]++
					}
				}
			}
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// tunnel8 is a wind tunnel with a block across every rank border, on
// 2x2x2 CPU ranks: every face type of the decomposition and exchanges on
// all three axes.
func tunnel8(t *testing.T) *Sim {
	t.Helper()
	cfg := Config{
		Global: [3]int{12, 10, 8},
		Grid:   sched.NodeGrid{PX: 2, PY: 2, PZ: 2},
		Tau:    0.8,
		Geometry: func(x, y, z int) bool {
			return x >= 4 && x < 8 && y >= 3 && y < 7 && z < 5
		},
	}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	for _, f := range []int{lbm.FaceYNeg, lbm.FaceYPos, lbm.FaceZNeg, lbm.FaceZPos} {
		cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestStepCountAdvancesOnEveryRank(t *testing.T) {
	sim := tunnel8(t)
	sim.Run(3)
	for r := range sim.Blocks() {
		if got := sim.NodeBackend(r).(*CPUNode).L.StepCount(); got != 3 {
			t.Errorf("rank %d: StepCount() = %d after Run(3), want 3", r, got)
		}
	}
}

// TestClusterRunSteadyStateAllocs: a Run costs what its goroutines, its
// communicators and its closures cost, whatever the number of steps; a
// step itself — ghost fill, pack, send, receive, unpack, stream,
// collide — allocates nothing once every face holds its spare buffer.
func TestClusterRunSteadyStateAllocs(t *testing.T) {
	sim := tunnel8(t)
	sim.Run(2) // the first exchange makes the buffers
	perRun := func(steps int) float64 {
		return testing.AllocsPerRun(10, func() { sim.Run(steps) })
	}
	one := perRun(1)
	for _, steps := range []int{21, 41} {
		if got := perRun(steps); got != one {
			t.Errorf("Run(%d) allocates %.0f times, Run(1) %.0f: %.1f allocations a step",
				steps, got, one, (got-one)/float64(steps-1))
		}
	}
}

// TestPayloadHasOneOwner: what PackBorder returns is not kept by the
// node, and what UnpackGhost receives is what the next PackBorder of that
// face fills.
func TestPayloadHasOneOwner(t *testing.T) {
	n := &CPUNode{L: lbm.New(4, 3, 2, 0.8)}
	n.L.Init(1, vecmath.Vec3{})
	first, second := n.PackBorder(1, +1), n.PackBorder(1, +1)
	if &first[0] == &second[0] {
		t.Fatal("two packs of one face share a buffer: the first payload still has an owner")
	}
	n.UnpackGhost(1, +1, first)
	if third := n.PackBorder(1, +1); &third[0] != &first[0] {
		t.Error("the unpacked payload was not reused for the next pack of its face")
	}
	if fourth := n.PackBorder(1, +1); &fourth[0] == &first[0] {
		t.Error("a payload was handed out twice")
	}
}
