package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"gpucluster/internal/lbm"
	"gpucluster/internal/sched"
	"gpucluster/internal/vecmath"
)

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

func TestTunnelTrafficPerStep(t *testing.T) {
	// The lbm-cpu benchmark's shape: a 32^3 tunnel (inlet and outflow
	// on x, walls elsewhere) on 2x2x2 ranks of 16^3. Each rank sends
	// one border a split dimension, 5 links of a plane that includes
	// the ghosts of the dimensions exchanged before it:
	// 5*(16*16 + 18*16 + 18*18) = 4,340 floats, 34,720 for all 8.
	cfg := Config{Global: [3]int{32, 32, 32}, Grid: sched.NodeGrid{PX: 2, PY: 2, PZ: 2}, Tau: 0.8}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	for _, f := range []int{lbm.FaceYNeg, lbm.FaceYPos, lbm.FaceZNeg, lbm.FaceZPos} {
		cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 2
	sim.Run(steps)
	var msgs, floats int64
	for _, st := range sim.MPIStats() {
		msgs += st.MessagesSent
		floats += st.FloatsSent
	}
	if msgs != 24*steps || floats != 34720*steps {
		t.Errorf("%d steps sent %d messages, %d floats; want %d and %d", steps, msgs, floats, 24*steps, 34720*steps)
	}
}

// recordingNode is a CPU node that logs, in order, the faces it packs
// and unpacks, and for each unpacked payload the rank that packed it.
type recordingNode struct {
	*CPUNode
	rank  int
	log   []string
	owner *ownerMap
}

// ownerMap remembers which rank last packed each payload array.
type ownerMap struct {
	mu   sync.Mutex
	rank map[*float32]int
}

var axisName = [3]string{"x", "y", "z"}

func faceName(dim, dir int) string {
	if dir > 0 {
		return axisName[dim] + "+"
	}
	return axisName[dim] + "-"
}

func (n *recordingNode) PackBorder(dim, dir int) []float32 {
	out := n.CPUNode.PackBorder(dim, dir)
	n.owner.mu.Lock()
	n.owner.rank[&out[0]] = n.rank
	n.owner.mu.Unlock()
	n.log = append(n.log, "pack "+faceName(dim, dir))
	return out
}

func (n *recordingNode) UnpackGhost(dim, dir int, data []float32) {
	n.owner.mu.Lock()
	from := n.owner.rank[&data[0]]
	n.owner.mu.Unlock()
	n.log = append(n.log, fmt.Sprintf("unpack %s from %d", faceName(dim, dir), from))
	n.CPUNode.UnpackGhost(dim, dir, data)
}

// scheduleOrder is the exchange order rank r must follow in one step: per
// dimension, the steps of sched.Build in order, then on a split periodic
// dimension the wrap step between each line's last and first rank. In
// each exchange the rank packs the face toward its partner and unpacks
// the partner's payload into the ghost plane of that face.
func scheduleOrder(g sched.NodeGrid, faces [lbm.NumFaces]lbm.FaceSpec, r int) []string {
	var want []string
	trade := func(dim, dir, peer int) {
		want = append(want, "pack "+faceName(dim, dir),
			fmt.Sprintf("unpack %s from %d", faceName(dim, dir), peer))
	}
	steps := sched.Build(g, sched.Indirect)
	extent := [3]int{g.PX, g.PY, g.PZ}
	for dim := 0; dim < 3; dim++ {
		for _, st := range steps {
			if st.Axis[dim] == 0 {
				continue
			}
			for _, p := range st.Pairs {
				switch r {
				case p.A:
					trade(dim, +1, p.B)
				case p.B:
					trade(dim, -1, p.A)
				}
			}
		}
		if faces[2*dim].Type != lbm.Periodic || extent[dim] == 1 {
			continue
		}
		i, j, k := g.Coords(r)
		c := [3]int{i, j, k}
		switch c[dim] {
		case extent[dim] - 1:
			c[dim] = 0
			trade(dim, +1, g.Rank(c[0], c[1], c[2]))
		case 0:
			c[dim] = extent[dim] - 1
			trade(dim, -1, g.Rank(c[0], c[1], c[2]))
		}
	}
	return want
}

// TestExchangeFollowsSchedule: every rank trades borders with the partner
// of each Fig. 7 schedule step in turn, packing toward that partner and
// unpacking what that partner packed before the next step begins.
func TestExchangeFollowsSchedule(t *testing.T) {
	var periodic, walls, tunnel [lbm.NumFaces]lbm.FaceSpec // zero faces are Periodic
	for f := range walls {
		walls[f] = lbm.FaceSpec{Type: lbm.Wall}
		tunnel[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	tunnel[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
	tunnel[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	cases := []struct {
		name  string
		grid  sched.NodeGrid
		faces [lbm.NumFaces]lbm.FaceSpec
	}{
		{"4x1x1 walls", sched.NodeGrid{PX: 4, PY: 1, PZ: 1}, walls},
		{"4x1x1 periodic", sched.NodeGrid{PX: 4, PY: 1, PZ: 1}, periodic},
		{"3x2x1 periodic", sched.NodeGrid{PX: 3, PY: 2, PZ: 1}, periodic},
		{"4x2x1 tunnel", sched.NodeGrid{PX: 4, PY: 2, PZ: 1}, tunnel},
	}
	for _, tc := range cases {
		owner := &ownerMap{rank: map[*float32]int{}}
		var nodes []*recordingNode
		cfg := Config{
			Global: [3]int{12, 6, 4},
			Grid:   tc.grid,
			Tau:    0.8,
			Faces:  tc.faces,
			NewNode: func(rank int, sub *lbm.Lattice) (Node, error) {
				n := &recordingNode{CPUNode: &CPUNode{L: sub}, rank: rank, owner: owner}
				nodes = append(nodes, n)
				return n, nil
			},
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		const steps = 2 // the second reuses the payloads the first unpacked
		sim.Run(steps)
		for r, n := range nodes {
			once := scheduleOrder(tc.grid, tc.faces, r)
			var want []string
			for range steps {
				want = append(want, once...)
			}
			if !slices.Equal(n.log, want) {
				t.Errorf("%s: rank %d exchanged\n  %q\nwant\n  %q", tc.name, r, n.log, want)
			}
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
